"""Per-position polar coding across unordered DNA strand pools.

A pool holds n strands of 256 symbols each.  Position p of every strand,
read across the pool, forms one length-n polar codeword, so the pool
carries 256 independent codewords and no per-strand inner code.  Strands
that suffer deletions or insertions fall out of sync; the push/pull
decoders re-align them one detected error at a time using the already
decoded codewords.  The rates module provides the concatenation baseline
these codes are measured against.
"""

__version__ = "0.1.0"
