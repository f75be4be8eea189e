"""Error channels on strands: substitutions, deletions, insertions.

Strands are uint8 vectors over {0, 1}; the third symbol value ERASURE
marks padding that carries no channel information.  Deletions keep each
symbol independently with probability 1 - delta and close the gaps, so a
shortened strand is erasure-padded back to its nominal length.
Insertions flip one Bernoulli(delta) coin per original symbol and place a
uniform random bit immediately before that symbol, so strands only grow.

Quaternary strands over ACGT split into two binary strands, one per bit
of the letter, and a deletion of a letter deletes the same index from
both parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polar import _symbols

__all__ = [
    "ERASURE",
    "ChannelSpec",
    "quaternary_split",
    "quaternary_merge",
    "delete_pool",
    "insert_pool",
    "delete_pool_coincident",
    "apply_channel_pool",
]

ERASURE = 2


# ---------------------------------------------------------------------------
# quaternary letters

_LETTERS = ("A", "C", "G", "T")  # letter code c = real + 2 * imag, so C=(1,0) and G=(0,1)


def quaternary_split(strand: str) -> tuple[np.ndarray, np.ndarray]:
    """Split an ACGT strand into its (real, imag) binary component strands."""
    bad = [c for c in strand if c not in _LETTERS]
    if bad:
        raise ValueError(f"strand contains non-ACGT letters: {bad[:5]}")
    codes = np.array([_LETTERS.index(c) for c in strand], dtype=np.uint8)
    return codes & 1, codes >> 1


def quaternary_merge(real, imag) -> str:
    """Inverse of quaternary_split."""
    r, i = (_symbols(part, "strand must be binary") for part in (real, imag))
    if r.ndim != 1 or r.shape != i.shape:
        raise ValueError(f"components must be vectors of one length, got {r.shape} and {i.shape}")
    return "".join(_LETTERS[v] for v in (r + 2 * i))


# ---------------------------------------------------------------------------
# whole-pool channels (vectorized; one RNG draw pattern per pool)


def _check_rate(delta: float) -> None:
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"error rate must lie in [0, 1), got {delta}")


def _check_pool(pool, delta: float) -> np.ndarray:
    _check_rate(delta)
    p = np.asarray(pool)
    if p.ndim != 2:
        raise ValueError("pool must be a (strands, length) matrix")
    return _symbols(p, "pool must be binary")


def _compact_rows(values: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Stable left-compaction of the present entries of each row; the rest
    # of the row becomes erasures.  Boolean indexing runs in row-major
    # order, so values[present] lists each row's present entries in order,
    # row after row, and the first lengths[r] slots of row r take them so.
    lengths = present.sum(axis=1)
    obs = np.full(values.shape, ERASURE, dtype=np.uint8)
    obs[np.arange(values.shape[1]) < lengths[:, None]] = values[present]
    return obs, lengths.astype(np.int64)


def bsc_pool(pool, delta: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Substitution channel on every strand of a pool. Returns (obs, lengths)."""
    p = _check_pool(pool, delta)
    flips = (rng.random(p.shape) < delta).astype(np.uint8)
    return p ^ flips, np.full(p.shape[0], p.shape[1], dtype=np.int64)


def delete_pool(pool, delta: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Deletion channel on every strand. obs keeps the pool width, erasure-padded."""
    p = _check_pool(pool, delta)
    keep = rng.random(p.shape) >= delta
    return _compact_rows(p, keep)


def insert_pool(pool, delta: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Insertion channel on every strand. obs is twice the pool width."""
    p = _check_pool(pool, delta)
    n, length = p.shape
    ins = rng.random(p.shape) < delta
    bits = rng.integers(0, 2, size=p.shape, dtype=np.uint8)
    values = np.empty((n, 2 * length), dtype=np.uint8)
    present = np.empty((n, 2 * length), dtype=bool)
    values[:, 0::2] = bits
    values[:, 1::2] = p
    present[:, 0::2] = ins
    present[:, 1::2] = True
    return _compact_rows(values, present)


def delete_pool_coincident(real_pool, imag_pool, delta: float, rng: np.random.Generator
                           ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Delete the same indices from both component pools of a quaternary pool.

    One kept-set per strand is drawn and applied to both parts, because a
    dropped letter takes both of its bits with it.
    """
    r, i = (_check_pool(part, delta) for part in (real_pool, imag_pool))
    if r.shape != i.shape:
        raise ValueError(f"component pool shapes differ: {r.shape} vs {i.shape}")
    keep = rng.random(r.shape) >= delta
    return _compact_rows(r, keep), _compact_rows(i, keep)


_CHANNELS = {"substitution": bsc_pool, "deletion": delete_pool, "insertion": insert_pool}


@dataclass(frozen=True)
class ChannelSpec:
    """Which error process acts on strands, and at what per-symbol rate."""

    kind: str
    delta: float

    def __post_init__(self) -> None:
        if self.kind not in _CHANNELS:
            raise ValueError(f"unknown channel kind {self.kind!r}, expected one of {tuple(_CHANNELS)}")
        _check_rate(self.delta)


def apply_channel_pool(pool, spec: ChannelSpec, rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch on spec.kind. Returns (obs matrix, raw lengths)."""
    return _CHANNELS[spec.kind](pool, spec.delta, rng)
