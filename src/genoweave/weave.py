"""Weaving one polar code across every position of a strand pool.

A pool is n strands of 256 symbols.  Position p of all n strands forms
one length-n polar codeword, so a pool carries 256 codewords interleaved
across strands and there is no per-strand inner code at all.  Decoding
walks positions left to right; each strand keeps an offset into its own
received symbols, advanced whenever the freshly re-encoded codeword
disagrees with what that strand showed (push after deletions re-reads
the symbol, pull after insertions skips past it).  An erasure never
contradicts anything, so padding cannot move an offset.

The decoder works position-major: it reads the observations as
(width, pools, strands) and builds each position's LLRs straight in the SC
kernel's (strands, pools) layout, so no array is transposed per position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ERASURE
from .polar import PolarCode, _bsc_llr, _symbols, polar_transform, sc_decode_batch

__all__ = [
    "weave_encode",
    "decode_pool_batch",
]

_STEP = {"push": -1, "pull": 1, "fixed": 0}  # read-index move per contradicted symbol

# Under a noiseless (delta = 0) design a symbol is certain; SC takes finite
# LLRs, so certainty is +-CERTAIN_LLR.  With no errors every node LLR has its
# right sign, smallest on the all-f path, f(a, a) = a - ln 2 + log1p(exp(-2a))
# >= a - ln 2: above 6.33 at depth 63, past any n an int64 index reaches.
# From 1 it would reach 0 at depth 6, n = 64, and decode wrongly.
CERTAIN_LLR = 50.0


def _check_crossover(delta: float) -> None:
    # the crossovers the decoder's model takes: at 1/2 a symbol carries no information
    if not 0.0 <= delta < 0.5:  # NaN too
        raise ValueError(f"LLR model crossover must lie in [0, 1/2), got {delta}")


def _llr_table(delta: float) -> np.ndarray:
    """The decoder's BSC(delta) model, indexed by symbol: [LLR(0), LLR(1), LLR(erasure)]."""
    _check_crossover(delta)
    certain = CERTAIN_LLR if delta == 0.0 else _bsc_llr(delta)
    return np.array([certain, -certain, 0.0])


@dataclass(frozen=True)
class Pool:
    """n strands by strand-length matrix of bits; column p is a polar codeword."""

    strands: np.ndarray = field(repr=False)  # read-only, C-contiguous uint8


@dataclass(frozen=True)
class BatchDecodeResult:
    info_bits: np.ndarray            # (pools, length, k)
    offsets: np.ndarray              # (pools, n)
    offset_history: np.ndarray | None = None  # (pools, length, n) when traced


def weave_encode(info_bits, code: PolarCode) -> Pool:
    """Encode an (length, k) info matrix into a pool of code.n strands.

    Row p of info_bits fills the info positions of the p-th codeword; the
    codeword's bits are scattered across the n strands at position p.
    """
    info = np.asarray(info_bits)
    if info.ndim != 2:
        raise ValueError("info_bits must be a (length, k) matrix")
    length, k = info.shape
    if k != code.k:
        raise ValueError(f"expected {code.k} info columns, got {k}")
    if length < 1:
        raise ValueError("need at least one position")
    info = _symbols(info, "info_bits must be binary")
    u = np.zeros((length, code.n), dtype=np.uint8)   # frozen positions stay 0
    u[:, code.info_set] = info
    strands = polar_transform(u).T   # rows of the transform are codewords; .T is C-contiguous
    strands.setflags(write=False)
    return Pool(strands=strands)


def decode_pool_batch(obs: np.ndarray, code: PolarCode, mode: str, length: int,
                      trace: bool = False) -> BatchDecodeResult:
    """Decode W pools at once from stacked observation matrices.

    obs is (W, n, width) over {0, 1, ERASURE}; rows beyond a strand's raw
    symbols must already be erasures.  All W pools run the same position
    schedule, so the whole batch moves through the polar decoder together.
    The decoder reads obs position-major, as obs.transpose(2, 0, 1) made
    contiguous: that is free for a (W, n, width) view of a (width, W, n)
    buffer, as sim passes, and one copy for a C-contiguous obs.

    mode selects the offset rule: "push" re-reads a contradicted symbol
    (deletions), "pull" skips past it (insertions), "fixed" never moves
    (substitution-only channels).  Strand s contributes its symbol at
    index p - d(s, p) under push and p + i(s, p) under pull.  The LLR model
    is the code's design crossover; received symbols are never used to
    re-estimate it.  With trace, offset_history records the offsets
    entering each position.
    """
    step = _STEP.get(mode)
    if step is None:
        raise ValueError(f"unknown mode {mode!r}, expected one of {tuple(_STEP)}")
    obs = np.asarray(obs)
    if obs.ndim != 3 or obs.shape[1] != code.n:
        raise ValueError(f"expected obs shape (W, {code.n}, width), got {obs.shape}")
    obs = _symbols(obs, f"observation symbols must be 0, 1 or ERASURE ({ERASURE})", ERASURE)
    W, n, width = obs.shape
    # An offset grows by at most 1 per position, so entering position p it
    # lies in [0, p]: push reads index p - d in [0, p] and pull reads p + i in
    # [p, 2p].  This check therefore keeps every read inside its strand.
    need = 2 * length if step > 0 else length
    if width < need:
        raise ValueError(f"observation width {width} too small for {mode} over {length} positions")
    table = _llr_table(code.design_delta)

    info_out = np.empty((W, length, code.k), dtype=np.uint8)
    history = np.empty((W, length, n), dtype=np.int64) if trace else None

    # Everything per position is (n, W), the kernel's layout.  Symbol p of
    # strand (w, s) is at flat index p W n + w n + s of the position-major
    # obs; at[s, w] is that index at p = 0, moved by the strand's offset.
    flat = np.ascontiguousarray(obs.transpose(2, 0, 1)).reshape(-1)
    row = W * n
    base = np.arange(row, dtype=np.int64).reshape(W, n).T
    at = base.copy()
    idx = np.empty((n, W), dtype=np.int64)
    col = np.empty((n, W), dtype=np.uint8)
    lam = np.empty((n, W))
    info = np.empty((code.k, W), dtype=np.uint8)
    moved = np.empty((n, W), dtype=bool)
    shift = np.empty((n, W), dtype=np.int64)

    def offsets() -> np.ndarray:  # (W, n): how many rows each strand's index moved
        return ((at - base) // row * step).T

    for p in range(length):
        if trace:
            history[:, p, :] = offsets()
        # every index is in range (see above), so mode="clip" only skips the
        # bounds checks; on the uint8 symbols they cost 5x the lookup itself
        np.take(flat, np.add(at, p * row, out=idx), out=col, mode="clip")
        np.take(table, col, out=lam, mode="clip")
        u, x = sc_decode_batch(lam.T, code)
        info_out[:, p] = np.take(u.T, code.info_set, axis=0, out=info, mode="clip").T
        if step != 0:
            # x differs from a received 0 or 1: x ^ col is 1 (2 or 3 on an erasure)
            np.equal(np.bitwise_xor(x.T, col, out=col), 1, out=moved)
            np.add(at, np.multiply(moved, step * row, out=shift), out=at)
    return BatchDecodeResult(info_bits=info_out, offsets=offsets().copy(), offset_history=history)
