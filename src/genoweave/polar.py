"""Polar codes over GF(2): transform, successive-cancellation decoding,
Monte-Carlo bit-channel construction, and information-set selection.

The transform is the plain Kronecker power of [[1,0],[1,1]] in natural
index order (no bit reversal), which makes it an involution.  Decoding
uses exact log-domain check-node updates rather than the min-sum
approximation; LLRs may be +-inf as certainty sentinels, an LLR of
exactly zero decodes to 0.

Decoding is batched: a (B, n) LLR array runs B independent decoders in
lock step.  Genie-aided construction needs no decoder at all: with every
decision forced, the partial sums are known up front, so the tree's LLRs
are computed one level at a time with the decoder's f and g, in blocks
of samples spread over threads.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import IO

import numpy as np

__all__ = [
    "PolarCode",
    "polar_transform",
    "sc_decode_batch",
    "genie_posteriors",
    "equivocation_stats",
    "select_info_set",
    "make_polar_code",
    "design_polar_code",
    "write_equivocations_csv",
    "read_equivocations_csv",
]

_LN2 = math.log(2.0)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# ---------------------------------------------------------------------------
# transform


def polar_transform(u) -> np.ndarray:
    """Apply the polar transform x = u F^{(x)m} over GF(2).

    Accepts a bit-vector of power-of-two length n, or a matrix whose rows
    are independently transformed.  The transform is its own inverse.
    """
    u = np.asarray(u)
    if u.ndim not in (1, 2):
        raise ValueError(f"expected a bit-vector or a matrix of rows, got ndim={u.ndim}")
    n = u.shape[-1]
    if not _is_pow2(n):
        raise ValueError(f"length must be a power of two, got {n}")
    if u.size and not np.isin(u, (0, 1)).all():
        raise ValueError("input must be binary")
    # butterfly on a position-major copy: each stage XORs contiguous blocks
    # of half * rows bits instead of many tiny row slices
    rows = u.reshape(-1, n)
    xt = np.array(rows.T, dtype=np.uint8, order="C")
    h = n
    while h > 1:
        v = xt.reshape(n // h, 2, h // 2 * rows.shape[0])
        v[:, 0] ^= v[:, 1]
        h //= 2
    return np.ascontiguousarray(xt.T).reshape(u.shape)


# ---------------------------------------------------------------------------
# code objects


def select_info_set(equivocations, threshold: float) -> np.ndarray:
    """Indices whose estimated equivocation is strictly below threshold, sorted."""
    eq = np.asarray(equivocations, dtype=np.float64)
    if eq.ndim != 1:
        raise ValueError("equivocations must be a vector")
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return np.flatnonzero(eq < threshold).astype(np.int64)


@dataclass(frozen=True, eq=False)
class PolarCode:
    """A constructed polar code: block length, design channel, channel ranking.

    equivocations[j] is the estimated conditional entropy of bit channel j
    under the design BSC; info_set holds the indices selected as data
    carriers, and every other position (frozen_mask) carries the constant
    0.  Instances are immutable and safe to share across threads.  They
    compare and hash by identity, so a code can key a dict.
    """

    n: int
    design_delta: float
    equivocations: np.ndarray = field(repr=False)
    info_set: np.ndarray = field(repr=False)
    frozen_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not _is_pow2(self.n):
            raise ValueError(f"block length must be a power of two, got {self.n}")
        if not 0.0 <= self.design_delta <= 0.5:
            raise ValueError(f"design crossover must lie in [0, 1/2], got {self.design_delta}")
        eq = np.asarray(self.equivocations, dtype=np.float64).copy()
        if eq.shape != (self.n,):
            raise ValueError("equivocations must have one entry per bit channel")
        if np.isnan(eq).any() or eq.min() < 0.0 or eq.max() > 1.0:
            raise ValueError("equivocations must lie in [0, 1]")
        info = np.asarray(self.info_set, dtype=np.int64).copy()
        if info.ndim != 1 or (np.diff(info) <= 0).any():
            raise ValueError("info_set must be strictly increasing")
        if info.size and (info[0] < 0 or info[-1] >= self.n):
            raise ValueError("info_set index out of range")
        mask = np.ones(self.n, dtype=bool)
        mask[info] = False
        for name, arr in (("equivocations", eq), ("info_set", info), ("frozen_mask", mask)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return int(self.info_set.size)

    @property
    def rate(self) -> float:
        return self.info_set.size / self.n


def make_polar_code(n: int, design_delta: float, equivocations,
                    threshold: float | None = None) -> PolarCode:
    """Build a PolarCode from an equivocation vector.

    threshold defaults to 1/(256 n), the per-pool budget split evenly over
    the 256 strand positions.  Selection is strict: ties at the threshold
    stay frozen.
    """
    eq = np.asarray(equivocations, dtype=np.float64)
    if threshold is None:
        threshold = 1.0 / (256.0 * n)
    info = select_info_set(eq, threshold)
    return PolarCode(n=n, design_delta=design_delta, equivocations=eq, info_set=info)


def design_polar_code(n: int, delta: float, samples: int = 1000, seed: int = 0,
                      threshold: float | None = None) -> PolarCode:
    """Monte-Carlo construct a code for BSC(delta) and select its info set."""
    eq = equivocation_stats(n, delta, samples=samples, seed=seed).equivocations
    return make_polar_code(n, delta, eq, threshold=threshold)


# ---------------------------------------------------------------------------
# successive cancellation

# Exact check-node update in the log domain.  For finite a, b:
#   boxplus(a, b) = sign(a) sign(b) min(|a|,|b|)
#                   + log1p(exp(-|a+b|)) - log1p(exp(-|a-b|))
# and sign(a) sign(b) min(|a|,|b|) equals (|a+b| - |a-b|)/2, which saves a
# few array passes on the hot path.  The kernel and the genie butterfly
# evaluate every formula below with the same operations in the same order,
# so their decisions and LLRs are bit-identical to a plain recursive SC
# decoder's.


def _boxplus(a, b, out, sd):
    # out = 0.5*(s - d) + log1p(exp(-s)) - log1p(exp(-d)), s = |a+b|, d = |a-b|,
    # in place; sd is scratch of shape (2,) + out.shape that holds s and d
    # together, so each elementwise step on both is one call
    s, d = sd
    np.add(a, b, out=s)
    np.subtract(a, b, out=d)
    np.abs(sd, out=sd)
    np.multiply(np.subtract(s, d, out=out), 0.5, out=out)
    np.log1p(np.exp(np.negative(sd, out=sd), out=sd), out=sd)
    np.add(out, s, out=out)
    np.subtract(out, d, out=out)


def _gfun(a, b, x, out, sd):
    # out = b - a where x is 1, b + a elsewhere; x None means all 0.  Flipping
    # a's sign bit is an exact negation and b + (-a) is b - a in IEEE
    # arithmetic, which avoids np.where's two full candidate arrays.
    if x is None:
        np.add(b, a, out=out)
        return
    s = sd[0]
    bits = s.view(np.uint64)
    np.left_shift(x, 63, out=bits, dtype=np.uint64)
    np.bitwise_xor(a.view(np.uint64), bits, out=bits)
    np.add(b, s, out=out)


def _boxplus_robust(a, b, out, sd):
    # +-inf sentinels make a+b ill-defined; fall back to the explicit form
    # and zero out the correction wherever it degenerates.
    m = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore"):
        corr = np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    out[...] = m + np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0)


def _gfun_robust(a, b, x, out, sd):
    with np.errstate(invalid="ignore"):
        r = b + a if x is None else np.where(x.astype(bool), b - a, b + a)
    # inf - inf marks contradictory certainty; treat it as no information
    out[...] = np.nan_to_num(r, nan=0.0, posinf=np.inf, neginf=-np.inf)


def _fg(lam):
    # the f/g pair for these LLRs: the in-place one when all are finite, the
    # robust one when +-inf sentinels occur
    if np.isfinite(lam).all():
        return _boxplus, _gfun
    if np.isnan(lam).any():
        raise ValueError("LLRs must be finite or +-inf, got NaN")
    return _boxplus_robust, _gfun_robust


class _SCRun:
    """Buffers and schedule of one batched SC run; _sc_node walks the tree.

    Arrays are position-major, (positions, B): the two halves of a node's
    LLRs and a leaf's B decisions are then contiguous blocks.  lev[l] holds
    the LLRs of the node being visited at depth l and sd[l] the f/g scratch
    for its children.  ones[j] counts the info positions before j, so
    ones[j0 + h] == ones[j0] marks a subtree whose u and x are all 0.
    """

    __slots__ = ("n", "lev", "sd", "u", "ub", "x", "ones", "f", "g")

    def __init__(self, lam, u, x, ones, fg):
        n, B = lam.shape
        m = n.bit_length() - 1
        self.n = n
        self.lev = [lam] + [np.empty((n >> l, B)) for l in range(1, m + 1)]
        sd = np.empty(n * B)
        self.sd = [sd[:n * B >> l].reshape(2, n >> l + 1, B) for l in range(m)]
        self.u, self.ub, self.x = u, u.view(np.bool_), x
        self.ones = ones
        self.f, self.g = fg


def _sc_node(r: _SCRun, l: int, j0: int) -> None:
    # Visit the depth-l node (size h >= 2) whose first leaf is j0 and whose
    # LLRs are in r.lev[l]; writes u and x of the subtree in place.  A
    # subtree with no info position (rate 0) is skipped: its u and x stay 0
    # and its LLRs are never needed.
    half = r.n >> l + 1
    jm, j1 = j0 + half, j0 + 2 * half
    left = r.ones[jm] != r.ones[j0]
    right = r.ones[j1] != r.ones[jm]
    a, b = r.lev[l][:half], r.lev[l][half:]
    out = r.lev[l + 1]
    x = r.x
    if left:
        r.f(a, b, out, r.sd[l])
        if half > 1:
            _sc_node(r, l + 1, j0)
        else:
            np.less(out, 0.0, out=r.ub[j0:jm])
            x[j0] = r.u[j0]
    if right:
        r.g(a, b, x[j0:jm] if left else None, out, r.sd[l])
        if half > 1:
            _sc_node(r, l + 1, jm)
        else:
            np.less(out, 0.0, out=r.ub[jm:j1])
            x[jm] = r.u[jm]
        if left:
            np.bitwise_xor(x[j0:jm], x[jm:j1], out=x[j0:jm])
        else:
            x[j0:jm] = x[jm:j1]


def _sc_batch(llrs: np.ndarray, frozen_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run B successive-cancellation decoders in lock step.

    llrs is (B, n).  Frozen positions decode to 0 and data positions take
    the sign decision, with LLR == 0 decoding to 0.  Returns (u_hat, x_hat),
    both (B, n) uint8.
    """
    B, n = llrs.shape
    lam = np.ascontiguousarray(llrs.T, dtype=np.float64)
    fg = _fg(lam)
    u = np.zeros((n, B), dtype=np.uint8)
    x = u.copy()
    ones = np.concatenate(([0], np.cumsum(~frozen_mask))).tolist()
    if n == 1:  # the root is a leaf
        if ones[-1]:
            np.less(lam, 0.0, out=u.view(np.bool_))
            x[...] = u
    elif ones[-1]:
        _sc_node(_SCRun(lam, u, x, ones, fg), 0, 0)
    return u.T, x.T


def sc_decode_batch(llrs, code: PolarCode) -> tuple[np.ndarray, np.ndarray]:
    """Decode B codeword observations at once; rows are independent decoders.

    Returns (u_hat, x_hat) as (B, n) arrays; x_hat is the re-encoded
    codeword estimate polar_transform(u_hat), produced for free by the
    decoder's partial sums.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.n:
        raise ValueError(f"expected LLR shape (B, {code.n}), got {llrs.shape}")
    return _sc_batch(llrs, code.frozen_mask)


# ---------------------------------------------------------------------------
# genie-aided posteriors and Monte-Carlo construction


@dataclass(frozen=True)
class PosteriorSample:
    """Genie-aided posteriors rho[j] = P(U_j = 0 | observations, true U_1..U_{j-1})."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=np.float64).copy()
        if rho.ndim != 1:
            raise ValueError("rho must be a vector")
        if np.isnan(rho).any() or rho.min() < 0.0 or rho.max() > 1.0:
            raise ValueError("posteriors must lie in [0, 1]")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


def _genie_leaf_llrs(lam: np.ndarray, u: np.ndarray | None) -> np.ndarray:
    """Decision-point LLRs of B genie-aided SC decoders, (n, B).

    lam is the (n, B) position-major channel LLRs and is overwritten; u
    (n, B) holds the forced bits, None meaning all 0.  With every decision
    forced, every partial sum is known up front, so level l + 1's LLRs
    depend on level l's alone: log2(n) passes each apply f and g to every
    node of a level at once.  f and g are the SC kernel's, with the same
    operations in the same order, so each leaf LLR is byte-equal to the one
    a successive decoder holds at that leaf's decision.
    """
    n, B = lam.shape
    m = n.bit_length() - 1
    f, g = _fg(lam)
    # xs[l]: partial sums of the left children at depth l + 1, the polar
    # transform of u over each of their blocks, built bottom-up
    xs = [None] * m
    if u is not None:
        p = u.copy()
        for l in range(m - 1, -1, -1):
            v = p.reshape(1 << l, 2, n >> l + 1, B)
            xs[l] = v[:, 0].copy()
            v[:, 0] ^= v[:, 1]
    sd = np.empty((2, n >> 1, B))
    cur, nxt = lam, np.empty_like(lam)
    for l in range(m):
        shape = (1 << l, 2, n >> l + 1, B)
        v, w = cur.reshape(shape), nxt.reshape(shape)
        sdl = sd.reshape((2,) + shape[:1] + shape[2:])
        f(v[:, 0], v[:, 1], w[:, 0], sdl)
        g(v[:, 0], v[:, 1], xs[l], w[:, 1], sdl)
        cur, nxt = nxt, cur
    return cur


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # np.where evaluates both branches, so the inactive one can overflow or
    # produce inf/inf; both are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def _h2_of_llr(llr: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # Binary entropy of sigmoid(llr), evaluated directly from the LLR so the
    # deeply polarized tail keeps precision far below the 1e-16 that a
    # probability round-trip would allow:
    #   (log1p(et) + t * et / (1 + et)) / ln 2,  t = |llr|, et = exp(-t).
    # Overwrites llr with the result and scratch (same shape) with log1p(et).
    t = np.abs(llr, out=llr)
    et = np.exp(np.negative(t, out=scratch), out=scratch)
    np.multiply(t, et, out=t)
    np.divide(t, 1.0 + et, out=t)
    np.add(np.log1p(et, out=et), t, out=t)
    return np.divide(t, _LN2, out=t)


def genie_posteriors(llrs, true_u) -> PosteriorSample:
    """Successive-cancellation posteriors with all preceding bits revealed.

    Runs the SC schedule but forces every decision to the true input bit,
    recording the posterior P(U_j = 0 | ...) that the decoder held at the
    moment of decision.  This is the per-bit-channel measurement behind
    Monte-Carlo construction.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 1 or not _is_pow2(llrs.shape[0]):
        raise ValueError("LLRs must be a vector of power-of-two length")
    n = llrs.shape[0]
    tu = np.asarray(true_u)
    if tu.shape != (n,) or (tu.size and not np.isin(tu, (0, 1)).all()):
        raise ValueError("true_u must be a length-n bit-vector")
    leaf = _genie_leaf_llrs(llrs[:, None].copy(), tu.astype(np.uint8)[:, None])
    return PosteriorSample(rho=_sigmoid(leaf[:, 0]))


@dataclass(frozen=True)
class EquivocationStats:
    """Monte-Carlo equivocation estimate plus the dispersion of its samples.

    equivocations[j] estimates H(W_j); total_mean is the mean over samples
    of sum_j h2(rho_j), whose expectation is n h2(delta) by the chain rule,
    and total_se is the standard error of that mean.
    """

    equivocations: np.ndarray
    total_mean: float
    total_se: float
    samples: int


def _default_batch(n: int, samples: int) -> int:
    # ~4M floats per chunk: all blocks of a chunk are in flight at once, so
    # this bounds the memory their h results hold; results are batch-size
    # invariant regardless.
    return max(1, min(samples, (1 << 22) // max(n, 1)))


# Construction runs in blocks of about this many floats (32 samples at
# n=4096), so that a block's buffers stay in a core's L2 cache.
_BLOCK_FLOATS = 1 << 17


def _workers() -> int:
    # one thread per CPU this process may run on; NumPy's ufuncs release the
    # GIL, so blocks overlap
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _genie_block(n: int, delta: float, seed: int, start: int, c: int) -> np.ndarray:
    # h2 of the genie posteriors of samples start .. start + c - 1, (c, n)
    noise = np.empty((n, c))
    for i in range(c):
        noise[:, i] = np.random.default_rng([seed, start + i]).random(n)
    lam = math.log((1.0 - delta) / delta) * (1.0 - 2.0 * (noise < delta))
    h = _h2_of_llr(_genie_leaf_llrs(lam, None), noise)
    return np.ascontiguousarray(h.T)


def equivocation_stats(n: int, delta: float, samples: int = 1000, seed: int = 0,
                       batch_size: int | None = None) -> EquivocationStats:
    """Estimate all n bit-channel equivocations for the BSC(delta) design.

    Sends the all-zero codeword through samples independent BSC draws and
    averages h2 of the genie-aided posteriors.  Sample sigma draws its
    noise from an RNG stream keyed by (seed, sigma), and the sums run
    sample by sample in index order, so the result is bit-identical however
    the work is batched, blocked or spread over threads.
    """
    if not _is_pow2(n):
        raise ValueError(f"block length must be a power of two, got {n}")
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"design crossover must lie in [0, 1/2], got {delta}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    chunk = batch_size if batch_size is not None else _default_batch(n, samples)
    if chunk < 1:
        raise ValueError(f"batch size must be positive, got {chunk}")
    if delta == 0.0:
        return EquivocationStats(np.zeros(n), 0.0, 0.0, samples)

    block = max(1, _BLOCK_FLOATS // n)
    eq_sum = np.zeros(n, dtype=np.float64)
    tot_sum = 0.0
    tot_sq = 0.0
    pool = contextlib.nullcontext()
    if min(chunk, samples) > block:
        # imported here: concurrent.futures pulls in logging, ~5 ms that
        # every import of this module would pay otherwise
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(_workers())
    with pool:
        for start in range(0, samples, chunk):
            stop = min(start + chunk, samples)
            starts = range(start, stop, block)
            sizes = [min(block, stop - s) for s in starts]
            run = map if len(starts) == 1 else pool.map  # a single block runs inline
            for h in run(partial(_genie_block, n, delta, seed), starts, sizes):
                # accumulate sample by sample so the result cannot depend on
                # chunks, blocks or threads
                for row in h:
                    eq_sum += row
                    t = float(row.sum())
                    tot_sum += t
                    tot_sq += t * t
    eq = np.clip(eq_sum / samples, 0.0, 1.0)
    mean = tot_sum / samples
    var = max(0.0, tot_sq / samples - mean * mean)
    se = math.sqrt(var / samples)
    return EquivocationStats(equivocations=eq, total_mean=mean, total_se=se, samples=samples)


# ---------------------------------------------------------------------------
# serialization


def write_equivocations_csv(dest: str | IO[str], equivocations,
                            meta: dict | None = None) -> None:
    """Write an equivocation vector as CSV with '# key=value' provenance lines."""
    eq = np.asarray(equivocations, dtype=np.float64)
    lines = []
    for key, val in (meta or {}).items():
        lines.append(f"# {key}={val}")
    lines.append("index,equivocation")
    for i, v in enumerate(eq):
        lines.append(f"{i},{float(v)!r}")
    text = "\n".join(lines) + "\n"
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            fh.write(text)
    else:
        dest.write(text)


def read_equivocations_csv(src: str | IO[str]) -> np.ndarray:
    """Read back an equivocation vector written by write_equivocations_csv."""
    if isinstance(src, str):
        with open(src) as fh:
            text = fh.read()
    else:
        text = src.read()
    values: list[float] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("index"):
            continue
        idx, val = line.split(",")
        if int(idx) != len(values):
            raise ValueError(f"row index {idx} out of order")
        values.append(float(val))
    if not values:
        raise ValueError("no equivocation rows found")
    return np.asarray(values, dtype=np.float64)
