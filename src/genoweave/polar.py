"""Polar codes over GF(2): transform, successive-cancellation decoding,
Monte-Carlo bit-channel construction, and information-set selection.

The transform is the plain Kronecker power of [[1,0],[1,1]] in natural
index order (no bit reversal), which makes it an involution.  Decoding
uses exact log-domain check-node updates rather than the min-sum
approximation; LLRs may be +-inf as certainty sentinels, an LLR of
exactly zero decodes to 0.

All decode paths are batched: a (B, n) LLR array runs B independent
decoders in lock step, which is what makes large Monte-Carlo runs cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    x = np.ascontiguousarray(u, dtype=np.uint8).copy()
    h = n
    while h > 1:
        half = h // 2
        v = x.reshape(-1, h)
        v[:, :half] ^= v[:, half:]
        h = half
    return x


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
# few array passes on the hot path.  The kernel evaluates every formula
# below with the same operations in the same order, so its decisions and
# LLRs are bit-identical to a plain recursive SC decoder's.


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


class _SCRun:
    """Buffers and schedule of one batched SC run; _sc_node walks the tree.

    Arrays are position-major, (positions, B): the two halves of a node's
    LLRs and a leaf's B decisions are then contiguous blocks.  lev[l] holds
    the LLRs of the node being visited at depth l and sd[l] the f/g scratch
    for its children.  ones[j] counts the positions before j whose decision
    can be 1 (info positions when decoding, true 1 bits in the genie path),
    so ones[j0 + h] == ones[j0] marks a subtree whose u and x are all 0.
    leaf, when not None, receives every leaf LLR (the genie path, whose
    decisions are already in u and x).
    """

    __slots__ = ("n", "lev", "sd", "u", "ub", "x", "ones", "leaf", "f", "g")

    def __init__(self, lam, u, x, ones, leaf, finite):
        n, B = lam.shape
        m = n.bit_length() - 1
        self.n = n
        self.lev = [lam] + [np.empty((n >> l, B)) for l in range(1, m + 1)]
        sd = np.empty(n * B)
        self.sd = [sd[:n * B >> l].reshape(2, n >> l + 1, B) for l in range(m)]
        self.u, self.ub, self.x = u, u.view(np.bool_), x
        self.ones, self.leaf = ones, leaf
        self.f, self.g = (_boxplus, _gfun) if finite else (_boxplus_robust, _gfun_robust)


def _sc_node(r: _SCRun, l: int, j0: int) -> None:
    # Visit the depth-l node (size h >= 2) whose first leaf is j0 and whose
    # LLRs are in r.lev[l]; writes u and x of the subtree in place.  When
    # decoding, a subtree with no info position (rate 0) is skipped: its u
    # and x stay 0 and its LLRs are never needed.
    half = r.n >> l + 1
    jm, j1 = j0 + half, j0 + 2 * half
    left = r.ones[jm] != r.ones[j0]
    right = r.ones[j1] != r.ones[jm]
    genie = r.leaf is not None
    a, b = r.lev[l][:half], r.lev[l][half:]
    if half == 1 and genie:
        out_left, out_right = r.leaf[j0:jm], r.leaf[jm:j1]
    else:
        out_left = out_right = r.lev[l + 1]
    x = r.x
    if left or genie:
        r.f(a, b, out_left, r.sd[l])
        if half > 1:
            _sc_node(r, l + 1, j0)
        elif not genie:
            np.less(out_left, 0.0, out=r.ub[j0:jm])
            x[j0] = r.u[j0]
    if right or genie:
        r.g(a, b, x[j0:jm] if left else None, out_right, r.sd[l])
        if half > 1:
            _sc_node(r, l + 1, jm)
        elif not genie:
            np.less(out_right, 0.0, out=r.ub[jm:j1])
            x[jm] = r.u[jm]
        if left and right:
            np.bitwise_xor(x[j0:jm], x[jm:j1], out=x[j0:jm])
        elif right:
            x[j0:jm] = x[jm:j1]


def _sc_batch(llrs: np.ndarray,
              frozen_mask: np.ndarray | None,
              forced: np.ndarray | None = None,
              leaf_llrs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run B successive-cancellation decoders in lock step.

    llrs is (B, n).  When forced is given, leaf decisions are overridden by
    it (the genie path) and leaf_llrs (B, n) receives the decision-point
    LLR of every leaf; otherwise frozen positions decode to 0 and data
    positions take the sign decision, with LLR == 0 decoding to 0.
    Returns (u_hat, x_hat), both (B, n) uint8.
    """
    B, n = llrs.shape
    lam = np.ascontiguousarray(llrs.T, dtype=np.float64)
    finite = bool(np.isfinite(lam).all())
    if not finite and np.isnan(lam).any():
        raise ValueError("LLRs must be finite or +-inf, got NaN")
    if forced is None:
        can_be_one = ~frozen_mask
        u = np.zeros((n, B), dtype=np.uint8)
        leaf = None
    else:
        u = np.ascontiguousarray(forced.T, dtype=np.uint8)
        can_be_one = u.any(axis=1)
        leaf = np.empty((n, B), dtype=np.float64)
    x = u.copy()
    ones = np.concatenate(([0], np.cumsum(can_be_one))).tolist()
    if n == 1:  # the root is a leaf
        if leaf is not None:
            leaf[...] = lam
        elif ones[-1]:
            np.less(lam, 0.0, out=u.view(np.bool_))
            x[...] = u
    elif leaf is not None or ones[-1]:
        _sc_node(_SCRun(lam, u, x, ones, leaf, finite), 0, 0)
    if leaf is not None:
        leaf_llrs[...] = leaf.T
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
    leaf = np.empty((1, n), dtype=np.float64)
    _sc_batch(llrs[None, :], None,
              forced=np.ascontiguousarray(tu, dtype=np.uint8)[None, :],
              leaf_llrs=leaf)
    return PosteriorSample(rho=_sigmoid(leaf[0]))


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
    # ~4M floats per chunk amortises the recursion overhead without
    # blowing up memory; results are batch-size invariant regardless.
    return max(1, min(samples, (1 << 22) // max(n, 1)))


def equivocation_stats(n: int, delta: float, samples: int = 1000, seed: int = 0,
                       batch_size: int | None = None) -> EquivocationStats:
    """Estimate all n bit-channel equivocations for the BSC(delta) design.

    Sends the all-zero codeword through samples independent BSC draws and
    averages h2 of the genie-aided posteriors.  Sample sigma draws its
    noise from an RNG stream keyed by (seed, sigma), so the result is
    bit-identical however the work is batched.
    """
    if not _is_pow2(n):
        raise ValueError(f"block length must be a power of two, got {n}")
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"design crossover must lie in [0, 1/2], got {delta}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if delta == 0.0:
        return EquivocationStats(np.zeros(n), 0.0, 0.0, samples)

    llr0 = math.log((1.0 - delta) / delta)
    chunk = batch_size if batch_size is not None else _default_batch(n, samples)
    if chunk < 1:
        raise ValueError(f"batch size must be positive, got {chunk}")
    eq_sum = np.zeros(n, dtype=np.float64)
    tot_sum = 0.0
    tot_sq = 0.0
    forced = np.zeros((chunk, n), dtype=np.uint8)
    leaf = np.empty((chunk, n), dtype=np.float64)
    noise = np.empty((chunk, n), dtype=np.float64)
    for start in range(0, samples, chunk):
        c = min(chunk, samples - start)
        for i in range(c):
            noise[i] = np.random.default_rng([seed, start + i]).random(n)
        flips = noise[:c] < delta
        lam = llr0 * (1.0 - 2.0 * flips)
        _sc_batch(lam, None, forced=forced[:c], leaf_llrs=leaf[:c])
        h = _h2_of_llr(leaf[:c], noise[:c])
        # accumulate sample by sample so the result cannot depend on chunking
        for i in range(c):
            eq_sum += h[i]
            t = float(h[i].sum())
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
