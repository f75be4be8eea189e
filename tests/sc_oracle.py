"""Reference successive-cancellation kernel: the plain recursive decoder.

This is the allocate-per-node recursive kernel that genoweave.polar used
before its kernel was rewritten around preallocated buffers and rate-0
pruning, kept as the oracle for tests/test_sc_kernel.py.  The new kernel
must reproduce its decisions, partial sums, genie leaf LLRs and
equivocation statistics byte for byte.  Like the kernel, it takes finite
LLRs only: a noiseless design decodes with a finite certainty LLR.
genie_posteriors, the decoder with every decision forced to a given bit,
lives here too: construction only ever forces 0, so the package has no
forced-bits path of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from genoweave.polar import EquivocationStats, _is_binary

_LN2 = math.log(2.0)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0

# Exact check-node update in the log domain.  For finite a, b:
#   boxplus(a, b) = sign(a) sign(b) min(|a|,|b|)
#                   + log1p(exp(-|a+b|)) - log1p(exp(-|a-b|))
# and sign(a) sign(b) min(|a|,|b|) equals (|a+b| - |a-b|)/2, which saves a
# few array passes on the hot path.


def _boxplus(a, b):
    s = np.abs(a + b)
    d = np.abs(a - b)
    return 0.5 * (s - d) + np.log1p(np.exp(-s)) - np.log1p(np.exp(-d))


def _gfun(a, b, x):
    return np.where(x.astype(bool), b - a, b + a)


def _sc_batch(llrs: np.ndarray,
              frozen_mask: np.ndarray | None,
              forced: np.ndarray | None = None,
              leaf_llrs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run B successive-cancellation decoders in lock step.

    llrs is (B, n) and finite.  When forced is given, leaf decisions are
    overridden by it (the genie path); otherwise frozen positions decode to
    0 and data positions take the sign decision, with LLR == 0 decoding to 0.
    leaf_llrs, when provided, receives the decision-point LLR of every leaf.
    Returns (u_hat, x_hat), both (B, n) uint8.
    """
    B, n = llrs.shape
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")

    def leaf(lam: np.ndarray, j: int) -> np.ndarray:
        if leaf_llrs is not None:
            leaf_llrs[:, j] = lam
        if forced is not None:
            return forced[:, j]
        if frozen_mask[j]:
            return np.zeros(B, dtype=np.uint8)
        return (lam < 0).astype(np.uint8)

    def node(lam: np.ndarray, j0: int) -> tuple[np.ndarray, np.ndarray]:
        h = lam.shape[1]
        if h == 1:
            u = leaf(lam[:, 0], j0)[:, None]
            return u, u
        half = h >> 1
        a = lam[:, :half]
        b = lam[:, half:]
        if h == 2:
            a0 = a[:, 0]
            b0 = b[:, 0]
            u0 = leaf(_boxplus(a0, b0), j0)
            u1 = leaf(_gfun(a0, b0, u0), j0 + 1)
            return np.stack((u0, u1), axis=1), np.stack((u0 ^ u1, u1), axis=1)
        ul, xl = node(_boxplus(a, b), j0)
        ur, xr = node(_gfun(a, b, xl), j0 + half)
        return (np.concatenate((ul, ur), axis=1),
                np.concatenate((xl ^ xr, xr), axis=1))

    lam0 = np.ascontiguousarray(llrs, dtype=np.float64)
    return node(lam0, 0)


def _h2_of_llr(llr: np.ndarray) -> np.ndarray:
    # Binary entropy of sigmoid(llr), evaluated directly from the LLR so the
    # deeply polarized tail keeps precision far below the 1e-16 that a
    # probability round-trip would allow.
    t = np.abs(llr)
    et = np.exp(-t)
    return (np.log1p(et) + t * et / (1.0 + et)) / _LN2


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # np.where evaluates both branches, so the inactive one can overflow or
    # produce inf/inf; both are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


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
    if tu.shape != (n,) or not _is_binary(tu):
        raise ValueError("true_u must be a length-n bit-vector")
    leaf = np.empty((1, n))
    _sc_batch(llrs[None], None, forced=tu.astype(np.uint8)[None], leaf_llrs=leaf)
    return PosteriorSample(rho=_sigmoid(leaf[0]))


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
        h = _h2_of_llr(leaf[:c])
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
