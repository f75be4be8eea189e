"""Polar codes over GF(2): transform, successive-cancellation decoding,
Monte-Carlo bit-channel construction, and information-set selection.

The transform is the plain Kronecker power of [[1,0],[1,1]] in natural
index order (no bit reversal), which makes it an involution.  Decoding
uses exact log-domain check-node updates rather than the min-sum
approximation; LLRs must be finite, and an LLR of exactly zero decodes
to 0.

Decoding is batched: a (B, n) LLR array runs B independent decoders in
lock step.  Genie-aided construction needs no decoder at all: with every
decision forced to 0, every partial sum is 0, so the tree's LLRs are
computed one level at a time with the decoder's f and g, in blocks of
samples spread over threads.  The first three levels come from a table
over every pattern of BSC channel signs.
"""

from __future__ import annotations

import collections
import math
import os
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "PolarCode",
    "polar_transform",
    "sc_decode_batch",
    "equivocation_stats",
    "make_polar_code",
    "design_polar_code",
    "format_equivocations_csv",
    "read_equivocations_csv",
]

_LN2 = math.log(2.0)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _is_binary(a: np.ndarray) -> bool:
    # on the raw array, before any cast: a cast to uint8 maps 0.5 and 256 to 0
    # and 257 to 1
    if a.dtype.kind in "bu":
        return bool((a <= 1).all())
    return bool(((a == 0) | (a == 1)).all())


# ---------------------------------------------------------------------------
# transform


def _xor_stages(v: np.ndarray) -> None:
    # the transform of each column of v, a C-contiguous (n, cols) uint8 array
    # of bits, in place; position-major, each stage XORs contiguous blocks of
    # half * cols bits instead of many tiny row slices
    n, cols = v.shape
    h = n
    while h > 1:
        w = v.reshape(n // h, 2, h // 2 * cols)
        w[:, 0] ^= w[:, 1]
        h //= 2


def polar_transform(u) -> np.ndarray:
    """Apply the polar transform x = u F^{(x)m} over GF(2).

    Accepts a bit-vector of power-of-two length n, or a matrix whose rows
    are independently transformed.  The transform is its own inverse.  It
    works on a position-major copy and returns a matrix as a transposed
    view of it: out.T is C-contiguous.
    """
    u = np.asarray(u)
    if u.ndim not in (1, 2):
        raise ValueError(f"expected a bit-vector or a matrix of rows, got ndim={u.ndim}")
    n = u.shape[-1]
    if not _is_pow2(n):
        raise ValueError(f"length must be a power of two, got {n}")
    if not _is_binary(u):
        raise ValueError("input must be binary")
    xt = np.array(u.reshape(-1, n).T, dtype=np.uint8, order="C")
    _xor_stages(xt)
    return xt.T.reshape(u.shape)


# ---------------------------------------------------------------------------
# code objects


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
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return PolarCode(n=n, design_delta=design_delta, equivocations=eq,
                     info_set=np.flatnonzero(eq < threshold))


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
# few array passes on the hot path.  _boxplus and _gfun return their calls
# as (ufunc, args) steps, which the kernel binds into a plan once and the
# genie butterfly runs right away.  Both evaluate every formula with the same
# operations in the same order, so their decisions and LLRs are
# bit-identical to a plain recursive SC decoder's.
#
# Partial sums are uint64 sign masks: bit 63 set for a 1, all bits clear for
# a 0.  XOR of masks is XOR of bits, and XOR of a mask into a float64 negates
# it exactly.

_SIGN = np.uint64(1 << 63)


def _boxplus(a, b, out, sd):
    # out = 0.5*(s - d) + log1p(exp(-s)) - log1p(exp(-d)), s = |a+b|, d = |a-b|,
    # in place; sd is scratch of shape (2,) + out.shape that holds s and d
    # together, so each elementwise step on both is one call.  Setting the
    # sign bit turns a+b and a-b into -s and -d in one pass, and
    # (-d) - (-s) is s - d exactly in IEEE arithmetic.
    s, d = sd
    bits = sd.view(np.uint64)
    return [(np.add, (a, b, s)), (np.subtract, (a, b, d)), (np.bitwise_or, (bits, _SIGN, bits)),
            (np.subtract, (d, s, out)), (np.multiply, (out, 0.5, out)),
            (np.exp, (sd, sd)), (np.log1p, (sd, sd)),
            (np.add, (out, s, out)), (np.subtract, (out, d, out))]


def _gfun(a, b, x, out, sd):
    # out = b - a where the mask x is set, b + a elsewhere; x None means all
    # 0.  XOR of the mask flips a's sign bit, an exact negation, and b + (-a)
    # is b - a in IEEE arithmetic, which avoids np.where's two full candidate
    # arrays.
    if x is None:
        return [(np.add, (b, a, out))]
    s = sd[0]
    bits = s.view(np.uint64)
    return [(np.bitwise_xor, (a.view(np.uint64), x, bits)), (np.add, (b, s, out))]


def _run(steps) -> None:
    for fn, args in steps:
        fn(*args)


class _SCPlan:
    """SC decoding compiled for one frozen mask and batch width.

    The workspace is position-major, (positions, B): the two halves of a
    node's LLRs and a leaf's B decisions are then contiguous blocks.  lev[l]
    holds the LLRs of the node being visited at depth l, lev[0] the channel
    LLRs, and sd[l] the f/g scratch for its children.  x holds the partial
    sums as sign masks, and a leaf writes its decision, its LLR's sign bit,
    straight into x.  The builder walks the tree once and appends every call
    of the walk to steps with its views bound, so a run is one flat loop.  A
    subtree with no info position (rate 0) emits nothing: its u and x are 0
    and its LLRs are never needed.  ones[j] counts the info positions before
    j, so ones[j0 + h] == ones[j0] marks such a subtree.  u is not written
    during the run: x = uG and G is an involution, so after the run
    _xor_stages turns a copy of x's bits into u.
    """

    __slots__ = ("key", "n", "lev", "sd", "x", "ones", "f_steps", "steps")

    def __init__(self, key, frozen_mask: np.ndarray, B: int):
        n = frozen_mask.size
        m = n.bit_length() - 1
        self.key, self.n = key, n
        self.lev = [np.empty((n >> l, B)) for l in range(m + 1)]
        sd = np.empty(n * B)
        self.sd = [sd[:n * B >> l].reshape(2, n >> l + 1, B) for l in range(m)]
        self.x = np.empty((n, B), dtype=np.uint64)
        self.ones = np.concatenate(([0], np.cumsum(~frozen_mask))).tolist()
        # every node at depth l runs f on the same views, so they share its steps
        self.f_steps = [_boxplus(lev[:len(lev) // 2], lev[len(lev) // 2:], nxt, sd)
                        for lev, nxt, sd in zip(self.lev, self.lev[1:], self.sd)]
        self.steps = []
        if self.ones[-1]:
            self._visit(0, 0)

    def _visit(self, l: int, j0: int) -> None:
        # emit the steps of the depth-l node whose first leaf is j0 and whose
        # LLRs are in lev[l]; they write x of the subtree
        half = self.n >> l + 1
        if half == 0:  # a leaf
            self.steps.append((np.bitwise_and, (self.lev[l].view(np.uint64), _SIGN,
                                                self.x[j0:j0 + 1])))
            return
        jm, j1 = j0 + half, j0 + 2 * half
        left = self.ones[jm] != self.ones[j0]
        right = self.ones[j1] != self.ones[jm]
        a, b = self.lev[l][:half], self.lev[l][half:]
        out, sd, x = self.lev[l + 1], self.sd[l], self.x
        if left:
            self.steps += self.f_steps[l]
            self._visit(l + 1, j0)
        if right:
            self.steps += _gfun(a, b, x[j0:jm] if left else None, out, sd)
            self._visit(l + 1, jm)
            if left:
                self.steps.append((np.bitwise_xor, (x[j0:jm], x[jm:j1], x[j0:jm])))
            else:
                self.steps.append((np.copyto, (x[j0:jm], x[jm:j1])))

    def run(self, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Adding +0.0 maps -0.0 to +0.0, which decides 0 as np.less(llr, 0)
        # does.  f and g make no -0.0 from other inputs, so from here on a
        # sign bit is a decision.
        np.add(llrs.T, 0.0, out=self.lev[0])
        # a parent's XOR writes x slots of rate-0 subtrees, which no step resets
        self.x.fill(0)
        _run(self.steps)
        # fresh arrays, transposed to (B, n): the workspace is reused by the
        # next run.  Read as int64, a set mask is negative.
        x = np.less(self.x.view(np.int64), 0).view(np.uint8)
        u = x.copy()
        _xor_stages(u)
        return u.T, x.T


# The most recent plan of each thread.  A pool decode calls the kernel at
# every strand position with the same code and width, so one plan serves
# all of them; per thread, so a PolarCode can be shared across threads.
_plans = threading.local()


def sc_decode_batch(llrs, code: PolarCode) -> tuple[np.ndarray, np.ndarray]:
    """Decode B codeword observations at once; rows are independent decoders.

    llrs is (B, n) and finite; +-inf or NaN raises ValueError.  Frozen
    positions decode to 0 and data positions take the sign decision, with
    LLR == 0 decoding to 0.  Returns (u_hat, x_hat), both (B, n) uint8:
    transposed views of position-major arrays of their own.  x_hat is the
    re-encoded codeword estimate polar_transform(u_hat), produced for free
    by the decoder's partial sums.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.n:
        raise ValueError(f"expected LLR shape (B, {code.n}), got {llrs.shape}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    B = llrs.shape[0]
    key = (B, code.frozen_mask.tobytes())
    plan = getattr(_plans, "plan", None)
    if plan is None or plan.key != key:
        plan = _plans.plan = None  # free the old workspace before building the next
        plan = _plans.plan = _SCPlan(key, code.frozen_mask, B)
    return plan.run(llrs)


# ---------------------------------------------------------------------------
# genie-aided Monte-Carlo construction


def _butterfly(cur: np.ndarray, nxt: np.ndarray, sd: np.ndarray, start: int):
    """Run levels start .. log2(n) - 1 of the genie butterfly on B samples.

    With every decision forced to 0, every partial sum is 0, so level
    l + 1's LLRs depend on level l's alone and each level applies the finite
    f and g to all of its nodes at once.  cur (n, B) holds level start's LLRs
    in natural order, [node][offset][sample]; nxt (n, B) and sd (n * B) are
    scratch.  From level switch = max(start, log2(n) // 2) on, the levels
    run on the order [offset][node][sample]: every node's a and b halves are
    then the two halves of the buffer, and level l writes f and g in runs of
    2^l * B floats instead of natural order's (n >> l + 1) * B, which shrink
    to B at the leaves.  Each of those levels puts the child bit above the
    node index; _to_natural undoes that.  Returns (leaves, spare, switch),
    where leaves and spare are cur and nxt in some order.
    """
    n, B = cur.shape
    m = n.bit_length() - 1
    switch = max(start, m // 2)
    for l in range(start, m):
        half = n >> l + 1
        if l == switch:
            np.copyto(nxt.reshape(n >> l, 1 << l, B),
                      cur.reshape(1 << l, n >> l, B).transpose(1, 0, 2))
            cur, nxt = nxt, cur
        if l < switch:
            a, b = cur.reshape(1 << l, 2, half * B).transpose(1, 0, 2)
            kids = nxt.reshape(1 << l, 2, half * B).transpose(1, 0, 2)
        else:
            a, b = cur.reshape(2, half, B << l)
            kids = nxt.reshape(half, 2, B << l).transpose(1, 0, 2)
        sdl = sd.reshape((2,) + a.shape)
        _run(_boxplus(a, b, kids[0], sdl))
        _run(_gfun(a, b, None, kids[1], sdl))
        cur, nxt = nxt, cur
    return cur, nxt, switch


def _to_natural(leaves: np.ndarray, dest: np.ndarray, switch: int) -> np.ndarray:
    """Copy _butterfly's leaves into dest, an (n, B) view, in leaf order.

    Write leaf j as hi * 2^k + lo, where hi holds its first switch decisions
    and k = log2(n) - switch.  Its LLRs are row rev[lo] * 2^switch + hi of
    leaves, where rev reverses the k bits of lo.  Returns dest.
    """
    n, B = dest.shape
    k = n.bit_length() - 1 - switch
    # transposing a (2, ..., 2) array reverses the bits of its flat index
    rev = np.arange(1 << k).reshape((2,) * k).T.ravel()
    dest.reshape(1 << switch, 1 << k, B).transpose(1, 0, 2)[rev] = \
        leaves.reshape(1 << k, 1 << switch, B)
    return dest


def _genie_leaf_llrs(lam: np.ndarray) -> np.ndarray:
    """Decision-point LLRs of B genie-aided SC decoders, (n, B).

    lam is the (n, B) position-major channel LLRs, all finite, and is
    overwritten.  Every decision is forced to 0, the bit construction
    sends.  f and g are the SC kernel's finite ones, with the same
    operations in the same order, so each leaf LLR is byte-equal to the one
    a successive decoder holds at that leaf's decision.
    """
    n, B = lam.shape
    leaves, spare, switch = _butterfly(lam, np.empty_like(lam), np.empty(n * B), 0)
    return _to_natural(leaves, spare, switch)


# The first levels of the butterfly are tabulated.  BSC channel LLRs are
# +-L0, and element t of a depth-d node depends on the channel LLRs at
# t + i * (n >> d), i < 2^d, alone, so level d holds one of 2^(2^d) values
# per node: a table of 8 x 256 floats at d = 3.
_TABLE_LEVELS = 3


def _genie_table(n: int, llr0: float) -> np.ndarray:
    # (2^d, 2^(2^d)): column p holds level d's LLRs for the pattern whose
    # channel i is flipped where bit i of p is set, d = min(3, log2 n)
    d = min(_TABLE_LEVELS, n.bit_length() - 1)
    bits = (np.arange(1 << (1 << d)) >> np.arange(1 << d)[:, None]) & 1
    return _genie_leaf_llrs(llr0 * (1.0 - 2.0 * bits))


def _h2_of_llr(llr: np.ndarray, scratch: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # Binary entropy of sigmoid(llr), evaluated directly from the LLR so the
    # deeply polarized tail keeps precision far below the 1e-16 that a
    # probability round-trip would allow:
    #   (log1p(et) + t * et / (1 + et)) / ln 2,  t = |llr|, et = exp(-t).
    # Overwrites llr with the result, scratch (same shape) with log1p(et)
    # and tmp (same shape) with 1 + et.
    t = np.abs(llr, out=llr)
    et = np.exp(np.negative(t, out=scratch), out=scratch)
    np.multiply(t, et, out=t)
    np.divide(t, np.add(1.0, et, out=tmp), out=t)
    np.add(np.log1p(et, out=et), t, out=t)
    return np.divide(t, _LN2, out=t)


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


def _genie_block(n: int, delta: float, seed: int, table: np.ndarray,
                 start: int, c: int) -> np.ndarray:
    # h2 of the genie posteriors of samples start .. start + c - 1, as a new
    # (c, n) array
    rows, cur, sd = np.empty((3, n * c))
    rows = rows.reshape(c, n)
    for i, row in enumerate(rows):
        np.random.default_rng([seed, start + i]).random(n, out=row)
    # level d from the table: each (node offset, sample) packs the flips of
    # its 2^d channels, at stride n >> d, into a pattern index; at most 8
    # distinct bits, so the sum is exact in uint8
    d = table.shape[0].bit_length() - 1
    flips = (rows < delta).reshape(c, 1 << d, n >> d).view(np.uint8)
    pattern = np.einsum("ckt,k->tc", flips, 1 << np.arange(1 << d, dtype=np.uint8))
    pattern = pattern.astype(np.intp, order="C")
    cur = cur.reshape(n, c)
    for level, llrs in zip(cur.reshape(1 << d, n >> d, c), table):
        np.take(llrs, pattern, out=level, mode="clip")
    # the noise rows are spent: they serve as the second level buffer
    leaves, _, switch = _butterfly(cur, rows.reshape(n, c), sd, d)
    h = np.empty((c, n))
    _to_natural(leaves, h.T, switch)
    return _h2_of_llr(h, leaves.reshape(c, n), sd.reshape(c, n))


def _in_order(genie, samples: int, block: int):
    # genie(start, count) of each block of samples, in index order.  Several
    # blocks run on one thread per CPU, through a window that submits at
    # most 2 x workers blocks ahead of the one the caller is summing: the
    # results waiting to be summed stay bounded, and the workers stay busy
    # while the caller sums.  A single block runs inline.
    if samples <= block:
        yield genie(0, samples)
        return
    # imported here: concurrent.futures pulls in logging, ~5 ms that
    # every import of this module would pay otherwise
    from concurrent.futures import ThreadPoolExecutor
    workers = _workers()
    with ThreadPoolExecutor(workers) as pool:
        ahead = collections.deque()
        for start in range(0, samples, block):
            ahead.append(pool.submit(genie, start, min(block, samples - start)))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def equivocation_stats(n: int, delta: float, samples: int = 1000,
                       seed: int = 0) -> EquivocationStats:
    """Estimate all n bit-channel equivocations for the BSC(delta) design.

    Sends the all-zero codeword through samples independent BSC draws and
    averages h2 of the genie-aided posteriors.  Sample sigma draws its
    noise from an RNG stream keyed by (seed, sigma).  Samples run in
    cache-sized blocks spread over threads, and the sums run sample by
    sample in index order on the calling thread, so the result is
    bit-identical whatever the block size or worker count.
    """
    if not _is_pow2(n):
        raise ValueError(f"block length must be a power of two, got {n}")
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"design crossover must lie in [0, 1/2], got {delta}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if delta == 0.0:
        return EquivocationStats(np.zeros(n), 0.0, 0.0, samples)

    table = _genie_table(n, math.log((1.0 - delta) / delta))
    genie = partial(_genie_block, n, delta, seed, table)
    eq_sum = np.zeros(n, dtype=np.float64)
    tot_sum = 0.0
    tot_sq = 0.0
    for h in _in_order(genie, samples, max(1, _BLOCK_FLOATS // n)):
        # sample by sample, so the sums cannot depend on blocks or threads
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


def format_equivocations_csv(equivocations, meta: dict) -> str:
    """An equivocation vector as CSV text with '# key=value' provenance lines."""
    eq = np.asarray(equivocations, dtype=np.float64)
    lines = [f"# {key}={val}" for key, val in meta.items()]
    lines.append("index,equivocation")
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(eq)]
    return "\n".join(lines) + "\n"


def read_equivocations_csv(path: str) -> np.ndarray:
    """Read back an equivocation vector written from format_equivocations_csv."""
    with open(path) as fh:
        text = fh.read()
    values: list[float] = []
    for row, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("index"):
            continue
        try:
            idx, val = line.split(",")
            idx, val = int(idx), float(val)
        except ValueError:
            raise ValueError(f"{path} row {row}: expected 'index,equivocation', "
                             f"got {line!r}") from None
        if idx != len(values):
            raise ValueError(f"row index {idx} out of order")
        values.append(val)
    if not values:
        raise ValueError("no equivocation rows found")
    return np.asarray(values, dtype=np.float64)
