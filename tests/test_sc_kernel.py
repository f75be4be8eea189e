"""The SC kernel against the plain recursive reference decoder.

tests/sc_oracle.py keeps the recursive, allocate-per-node kernel.  The
buffered, rate-0-pruned kernel in genoweave.polar must agree with it byte
for byte on decisions and partial sums, and the level-by-level genie
butterfly on leaf LLRs and the Monte-Carlo equivocation statistics built
on them, however construction is blocked and threaded.
"""

import gc
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import sc_oracle
from genoweave import polar, weave
from genoweave.channels import ChannelSpec, apply_channel_pool
from genoweave.polar import (
    design_polar_code,
    equivocation_stats,
    make_polar_code,
    sc_decode_batch,
)

L0 = math.log(99.0)
SIZES = [1 << m for m in range(9)]


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _code_with_info(n, info):
    eq = np.ones(n)
    eq[info] = 0.0
    return make_polar_code(n, 0.01, eq)


def _codes(n, rng):
    # k = 0, k = n and a random info set of every size in between
    yield _code_with_info(n, [])
    yield _code_with_info(n, np.arange(n))
    for _ in range(2):
        k = int(rng.integers(0, n + 1))
        yield _code_with_info(n, np.sort(rng.choice(n, size=k, replace=False)))


def _llr_batches(n, B, rng):
    yield rng.choice([L0, -L0, 0.0], size=(B, n))  # BSC symbols and erasures
    yield rng.normal(scale=4.0, size=(B, n))


def _check_oracle(lam, code):
    u, x = sc_decode_batch(lam, code)
    want_u, want_x = sc_oracle._sc_batch(lam.copy(), code.frozen_mask)
    _same(u, want_u)
    _same(x, want_x)


@pytest.mark.parametrize("B", [1, 7, 256])
@pytest.mark.parametrize("n", SIZES)
def test_decode_matches_oracle(n, B):
    rng = np.random.default_rng(1000 * n + B)
    for code in _codes(n, rng):
        for lam in _llr_batches(n, B, rng):
            _check_oracle(lam, code)


def test_decode_matches_oracle_at_simulate_shape():
    # the width and code simulate decodes at: 256 strands, 256 pools, a delta=1%
    # design; once row by row and once as the (B, n) view of position-major
    # LLRs that the pool decoder passes
    code = design_polar_code(256, 0.01)
    rng = np.random.default_rng(48)
    lam = rng.choice([L0, -L0, 0.0], p=[0.97, 0.01, 0.02], size=(256, 256))
    _check_oracle(lam, code)
    _check_oracle(np.ascontiguousarray(lam.T).T, code)


@pytest.mark.parametrize("B", [1, 7, 256])
def test_negative_zero_llrs_decode_as_the_oracle(B):
    # A leaf decides by its LLR's sign bit, which -0.0 has set, while the
    # oracle decides np.less(llr, 0), which is False for -0.0.  The kernel
    # maps -0.0 to +0.0 on the way in.
    rng = np.random.default_rng(47 + B)
    for code in _codes(64, rng):
        lam = rng.choice([L0, -L0, 0.0, -0.0], size=(B, 64))
        assert np.signbit(lam[lam == 0]).any()
        _check_oracle(lam, code)
    u, x = sc_decode_batch(np.full((B, 1), -0.0), _code_with_info(1, [0]))
    assert not u.any() and not x.any()


def test_f_and_g_make_no_negative_zero():
    # The sign-bit leaf is exact only if no -0.0 reaches it.  Channel LLRs are
    # +-L0 and +0.0; f and g, applied level after level, must never make -0.0
    # from them.
    seeds = np.array([L0, -L0, 0.0])
    vals = seeds
    rng = np.random.default_rng(46)
    for _ in range(4):
        a, b = (v.ravel() for v in np.meshgrid(vals, vals))
        out, sd = np.empty((4, a.size)), np.empty((2, a.size))
        polar._run(polar._boxplus(a, b, out[0], sd))
        polar._run(polar._gfun(a, b, None, out[1], sd))
        for mask, row in ((np.uint64(0), out[2]), (polar._SIGN, out[3])):
            polar._run(polar._gfun(a, b, np.full(a.size, mask), row, sd))
        assert not np.signbit(out[out == 0]).any()
        # the next level's inputs: the seeds and a sample of this level's outputs
        vals = np.unique(np.concatenate([seeds, rng.choice(out.ravel(), 40)]))


def test_a_leaf_is_one_call_and_g_two():
    # n=2 with both bits free: f, the left leaf, g, the right leaf and the
    # XOR that combines x
    plan = polar._SCPlan(None, np.zeros(2, bool), 1)
    assert len(plan.f_steps[0]) == 9
    assert [fn for fn, _ in plan.steps[9:]] == [np.bitwise_and, np.bitwise_xor, np.add,
                                               np.bitwise_and, np.bitwise_xor]


# up to n=256 at three widths, and past it where the butterfly switches to
# [offset][node][sample] order at levels 4, 5 and 6 and permutes back
@pytest.mark.parametrize("n, B", [(n, B) for n in SIZES for B in (1, 7, 256)]
                         + [(n, B) for n in (512, 1024, 4096) for B in (1, 7)])
def test_genie_leaf_llrs_match_oracle(n, B):
    # the level-by-level butterfly against the successive decoder's leaves
    rng = np.random.default_rng(2000 * n + B)
    forced = np.zeros((B, n), np.uint8)
    for lam in _llr_batches(n, B, rng):
        want = np.empty((B, n))
        sc_oracle._sc_batch(lam.copy(), None, forced=forced, leaf_llrs=want)
        leaf = polar._genie_leaf_llrs(lam.T.copy())
        _same(np.ascontiguousarray(leaf.T), want)


@pytest.mark.parametrize("kind, delta, mode", [("deletion", 0.01, "push"),
                                               ("insertion", 0.1, "pull")])
def test_pool_decode_llrs_match_oracle(monkeypatch, kind, delta, mode):
    # every position's LLRs as the pool decoder builds them, offsets included
    code = design_polar_code(256, 0.01, samples=1000, seed=0)
    rng = np.random.default_rng(7)
    obs = []
    for _ in range(8):
        info = rng.integers(0, 2, size=(64, code.k), dtype=np.uint8)
        strands = weave.weave_encode(info, code).strands
        obs.append(apply_channel_pool(strands, ChannelSpec(kind, delta), rng)[0])
    calls = []

    def checked(lam, c):
        got = sc_decode_batch(lam, c)
        want = sc_oracle._sc_batch(np.array(lam), c.frozen_mask)
        _same(got[0], want[0])
        _same(got[1], want[1])
        calls.append(1)
        return got

    monkeypatch.setattr(weave, "sc_decode_batch", checked)
    weave.decode_pool_batch(np.stack(obs), code, mode, 64)
    assert len(calls) == 64


def _same_stats(got, want):
    _same(got.equivocations, want.equivocations)
    assert got.total_mean == want.total_mean
    assert got.total_se == want.total_se


def _match_oracle(monkeypatch, n, delta, samples, block, workers=None):
    # block: samples per construction block, None for the default size
    if block is not None:
        monkeypatch.setattr(polar, "_BLOCK_FLOATS", block * n)
    if workers is not None:
        monkeypatch.setattr(polar, "_workers", lambda: workers)
    got = equivocation_stats(n, delta, samples=samples, seed=3)
    want = sc_oracle.equivocation_stats(n, delta, samples=samples, seed=3)
    _same_stats(got, want)


@pytest.mark.parametrize("delta, samples, block", [(0.05, 300, None), (0.01, 200, 64),
                                                   (0.5, 50, 7)])
def test_equivocation_stats_match_oracle(monkeypatch, delta, samples, block):
    _match_oracle(monkeypatch, 64, delta, samples, block)


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("block", [1, 3, 7, None])
def test_equivocation_stats_match_oracle_across_blocks_and_workers(monkeypatch, block, workers):
    # one worker, or more workers than cores; the default block holds all
    # 100 samples and runs inline
    _match_oracle(monkeypatch, 64, 0.05, 100, block, workers)


@pytest.mark.parametrize("block", [None, 7])
def test_equivocation_stats_match_oracle_at_n4096(monkeypatch, block):
    # the production shape: default blocks of 32 and 8 samples, or six
    # blocks of 7 through the window, all on threads
    _match_oracle(monkeypatch, 4096, 0.01, 40, block)


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("delta", [0.11, 0.3, 0.5])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 1024])
def test_equivocation_stats_match_oracle_across_table_and_switch(monkeypatch, n, delta, block):
    # the first min(3, log2 n) levels come from a table of every sign
    # pattern, all of the table when n <= 8; the rest run in natural order
    # up to level log2(n) // 2 and in [offset][node][sample] order after it
    _match_oracle(monkeypatch, n, delta, 40, block)


def _run_joined(fn):
    # fn() on a thread of its own, so a hang fails the test instead of the run
    got = []
    worker = threading.Thread(target=lambda: got.append(fn()), daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "construction did not finish"
    assert got, "construction raised"
    return got[0]


def test_threaded_construction_matches_oracle_under_stress(monkeypatch):
    # more workers than cores, blocks of a few samples and a thread switch
    # every microsecond: a lost or reordered block would change the sums
    monkeypatch.setattr(polar, "_workers", lambda: 8)
    want = sc_oracle.equivocation_stats(64, 0.05, samples=200, seed=11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for block in (3, 7, 50):
            monkeypatch.setattr(polar, "_BLOCK_FLOATS", block * 64)
            _same_stats(_run_joined(lambda: equivocation_stats(64, 0.05, samples=200, seed=11)),
                        want)
    finally:
        sys.setswitchinterval(interval)


def test_construction_window_bounds_blocks_ahead_of_the_sums(monkeypatch):
    # two workers, one-sample blocks and a caller that sums each block 5 ms
    # late: no block may start more than 2 x workers blocks after the block
    # being summed, however far the workers could otherwise run ahead
    workers, samples = 2, 64
    monkeypatch.setattr(polar, "_workers", lambda: workers)
    monkeypatch.setattr(polar, "_BLOCK_FLOATS", 64)
    genie_block = polar._genie_block
    started, leads = [], []

    class SlowRows:
        # a block's rows, which equivocation_stats iterates to sum them
        def __init__(self, start, rows):
            self.start, self.rows = start, rows

        def __iter__(self):
            time.sleep(0.005)
            leads.append(max(started) - self.start)
            return iter(self.rows)

    def traced(n, delta, seed, table, start, c):
        started.append(start)
        return SlowRows(start, genie_block(n, delta, seed, table, start, c))

    monkeypatch.setattr(polar, "_genie_block", traced)
    got = _run_joined(lambda: equivocation_stats(64, 0.05, samples=samples, seed=11))
    assert len(leads) == samples
    assert max(leads) <= 2 * workers, f"a block started {max(leads)} blocks ahead of the sums"
    _same_stats(got, sc_oracle.equivocation_stats(64, 0.05, samples=samples, seed=11))


def test_rate1_node_keeps_sc_tie_rule():
    # From a deletion decode: g leaves a residual of 8.9e-16 that SC's exact f
    # rounds to an LLR of 0, which decodes u0 = 0 and so x = (1, 1); a hard
    # decision on the node LLRs would give x = (0, 1).
    code = _code_with_info(2, [0, 1])
    u, x = sc_decode_batch([[8.881784197001252e-16, -35.5539919]], code)
    assert u.tolist() == [[0, 1]]
    assert x.tolist() == [[1, 1]]


def test_plans_carry_no_state_between_calls():
    # codes that share n and B but not their mask, each decoded twice in a
    # row and alternated.  At n=4 with info set [0, 3] the root XOR writes
    # x[1], a slot of the rate-0 leaf 1 that no later step resets.
    rng = np.random.default_rng(41)
    for n, B in ((4, 7), (16, 7), (64, 5)):
        codes = [_code_with_info(n, []), _code_with_info(n, np.arange(n)),
                 _code_with_info(n, np.sort(rng.choice(n, size=n // 2, replace=False)))]
        if n == 4:
            codes.append(_code_with_info(4, [0, 3]))
        for _ in range(3):
            for code in codes:
                for _ in range(2):
                    _check_oracle(rng.normal(scale=4.0, size=(B, n)), code)
                    _check_oracle(rng.choice([L0, -L0, 0.0], size=(B, n)), code)


def test_results_do_not_alias_the_workspace():
    code = _code_with_info(16, [3, 7, 11, 12, 13, 14, 15])
    rng = np.random.default_rng(42)
    u1, x1 = sc_decode_batch(rng.normal(scale=4.0, size=(5, 16)), code)
    kept = u1.copy(), x1.copy()
    u2, x2 = sc_decode_batch(rng.normal(scale=4.0, size=(5, 16)), code)
    _same(u1, kept[0])
    _same(x1, kept[1])
    for a in (u1, x1):
        for b in (u2, x2):
            assert not np.shares_memory(a, b)


def test_threads_decode_bit_identically_under_stress():
    # each thread cycles through its own codes and widths, so every thread
    # rebuilds and reruns plans while the others do; a shared workspace
    # would mix their results
    rng = np.random.default_rng(43)
    jobs = []
    for n, B in ((4, 7), (16, 1), (64, 3), (64, 9), (256, 2)):
        code = _code_with_info(n, np.sort(rng.choice(n, size=n // 2, replace=False)))
        lam = rng.normal(scale=4.0, size=(B, n))
        jobs.append((code, lam, sc_oracle._sc_batch(lam.copy(), code.frozen_mask)))
    mismatches, done = [], []

    def decode(order):
        for _ in range(20):
            for code, lam, (want_u, want_x) in (jobs[i] for i in order):
                u, x = sc_decode_batch(lam, code)
                if u.tobytes() != want_u.tobytes() or x.tobytes() != want_x.tobytes():
                    mismatches.append(code.n)
        done.append(1)

    threads = [threading.Thread(target=decode, args=(np.roll(np.arange(len(jobs)), t),),
                                daemon=True) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "decoding did not finish"
    finally:
        sys.setswitchinterval(interval)
    assert len(done) == 4
    assert mismatches == []


def test_g_on_sign_masks_is_exact():
    # partial sums are uint64 masks, bit 63 for a 1: g must give b - a where
    # the mask is set and b + a elsewhere, byte for byte
    rng = np.random.default_rng(45)
    a, b = rng.choice([L0, -L0, 0.0, 2.5, -7.25, np.pi], size=(2, 6, 5))
    bits = rng.integers(0, 2, size=(6, 5), dtype=np.uint64)
    out, sd = np.empty((6, 5)), np.empty((2, 6, 5))
    polar._run(polar._gfun(a, b, bits << np.uint64(63), out, sd))
    _same(out, np.where(bits == 1, b - a, b + a))


def test_a_new_plan_frees_the_previous_one():
    # each thread keeps one plan; the one it replaces is freed by reference
    # counting, so a stream of codes never holds more than one workspace
    rng = np.random.default_rng(44)
    lam = rng.normal(scale=4.0, size=(3, 16))
    gc.collect()
    gc.disable()
    try:
        sc_decode_batch(lam, _code_with_info(16, [5, 7, 15]))
        old = weakref.ref(polar._plans.plan.lev[0])
        sc_decode_batch(lam, _code_with_info(16, [6, 7, 15]))
        assert old() is None
    finally:
        gc.enable()


def test_kernel_leaves_no_reference_cycles():
    # a buffer held by a cycle lives until the cyclic GC runs, which shows as
    # peak memory; the kernel must free everything by reference counting
    code = design_polar_code(16, 0.1, samples=20, seed=1)
    lam = np.random.default_rng(0).normal(size=(4, 16))
    gc.collect()
    gc.disable()
    try:
        sc_decode_batch(lam, code)
        equivocation_stats(16, 0.1, samples=8, seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()
