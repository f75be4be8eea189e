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
    yield rng.choice([np.inf, -np.inf, 0.0, L0, -L0], size=(B, n))
    # contradictory certainty: each position paired with its opposite sign
    lam = rng.choice([np.inf, -np.inf], size=(B, n))
    if n > 1:
        lam[:, n // 2:] = -lam[:, :n // 2]
    yield lam


@pytest.mark.parametrize("B", [1, 7, 256])
@pytest.mark.parametrize("n", SIZES)
def test_decode_matches_oracle(n, B):
    rng = np.random.default_rng(1000 * n + B)
    for code in _codes(n, rng):
        for lam in _llr_batches(n, B, rng):
            u, x = sc_decode_batch(lam, code)
            want_u, want_x = sc_oracle._sc_batch(lam.copy(), code.frozen_mask)
            _same(u, want_u)
            _same(x, want_x)


@pytest.mark.parametrize("B", [1, 7, 256])
@pytest.mark.parametrize("n", SIZES)
def test_genie_leaf_llrs_match_oracle(n, B):
    # the level-by-level butterfly against the successive decoder's leaves
    rng = np.random.default_rng(2000 * n + B)
    for lam in _llr_batches(n, B, rng):
        for forced in (np.zeros((B, n), np.uint8), rng.integers(0, 2, (B, n), dtype=np.uint8)):
            want = np.empty((B, n))
            sc_oracle._sc_batch(lam.copy(), None, forced=forced, leaf_llrs=want)
            leaf = polar._genie_leaf_llrs(lam.T.copy(), np.ascontiguousarray(forced.T))
            _same(np.ascontiguousarray(leaf.T), want)
            if not forced.any():
                leaf = polar._genie_leaf_llrs(lam.T.copy(), None)
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


def _match_oracle(n, delta, samples, batch_size):
    got = equivocation_stats(n, delta, samples=samples, seed=3, batch_size=batch_size)
    want = sc_oracle.equivocation_stats(n, delta, samples=samples, seed=3,
                                        batch_size=batch_size)
    _same_stats(got, want)


@pytest.mark.parametrize("delta, samples, batch_size", [(0.05, 300, None), (0.01, 200, 64),
                                                        (0.5, 50, 7)])
def test_equivocation_stats_match_oracle(delta, samples, batch_size):
    _match_oracle(64, delta, samples, batch_size)


@pytest.mark.parametrize("batch_size", [None, 7])
def test_equivocation_stats_match_oracle_at_n4096(batch_size):
    # the production shape; the default chunk holds blocks of 32 and 8 samples,
    # which run on threads, and chunks of 7 run inline
    _match_oracle(4096, 0.01, 40, batch_size)


def test_threaded_construction_matches_oracle_under_stress(monkeypatch):
    # more workers than cores, blocks of 3 samples and a thread switch every
    # microsecond: a lost or reordered block would change the sums
    monkeypatch.setattr(polar, "_workers", lambda: 8)
    monkeypatch.setattr(polar, "_BLOCK_FLOATS", 3 * 64)
    want = sc_oracle.equivocation_stats(64, 0.05, samples=200, seed=11, batch_size=50)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for batch_size in (None, 50, 7):
            worker = threading.Thread(target=lambda bs=batch_size: got.append(
                equivocation_stats(64, 0.05, samples=200, seed=11, batch_size=bs)), daemon=True)
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive(), "construction did not finish"
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 3
    for stats in got:
        _same_stats(stats, want)


def test_rate1_node_keeps_sc_tie_rule():
    # From a deletion decode: g leaves a residual of 8.9e-16 that SC's exact f
    # rounds to an LLR of 0, which decodes u0 = 0 and so x = (1, 1); a hard
    # decision on the node LLRs would give x = (0, 1).
    code = _code_with_info(2, [0, 1])
    u, x = sc_decode_batch([[8.881784197001252e-16, -35.5539919]], code)
    assert u.tolist() == [[0, 1]]
    assert x.tolist() == [[1, 1]]


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
