"""Pool encoding and the push/pull resynchronizing decoder."""

import itertools
import math
import re

import numpy as np
import pytest
import sc_oracle

from genoweave import polar
from genoweave.channels import (
    ERASURE,
    bsc_pool,
    delete_pool,
    delete_pool_coincident,
    insert_pool,
)
from genoweave.polar import design_polar_code, make_polar_code, polar_transform
from genoweave.weave import CERTAIN_LLR, _llr_table, decode_pool_batch, weave_encode


def _full_rate_code(n):
    return make_polar_code(n, 0.01, np.zeros(n))


def _random_info(rng, length, code):
    return rng.integers(0, 2, size=(length, code.k), dtype=np.uint8)


def _received(rows, mode, ell):
    """One pool's observation matrix: raw strands, erasure-padded to the decoder width."""
    width = 2 * ell if mode == "pull" else ell
    obs = np.full((len(rows), max(width, *map(len, rows))), ERASURE, dtype=np.uint8)
    for s, row in enumerate(rows):
        obs[s, :len(row)] = row
    return obs


def _decode(rows, code, mode, ell=None, trace=False):
    """Decode one pool of raw strands; returns (info_bits, offsets, offset_history)."""
    ell = len(rows[0]) if ell is None else ell
    res = decode_pool_batch(_received(rows, mode, ell)[None], code, mode, ell, trace=trace)
    history = res.offset_history[0] if trace else None
    return res.info_bits[0], res.offsets[0], history


# ---------------------------------------------------------------------------
# encoding


def test_encode_full_rate_columns_are_transforms():
    code = _full_rate_code(4)
    for bits in itertools.product((0, 1), repeat=4):
        info = np.array([bits], dtype=np.uint8)       # one position
        pool = weave_encode(info, code)
        assert pool.strands.shape == (4, 1)
        assert (pool.strands[:, 0] == polar_transform(info[0])).all()


def test_encode_all_zero_is_all_zero():
    code = design_polar_code(16, 0.05, samples=100, seed=0)
    pool = weave_encode(np.zeros((9, code.k), dtype=np.uint8), code)
    assert not pool.strands.any()


def test_encode_frozen_constraints_hold_per_column():
    code = design_polar_code(32, 0.05, samples=200, seed=1)
    rng = np.random.default_rng(2)
    info = _random_info(rng, 20, code)
    pool = weave_encode(info, code)
    strands = pool.strands
    assert strands.dtype == np.uint8 and strands.shape == (32, 20)
    assert strands.flags.c_contiguous and not strands.flags.writeable
    # invert each column; frozen positions must carry 0
    u = polar_transform(pool.strands.T)
    assert not u[:, code.frozen_mask].any()
    assert (u[:, code.info_set] == info).all()


def test_encode_rejects_wrong_width():
    code = design_polar_code(16, 0.05, samples=100, seed=0)
    with pytest.raises(ValueError):
        weave_encode(np.zeros((4, code.k + 1), dtype=np.uint8), code)


# ---------------------------------------------------------------------------
# the decoder's LLR model


def test_llr_known_value():
    assert _llr_table(0.01)[0] == pytest.approx(math.log(99.0), rel=1e-14)


def test_llr_sign_symmetry_and_erasure():
    for delta in (0.001, 0.01, 0.1, 0.4999):
        t = _llr_table(delta)
        assert t[0] == -t[1]
        assert t[ERASURE] == 0.0
    assert _llr_table(0.4999)[0] == pytest.approx(0.0, abs=1e-3)


def test_llr_table_layout():
    t = _llr_table(0.01)
    assert t.tolist() == [math.log(0.99 / 0.01), -math.log(0.99 / 0.01), 0.0]


def test_llr_of_a_subnormal_rate_is_finite():
    # (1 - delta) / delta overflows below delta ~ 5.6e-309; the model must not,
    # and wherever the ratio is finite it keeps the ratio's bits
    for delta in (1e-320, 5e-324):
        assert _llr_table(delta)[0] == math.log1p(-delta) - math.log(delta) < 745.0
    for delta in (1e-300, 0.001, 0.1, 0.4999):
        assert _llr_table(delta)[0] == math.log((1.0 - delta) / delta)


def test_llr_noiseless_design_is_certain():
    assert _llr_table(0.0).tolist() == [CERTAIN_LLR, -CERTAIN_LLR, 0.0]


def test_llr_rejects_out_of_domain():
    for bad in (0.5, 0.7, -0.1, math.nan):
        with pytest.raises(ValueError):
            _llr_table(bad)


def test_decoding_a_half_crossover_design_raises():
    # a PolarCode takes design_delta = 1/2, but BSC(1/2) carries no
    # information, so the decoder has no LLR model for it
    code = make_polar_code(4, 0.5, np.zeros(4))
    with pytest.raises(ValueError, match="crossover"):
        decode_pool_batch(np.zeros((1, 4, 4), dtype=np.uint8), code, "fixed", 4)


def test_symbols_to_llrs_vectorized():
    # the decoder maps observed symbols of any shape through the table
    sym = np.array([[0, 1], [ERASURE, 0]], dtype=np.uint8)
    out = _llr_table(0.1)[sym]
    assert out.shape == (2, 2)
    assert out[0, 0] == _llr_table(0.1)[0] == -out[0, 1]
    assert out[1, 0] == 0.0


# ---------------------------------------------------------------------------
# noiseless roundtrips


def test_roundtrip_noiseless_exhaustive_n4():
    code = _full_rate_code(4)
    for bits in itertools.product((0, 1), repeat=8):
        info = np.array(bits, dtype=np.uint8).reshape(2, 4)
        pool = weave_encode(info, code)
        for mode in ("push", "pull", "fixed"):
            info_bits, offsets, _ = _decode(pool.strands, code, mode)
            assert (info_bits == info).all()
            assert not offsets.any()


def test_roundtrip_noiseless_randomized_n256():
    code = design_polar_code(256, 0.01, samples=300, seed=3)
    rng = np.random.default_rng(4)
    info = _random_info(rng, 64, code)
    pool = weave_encode(info, code)
    for mode in ("push", "pull"):
        info_bits, offsets, _ = _decode(pool.strands, code, mode)
        assert (info_bits == info).all()
        assert not offsets.any()


# ---------------------------------------------------------------------------
# noiseless design: a delta = 0 code decodes with a finite certainty LLR

_NOISELESS = {"deletion": ("push", delete_pool), "insertion": ("pull", insert_pool),
              "substitution": ("fixed", bsc_pool), "quaternary": ("push", None)}


def _noiseless_decode(code, kind, rng, length=256):
    # one pool of the kind through its channel at rate 0, decoded as simulate
    # --delta 0 does; a quaternary pool is its two components in one batch
    mode, channel = _NOISELESS[kind]
    info = np.stack([_random_info(rng, length, code)
                     for _ in range(2 if kind == "quaternary" else 1)])
    strands = [weave_encode(part, code).strands for part in info]
    if kind == "quaternary":
        obs = [o for o, _ in delete_pool_coincident(*strands, 0.0, rng)]
    else:
        obs = [channel(strands[0], 0.0, rng)[0]]
    res = decode_pool_batch(np.stack(obs), code, mode, length, trace=True)
    assert (res.info_bits == info).all()
    assert not res.offset_history.any() and not res.offsets.any()


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("kind", list(_NOISELESS))
def test_noiseless_design_decodes_every_kind_exactly(n, frozen, kind):
    # full rate, and the frozen positions of a 1% design that simulate --delta
    # 0 --code FILE decodes with; every f on the all-f path of the tree takes
    # about ln 2 off the certainty LLR, log2(n) times
    eq = design_polar_code(n, 0.01, samples=64, seed=5).equivocations if frozen else np.zeros(n)
    code = make_polar_code(n, 0.0, eq)
    assert code.k == n or 0 < code.k < n
    _noiseless_decode(code, kind, np.random.default_rng([n, frozen]))


def test_noiseless_design_decodes_a_deletion_pool_at_n4096():
    _noiseless_decode(make_polar_code(4096, 0.0, np.zeros(4096)), "deletion",
                      np.random.default_rng(4096))


def _all_f(llr, levels):
    # the kernel's f on (a, a), level after level: the LLRs down the all-f
    # path of a tree of depth levels whose channel LLRs all equal llr
    a, out, sd = np.array([llr]), np.empty(1), np.empty((2, 1))
    path = []
    for _ in range(levels):
        polar._run(polar._boxplus(a, a, out, sd))
        a = out.copy()
        path.append(float(a[0]))
    return path


def test_certain_llr_stays_certain_at_every_block_length():
    # 63 levels is past any n an int64 index reaches.  f(a, a) is
    # a - ln 2 + log1p(exp(-2a)), within 1e-5 of L - m ln 2 over the path.
    path = _all_f(CERTAIN_LLR, 63)
    for m, a in enumerate(path, 1):
        assert a == pytest.approx(CERTAIN_LLR - m * math.log(2), abs=1e-5)
    assert path[-1] > 6.0
    # a certainty LLR of 1 reaches 0 at depth 6, and would fail every pool
    # from n = 64 up
    assert _all_f(1.0, 6)[-1] == 0.0


# ---------------------------------------------------------------------------
# push: deletion resynchronization


def _first_mismatch_after_deletion(strand_bits, q):
    # deleting position q makes the decoder first notice at the earliest
    # p >= q whose next true symbol differs from the current one
    for p in range(q, len(strand_bits) - 1):
        if strand_bits[p + 1] != strand_bits[p]:
            return p
    return None


def test_push_single_deletion_trace_matches_prediction():
    code = design_polar_code(128, 0.01, samples=500, seed=7)
    rng = np.random.default_rng(8)
    ell, victim, q = 64, 98, 9
    info = _random_info(rng, ell, code)
    pool = weave_encode(info, code)
    p_star = _first_mismatch_after_deletion(pool.strands[victim].tolist(), q)
    assert p_star is not None, "degenerate plant; pick another seed"

    received = list(pool.strands)
    received[victim] = np.delete(pool.strands[victim], q)
    info_bits, offsets, history = _decode(received, code, "push", ell, trace=True)

    assert (info_bits == info).all()
    # only the victim accumulated an offset, exactly one
    assert offsets[victim] == 1
    assert offsets.sum() == 1
    # history holds offsets entering each position: the bump lands after p*
    hist = history[:, victim]
    assert (hist[: p_star + 1] == 0).all()
    assert (hist[p_star + 1:] == 1).all()
    # the contradicting observation is consumed again one position later
    read_idx = np.arange(ell) - hist
    assert read_idx[p_star + 1] == read_idx[p_star] == p_star


def test_push_deletion_in_constant_run_is_invisible():
    # deleting inside a run only shortens the tail; no offset is ever needed
    code = design_polar_code(64, 0.01, samples=300, seed=9)
    info = np.zeros((32, code.k), dtype=np.uint8)
    pool = weave_encode(info, code)          # all-zero strands
    received = list(pool.strands)
    received[5] = np.delete(pool.strands[5], 10)
    info_bits, offsets, _ = _decode(received, code, "push", 32, trace=True)
    assert (info_bits == info).all()
    assert not offsets.any()


def test_push_recovers_every_deletion_position():
    code = design_polar_code(128, 0.01, samples=500, seed=7)
    rng = np.random.default_rng(10)
    ell = 32
    info = _random_info(rng, ell, code)
    pool = weave_encode(info, code)
    for q in range(0, ell, 5):
        victim = int(rng.integers(0, 128))
        received = list(pool.strands)
        received[victim] = np.delete(pool.strands[victim], q)
        info_bits, _, _ = _decode(received, code, "push", ell)
        assert (info_bits == info).all(), (victim, q)


# ---------------------------------------------------------------------------
# pull: insertion resynchronization


def test_pull_single_insertion_trace_matches_prediction():
    code = design_polar_code(128, 0.01, samples=500, seed=7)
    rng = np.random.default_rng(11)
    ell, victim, q = 64, 98, 9
    info = _random_info(rng, ell, code)
    pool = weave_encode(info, code)
    x = pool.strands[victim]
    bad = int(1 - x[q])                       # inserted bit contradicts immediately
    received = list(pool.strands)
    received[victim] = np.insert(x, q, bad)
    info_bits, offsets, history = _decode(received, code, "pull", ell, trace=True)

    assert (info_bits == info).all()
    assert offsets[victim] == 1
    assert offsets.sum() == 1
    hist = history[:, victim]
    assert (hist[: q + 1] == 0).all()
    assert (hist[q + 1:] == 1).all()
    # pull skips the bad observation instead of re-reading it
    read_idx = np.arange(ell) + hist
    assert read_idx[q] == q and read_idx[q + 1] == q + 2


def test_pull_recovers_every_insertion_position():
    code = design_polar_code(128, 0.01, samples=500, seed=7)
    rng = np.random.default_rng(12)
    ell = 32
    info = _random_info(rng, ell, code)
    pool = weave_encode(info, code)
    for q in range(0, ell + 1, 5):
        victim = int(rng.integers(0, 128))
        received = list(pool.strands)
        received[victim] = np.insert(pool.strands[victim], q,
                                     int(rng.integers(0, 2)))
        info_bits, _, _ = _decode(received, code, "pull", ell)
        assert (info_bits == info).all(), (victim, q)


# ---------------------------------------------------------------------------
# fixed mode and offset invariants


def test_fixed_mode_decodes_light_substitution_noise():
    code = design_polar_code(256, 0.01, samples=500, seed=13)
    rng = np.random.default_rng(14)
    info = _random_info(rng, 32, code)
    pool = weave_encode(info, code)
    noisy, _ = bsc_pool(pool.strands, 0.01, rng)
    info_bits, offsets, _ = _decode(noisy, code, "fixed", trace=True)
    assert (info_bits == info).all()
    assert not offsets.any()                  # fixed mode never moves


def test_offsets_nondecreasing_and_bounded():
    code = design_polar_code(64, 0.05, samples=300, seed=15)
    rng = np.random.default_rng(16)
    info = _random_info(rng, 48, code)
    pool = weave_encode(info, code)
    obs, _ = delete_pool(pool.strands, 0.05, rng)
    res = decode_pool_batch(obs[None], code, "push", 48, trace=True)
    hist = res.offset_history[0]
    diffs = np.diff(hist, axis=0)
    assert diffs.min() >= 0 and diffs.max() <= 1
    assert (hist <= np.arange(48)[:, None]).all()


@pytest.mark.parametrize("mode, channel", [("push", delete_pool), ("pull", insert_pool)])
def test_heavy_indels_keep_every_read_inside_its_strand(mode, channel):
    # decode_pool_batch has no per-position window check: an offset grows by
    # at most 1 per position, so entering position p it lies in [0, p], and
    # push reads index p - d while pull reads p + i.  At 30% indels the
    # offsets move often enough to meet that bound after the first position
    code = design_polar_code(64, 0.05, samples=300, seed=15)
    rng = np.random.default_rng(17)
    ell = 64
    obs = np.stack([channel(weave_encode(_random_info(rng, ell, code), code).strands, 0.3,
                            rng)[0] for _ in range(3)])
    hist = decode_pool_batch(obs, code, mode, ell, trace=True).offset_history
    positions = np.arange(ell)[None, :, None]
    assert (hist >= 0).all() and (hist <= positions).all()
    assert (hist[:, 1:] == positions[:, 1:]).any()


# ---------------------------------------------------------------------------
# batch front end


def _pools(rng, code, mode, W, ell):
    # W pools' observations through the mode's channel, as one C-contiguous array
    channel = {"push": lambda s: delete_pool(s, 0.05, rng),
               "pull": lambda s: insert_pool(s, 0.05, rng),
               "fixed": lambda s: bsc_pool(s, 0.02, rng)}[mode]
    return np.stack([channel(weave_encode(_random_info(rng, ell, code), code).strands)[0]
                     for _ in range(W)])


@pytest.mark.parametrize("W", [1, 7, 64])
@pytest.mark.parametrize("mode", ["push", "pull", "fixed"])
def test_position_major_view_decodes_as_contiguous_input(mode, W):
    # sim hands over a (W, n, width) view of a position-major (width, W, n)
    # buffer; the decoder must read it exactly as it reads a C-contiguous copy
    code = design_polar_code(32, 0.02, samples=200, seed=18)
    rng = np.random.default_rng(100 + W)
    ell = 24
    obs = _pools(rng, code, mode, W, ell)
    view = np.ascontiguousarray(obs.transpose(2, 0, 1)).transpose(1, 2, 0)
    assert view.shape == obs.shape and not view.flags.c_contiguous
    got = decode_pool_batch(view, code, mode, ell, trace=True)
    want = decode_pool_batch(obs, code, mode, ell, trace=True)
    for name in ("info_bits", "offsets", "offset_history"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


def test_decode_pool_batch_matches_single_decodes():
    code = design_polar_code(32, 0.02, samples=200, seed=18)
    rng = np.random.default_rng(19)
    ell, W = 24, 5
    pools, infos = [], []
    for _ in range(W):
        info = _random_info(rng, ell, code)
        infos.append(info)
        pools.append(weave_encode(info, code))
    obs = np.stack([p.strands for p in pools])
    res = decode_pool_batch(obs, code, "push", ell)
    for w in range(W):
        single, _, _ = _decode(pools[w].strands, code, "push")
        assert (res.info_bits[w] == single).all()
        assert (res.info_bits[w] == infos[w]).all()


def test_decode_pool_batch_validates_width_and_mode():
    code = _full_rate_code(4)
    obs = np.zeros((1, 4, 8), dtype=np.uint8)
    with pytest.raises(ValueError):
        decode_pool_batch(obs, code, "sideways", 8)
    with pytest.raises(ValueError):
        decode_pool_batch(obs, code, "pull", 8)    # pull needs width 16
    with pytest.raises(ValueError):
        decode_pool_batch(np.zeros((1, 8, 8), dtype=np.uint8), code, "push", 8)


def test_decode_pool_batch_rejects_unknown_symbols():
    code = _full_rate_code(4)
    with pytest.raises(ValueError, match="got 3"):
        decode_pool_batch(np.full((1, 4, 4), 3, np.uint8), code, "fixed", 4)
    with pytest.raises(ValueError, match="got -1"):
        decode_pool_batch(np.full((1, 4, 4), -1), code, "fixed", 4)


@pytest.mark.parametrize("bad", [0.5, 1.5, 1.999, np.nan])
def test_decode_pool_batch_rejects_values_a_uint8_cast_would_hide(bad):
    # the cast to uint8 would decode 0.5, 1.5 and 1.999 as 0, 1 and 1
    obs = np.zeros((1, 4, 4))
    obs[0, 2, 1] = bad
    with pytest.raises(ValueError, match=f"got {bad}"):
        decode_pool_batch(obs, _full_rate_code(4), "fixed", 4)
    # the same symbols as exact floats and as bools decode
    decode_pool_batch(np.full((1, 4, 4), 2.0), _full_rate_code(4), "fixed", 4)
    decode_pool_batch(np.ones((1, 4, 4), bool), _full_rate_code(4), "fixed", 4)


def test_decode_pool_batch_of_no_pools_is_empty():
    code = _full_rate_code(4)
    for mode, width in (("push", 8), ("pull", 16), ("fixed", 8)):
        res = decode_pool_batch(np.zeros((0, 4, width), np.uint8), code, mode, 8, trace=True)
        assert res.info_bits.shape == (0, 8, 4) and res.info_bits.dtype == np.uint8
        assert res.offsets.shape == (0, 4) and res.offset_history.shape == (0, 8, 4)
        assert decode_pool_batch(np.zeros((0, 4, width), np.uint8), code, mode,
                                 8).offset_history is None


# ---------------------------------------------------------------------------
# independent reference for the read path


def _reference_decode(obs, code, mode, length):
    """The resync decoder as a plain walk with one Python read pointer per strand.

    Shares nothing with decode_pool_batch's flat indices, clipped reads or
    LLR table.  Each symbol's LLR comes from the design crossover, each
    position decodes with the oracle SC kernel, and then each pointer moves
    past the symbol it read, except that push re-reads a contradicted symbol
    and pull skips it as well; fixed reads position p.  An erasure never
    contradicts.  A pointer that leaves its strand raises IndexError.
    Returns (info_bits, offsets, offset_history) as decode_pool_batch lays
    them out.
    """
    W, n, _ = obs.shape
    delta = code.design_delta
    certain = 50.0 if delta == 0.0 else math.log((1.0 - delta) / delta)
    llr_of = {0: certain, 1: -certain, ERASURE: 0.0}
    frozen = np.ones(n, dtype=bool)
    frozen[code.info_set] = False
    rows = obs.tolist()
    ptr = [[0] * n for _ in range(W)]

    def offsets(p):  # symbols deleted (push) or inserted (pull) before position p
        lag = {"push": lambda q: p - q, "pull": lambda q: q - p, "fixed": lambda q: 0}[mode]
        return [[lag(q) for q in strands] for strands in ptr]

    info = np.empty((W, length, code.k), dtype=np.uint8)
    history = np.empty((W, length, n), dtype=np.int64)
    for p in range(length):
        history[:, p] = offsets(p)
        if mode == "fixed":
            ptr = [[p] * n for _ in range(W)]
        read = [[rows[w][s][ptr[w][s]] for s in range(n)] for w in range(W)]
        u, x = sc_oracle._sc_batch(np.array([[llr_of[sym] for sym in r] for r in read]), frozen)
        info[:, p] = u[:, code.info_set]
        for w in range(W):
            for s in range(n):
                contradicted = read[w][s] != ERASURE and read[w][s] != x[w, s]
                if mode == "push":
                    ptr[w][s] += 0 if contradicted else 1
                elif mode == "pull":
                    ptr[w][s] += 2 if contradicted else 1
    return info, np.array(offsets(length), dtype=np.int64).reshape(W, n), history


# (design crossover, channel indel or flip rate, fraction of symbols erased)
_REFERENCE_CASES = [(0.05, 0.01, 0.0), (0.02, 0.3, 0.0), (0.0, 0.1, 0.0), (0.1, 0.3, 0.6),
                    (0.0, 0.3, 0.3)]


@pytest.mark.parametrize("W", [1, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
@pytest.mark.parametrize("mode", ["push", "pull", "fixed"])
def test_decode_pool_batch_matches_a_plain_pointer_walk(mode, n, W):
    channel = {"push": delete_pool, "pull": insert_pool, "fixed": bsc_pool}[mode]
    rng = np.random.default_rng([n, W, len(mode)])
    ell = 16
    moved = False
    for design, rate, erased in _REFERENCE_CASES:
        # a random info set: the read path must follow any code
        code = make_polar_code(n, design, rng.random(n), threshold=0.5)
        obs = np.stack([channel(weave_encode(_random_info(rng, ell, code), code).strands,
                                rate, rng)[0] for _ in range(W)])
        obs[rng.random(obs.shape) < erased] = ERASURE
        got = decode_pool_batch(obs, code, mode, ell, trace=True)
        want = _reference_decode(obs, code, mode, ell)
        for name, ref in zip(("info_bits", "offsets", "offset_history"), want):
            a = getattr(got, name)
            assert a.dtype == ref.dtype and a.shape == ref.shape, name
            assert a.tobytes() == ref.tobytes(), (name, design, rate, erased)
        moved |= bool(want[1].any())
    # fixed never moves; with 30% indels some strand of a wider pool moves, or
    # the walk checked nothing (a one-strand code may never contradict a read)
    if mode == "fixed" or n > 1:
        assert moved == (mode != "fixed")


@pytest.mark.parametrize("bad", [0.5, 256, 257, np.nan, -1])
def test_encode_and_pool_reject_values_a_uint8_cast_would_hide(bad):
    # 0.5 and 256 cast to 0 and 257 to 1, so the check must see the raw values
    code = _full_rate_code(4)
    bits = np.array([[0, 1, bad, 1]])
    with pytest.raises(ValueError, match="binary"):
        weave_encode(bits, code)
    obs = np.array([[[0], [1], [bad], [ERASURE]]])
    with pytest.raises(ValueError, match=re.escape(f"or ERASURE ({ERASURE}), got {obs[0, 2, 0]}")):
        decode_pool_batch(obs, code, "fixed", 1)
    # bools are bits, and observations of bits
    flags = np.array([[False, True, True, False]])
    assert (weave_encode(flags, code).strands == weave_encode(flags.astype(np.uint8), code).strands).all()
    decoded = decode_pool_batch(flags.T[None], code, "fixed", 1).info_bits
    assert (decoded[0, 0] == polar_transform(flags[0])).all()


# ---------------------------------------------------------------------------
# quaternary path


def _decode_quaternary(code, info_pair, delta, rng):
    """Both component pools through one shared deletion pattern, decoded as a batch of two."""
    pool_r, pool_i = (weave_encode(info, code) for info in info_pair)
    (obs_r, _), (obs_i, _) = delete_pool_coincident(pool_r.strands, pool_i.strands, delta, rng)
    res = decode_pool_batch(np.stack([obs_r, obs_i]), code, "push", pool_r.strands.shape[1])
    return bool((res.info_bits != np.stack(info_pair)).any())


def test_weave_quaternary_noiseless_never_fails():
    code = design_polar_code(64, 0.01, samples=300, seed=20)
    rng = np.random.default_rng(21)
    info_pair = (_random_info(rng, 16, code), _random_info(rng, 16, code))
    assert _decode_quaternary(code, info_pair, 0.0, np.random.default_rng(0)) is False


def test_weave_quaternary_light_noise_mostly_recovers():
    code = design_polar_code(128, 0.01, samples=500, seed=7)
    rng = np.random.default_rng(22)
    fails = 0
    for trial in range(10):
        info_pair = (_random_info(rng, 32, code), _random_info(rng, 32, code))
        fails += _decode_quaternary(code, info_pair, 0.01, np.random.default_rng([23, trial]))
    assert fails <= 2
