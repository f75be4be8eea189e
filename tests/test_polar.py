"""Polar transform, SC decoding, and Monte-Carlo code construction."""

import itertools
import math
import re

import numpy as np
import pytest

from genoweave import polar
from genoweave.polar import (
    PolarCode,
    design_polar_code,
    equivocation_stats,
    format_equivocations_csv,
    make_polar_code,
    polar_transform,
    read_equivocations_csv,
    sc_decode_batch,
)
from genoweave.weave import CERTAIN_LLR
from sc_oracle import genie_posteriors


def _h2(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def _full_rate_code(n):
    return make_polar_code(n, 0.01, np.zeros(n))

def _llrs_for(x, llr=math.log(99.0)):
    return llr * (1.0 - 2.0 * np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# transform


def test_transform_known_vector():
    # u = (1,0,1,1): x = rows 0, 2, 3 of F^x2 summed over GF(2)
    got = polar_transform(np.array([1, 0, 1, 1], dtype=np.uint8))
    assert got.tolist() == [1, 1, 0, 1]


def test_transform_is_involution_exhaustive_n8():
    for bits in itertools.product((0, 1), repeat=8):
        u = np.array(bits, dtype=np.uint8)
        assert (polar_transform(polar_transform(u)) == u).all()


def test_transform_is_involution_randomized_n4096():
    rng = np.random.default_rng(0)
    u = rng.integers(0, 2, size=4096, dtype=np.uint8)
    assert (polar_transform(polar_transform(u)) == u).all()


def test_transform_linear_over_gf2():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, size=64, dtype=np.uint8)
    b = rng.integers(0, 2, size=64, dtype=np.uint8)
    assert (polar_transform(a ^ b) == (polar_transform(a) ^ polar_transform(b))).all()


def test_transform_accepts_row_matrices():
    rng = np.random.default_rng(2)
    u = rng.integers(0, 2, size=(5, 16), dtype=np.uint8)
    for rows in (u, np.asfortranarray(u)):  # the transform works on a copy
        out = polar_transform(rows)
        # a transposed view of the position-major copy it worked on
        assert out.shape == (5, 16) and out.T.flags.c_contiguous
        assert (rows == u).all()
        for row_in, row_out in zip(u, out):
            assert (polar_transform(row_in) == row_out).all()


def test_transform_rejects_bad_input():
    with pytest.raises(ValueError):
        polar_transform(np.array([0, 1, 1], dtype=np.uint8))
    with pytest.raises(ValueError):
        polar_transform(np.array([0, 2, 1, 1], dtype=np.uint8))


@pytest.mark.parametrize("bad", [0.5, 256, 257])
def test_bit_inputs_reject_values_a_uint8_cast_would_hide(bad):
    bits = np.array([0, 1, bad, 1])
    with pytest.raises(ValueError, match="binary"):
        polar_transform(bits)
    with pytest.raises(ValueError, match="binary"):
        polar_transform(bits[None])
    with pytest.raises(ValueError, match="bit-vector"):
        genie_posteriors(np.ones(4), bits)


# ---------------------------------------------------------------------------
# SC decoding


def test_sc_decode_full_rate_inverts_all_codewords_n4():
    code = _full_rate_code(4)
    for bits in itertools.product((0, 1), repeat=4):
        u_true = np.array(bits, dtype=np.uint8)
        x = polar_transform(u_true)
        u, x_hat = sc_decode_batch(_llrs_for(x, CERTAIN_LLR)[None], code)
        assert (u[0] == u_true).all()
        assert (x_hat[0] == x).all()


def test_sc_decode_noiseless_exhaustive_messages_n16():
    # constructed code, every message, finite clean LLRs
    code = design_polar_code(16, 0.1, samples=300, seed=11)
    assert 0 < code.k < 16
    for bits in itertools.product((0, 1), repeat=code.k):
        u_true = np.zeros(16, dtype=np.uint8)
        u_true[code.info_set] = bits
        x = polar_transform(u_true)
        u, x_hat = sc_decode_batch(_llrs_for(x)[None], code)
        assert (u[0] == u_true).all() and (x_hat[0] == x).all()


def test_sc_decode_noiseless_randomized_n4096():
    code = design_polar_code(4096, 0.01, samples=200, seed=4)
    rng = np.random.default_rng(8)
    u_true = np.zeros((16, 4096), dtype=np.uint8)
    u_true[:, code.info_set] = rng.integers(0, 2, size=(16, code.k), dtype=np.uint8)
    x = polar_transform(u_true)
    u, x_hat = sc_decode_batch(_llrs_for(x), code)
    assert (u == u_true).all() and (x_hat == x).all()


def test_sc_decode_batch_rows_are_independent():
    code = design_polar_code(32, 0.05, samples=200, seed=2)
    rng = np.random.default_rng(5)
    lam = rng.normal(scale=3.0, size=(10, 32))
    batch_u, batch_x = sc_decode_batch(lam, code)
    for i in range(10):
        u, x = sc_decode_batch(lam[i][None], code)
        assert (u[0] == batch_u[i]).all() and (x[0] == batch_x[i]).all()


def test_sc_decode_zero_llr_breaks_toward_zero():
    code = _full_rate_code(4)
    u, x = sc_decode_batch(np.zeros((1, 4)), code)
    assert not u.any() and not x.any()


def test_sc_decode_rejects_nan_and_bad_shape():
    code = _full_rate_code(4)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            sc_decode_batch(np.array([[0.0, bad, 1.0, 2.0]]), code)
    with pytest.raises(ValueError):
        sc_decode_batch(np.zeros((1, 8)), code)
    with pytest.raises(ValueError):
        sc_decode_batch(np.zeros(4), code)


def test_sc_decode_respects_frozen_values():
    # frozen positions carry the constant 0 whatever the LLRs say
    rng = np.random.default_rng(9)
    eq = rng.random(16)
    info = np.flatnonzero(eq < 0.5)
    code = make_polar_code(16, 0.1, eq, threshold=0.5)
    assert (code.info_set == info).all()
    assert (code.frozen_mask == ~np.isin(np.arange(16), info)).all()
    u, _ = sc_decode_batch(rng.normal(size=(8, 16)), code)
    assert not u[:, code.frozen_mask].any()


def test_sc_decode_block_errors_bounded_bsc():
    # 1000 noisy transmissions through BSC(1%) at n=256; with the matched
    # construction the block error count stays far under 1%% x 50
    code = design_polar_code(256, 0.01, samples=1000, seed=5)
    rng = np.random.default_rng(77)
    B = 1000
    u = np.zeros((B, 256), dtype=np.uint8)
    info = rng.integers(0, 2, size=(B, code.k), dtype=np.uint8)
    u[:, code.info_set] = info
    x = polar_transform(u)
    flips = rng.random((B, 256)) < 0.01
    y = x.astype(np.int64) ^ flips
    lam = math.log(99.0) * (1.0 - 2.0 * y)
    u_hat, _ = sc_decode_batch(lam, code)
    errors = int((u_hat[:, code.info_set] != info).any(axis=1).sum())
    assert errors <= 10


# ---------------------------------------------------------------------------
# genie posteriors


def test_genie_posteriors_certain_zero():
    # the certainty LLR of a noiseless design reads as a certain posterior
    ps = genie_posteriors(np.full(8, CERTAIN_LLR), np.zeros(8, dtype=np.uint8))
    assert (ps.rho == 1.0).all()


def test_genie_posteriors_single_uninformative_channel():
    ps = genie_posteriors(np.array([0.0]), np.array([0], dtype=np.uint8))
    assert ps.rho.tolist() == [0.5]


def test_genie_posteriors_match_hand_enumeration_n2():
    # exact posteriors for every received pair at delta = 0.05
    delta = 0.05
    p = 1 - delta
    llr = math.log(p / delta)
    # true u = (0,0) -> x = (0,0); y = (0,1) means the second look flipped
    lam = np.array([llr, -llr])
    ps = genie_posteriors(lam, np.zeros(2, dtype=np.uint8))
    # leaf 0: P(u0=0 | y) = 2 p delta / (p+delta)^2 = 2 p delta
    assert ps.rho[0] == pytest.approx(2 * p * delta, rel=1e-12)
    # leaf 1 given true u0: LLRs cancel
    assert ps.rho[1] == pytest.approx(0.5, rel=1e-12)
    lam_clean = np.array([llr, llr])
    ps2 = genie_posteriors(lam_clean, np.zeros(2, dtype=np.uint8))
    assert ps2.rho[0] == pytest.approx(p * p + delta * delta, rel=1e-12)
    assert ps2.rho[1] == pytest.approx(p * p / (p * p + delta * delta), rel=1e-12)


# ---------------------------------------------------------------------------
# Monte-Carlo construction


def test_equivocation_exact_closed_form_n2():
    # the first synthetic channel of n=2 is a BSC(2 p delta); its genie
    # entropy is the same for every noise draw, so the estimate is exact
    delta = 0.05
    p = 1 - delta
    stats = equivocation_stats(2, delta, samples=50, seed=9)
    assert stats.equivocations[0] == pytest.approx(_h2(2 * p * delta), rel=1e-12)


def test_equivocation_estimator_matches_per_sample_reconstruction_n2():
    # rebuild the estimator independently from the same noise stream
    delta, samples, seed = 0.05, 400, 9
    p = 1 - delta
    agree_h = _h2(p * p / (p * p + delta * delta))
    acc0 = acc1 = 0.0
    for i in range(samples):
        flips = np.random.default_rng([seed, i]).random(2) < delta
        acc0 += _h2(2 * p * delta)
        acc1 += agree_h if flips[0] == flips[1] else 1.0
    stats = equivocation_stats(2, delta, samples=samples, seed=seed)
    assert stats.equivocations[0] == pytest.approx(acc0 / samples, abs=1e-13)
    assert stats.equivocations[1] == pytest.approx(acc1 / samples, abs=1e-13)
    assert stats.total_mean == pytest.approx((acc0 + acc1) / samples, abs=1e-12)


def test_equivocation_chain_rule_conservation():
    # sum of genie entropies is an unbiased estimate of n h2(delta)
    for n, delta, seed in ((64, 0.05, 3), (256, 0.01, 1)):
        stats = equivocation_stats(n, delta, samples=600, seed=seed)
        target = n * _h2(delta)
        assert abs(stats.total_mean - target) <= 3 * stats.total_se


def test_equivocation_delta_zero_is_exactly_zero():
    stats = equivocation_stats(16, 0.0, samples=10, seed=0)
    assert (stats.equivocations == 0.0).all()
    assert stats.total_mean == 0.0


def test_equivocation_batch_size_cannot_change_results(monkeypatch):
    # blocks of 101 samples run the whole call inline; smaller ones run on
    # threads, and 1000 is one block again
    monkeypatch.setattr(polar, "_BLOCK_FLOATS", 101 * 32)
    base = equivocation_stats(32, 0.03, samples=101, seed=6)
    for bs in (1, 7, 32, 1000):
        monkeypatch.setattr(polar, "_BLOCK_FLOATS", bs * 32)
        other = equivocation_stats(32, 0.03, samples=101, seed=6)
        assert (other.equivocations == base.equivocations).all()
        assert other.total_mean == base.total_mean
        assert other.total_se == base.total_se


def test_equivocation_deterministic_across_runs():
    a = equivocation_stats(64, 0.02, samples=150, seed=12).equivocations
    b = equivocation_stats(64, 0.02, samples=150, seed=12).equivocations
    assert (a == b).all()
    c = equivocation_stats(64, 0.02, samples=150, seed=13).equivocations
    assert (a != c).any()


def test_equivocation_polarizes_with_block_length():
    # longer codes push more channels toward 0 or 1
    frac = {}
    for n in (64, 1024):
        eq = equivocation_stats(n, 0.05, samples=400, seed=7).equivocations
        frac[n] = float(((eq > 0.01) & (eq < 0.99)).mean())
    assert frac[1024] < frac[64]


def test_equivocation_values_in_unit_interval():
    eq = equivocation_stats(128, 0.1, samples=200, seed=21).equivocations
    assert eq.min() >= 0.0 and eq.max() <= 1.0


# ---------------------------------------------------------------------------
# info-set selection and the PolarCode container


def test_select_info_set_strict_threshold():
    eq = np.array([0.0, 0.2, 0.5, 0.7])
    assert make_polar_code(4, 0.1, eq, threshold=0.5).info_set.tolist() == [0, 1]
    assert make_polar_code(4, 0.1, eq, threshold=0.500001).info_set.tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        make_polar_code(4, 0.1, eq, threshold=0.0)


def test_code_rate_monotone_in_delta():
    # rate should not grow with channel noise, up to MC jitter of 2 channels
    n = 64
    ks = []
    for delta in (0.01, 0.05, 0.1, 0.2):
        ks.append(design_polar_code(n, delta, samples=500, seed=3).k)
    for a, b in zip(ks, ks[1:]):
        assert b <= a + 2


def test_make_polar_code_default_threshold():
    n = 64
    eq = np.zeros(n)
    eq[1] = 1.0 / (256.0 * n)       # exactly at threshold: excluded
    eq[2] = 0.9 / (256.0 * n)       # below: included
    code = make_polar_code(n, 0.01, eq)
    assert 1 not in code.info_set
    assert 2 in code.info_set
    assert code.k == n - 1


def test_polar_code_validation():
    with pytest.raises(ValueError):
        make_polar_code(12, 0.01, np.zeros(12))
    with pytest.raises(ValueError):
        make_polar_code(8, 0.7, np.zeros(8))
    with pytest.raises(ValueError):
        make_polar_code(8, 0.01, np.full(8, 1.5))
    with pytest.raises(ValueError):
        PolarCode(n=8, design_delta=0.01, equivocations=np.zeros(8),
                  info_set=np.array([3, 1]))
    # indices an int64 cast would change are refused, an empty list is not
    for info_set in ([0.5, 1.7, 2.2], [np.nan], [np.inf]):
        with pytest.raises(ValueError, match="integer indices"):
            PolarCode(n=4, design_delta=0.1, equivocations=np.zeros(4), info_set=info_set)
    assert PolarCode(n=4, design_delta=0.1, equivocations=np.zeros(4), info_set=[]).k == 0
    # a float count is refused by name, where the power-of-two test or range()
    # raised a TypeError
    for call, message in (
            (lambda: make_polar_code(8.0, 0.01, np.zeros(8)), "block length must be an integer, got 8.0"),
            (lambda: equivocation_stats(8.0, 0.01, samples=2), "block length must be an integer, got 8.0"),
            (lambda: equivocation_stats(8, 0.01, samples=2.5), "samples must be an integer, got 2.5"),
            (lambda: equivocation_stats(8, 0.01, samples=0), "samples must be at least 1, got 0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    # the frozen mask is derived from the info set, never passed in
    with pytest.raises(TypeError):
        PolarCode(n=8, design_delta=0.01, equivocations=np.zeros(8),
                  info_set=np.array([1, 3]), frozen_mask=np.zeros(8, dtype=bool))


def test_polar_code_compares_and_hashes_by_identity():
    a = make_polar_code(4, 0.1, np.zeros(4))
    b = make_polar_code(4, 0.1, np.zeros(4))
    assert a == a
    assert a != b
    assert {a: 1}[a] == 1


def test_polar_code_arrays_are_read_only():
    code = _full_rate_code(8)
    with pytest.raises(ValueError):
        code.equivocations[0] = 0.5
    with pytest.raises(ValueError):
        code.info_set[0] = 1
    with pytest.raises(ValueError):
        code.frozen_mask[0] = True


# ---------------------------------------------------------------------------
# CSV round trip


def test_equivocations_csv_roundtrip(tmp_path):
    eq = equivocation_stats(16, 0.05, samples=50, seed=14).equivocations
    text = format_equivocations_csv(eq, {"n": 16, "delta": 0.05})
    path = tmp_path / "eq.csv"
    path.write_text(text)
    back = read_equivocations_csv(str(path))
    assert (back == eq).all()
    assert text.startswith("# n=16\n# delta=0.05\n")


def test_equivocations_csv_rejects_out_of_order_rows(tmp_path):
    text = format_equivocations_csv([0.5, 0.25], {}).replace("1,0.25", "2,0.25")
    path = tmp_path / "eq.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path} row 3: index 2 out of order")):
        read_equivocations_csv(str(path))
    # a file with no rows is named too
    path.write_text("# n=2\nindex,equivocation\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no equivocation rows")):
        read_equivocations_csv(str(path))
    # a row that is not an index and a float is named, file and row
    good = format_equivocations_csv([0.5, 0.25], {"n": 2})
    for bad_row in ("localhost", "1,0.25,7", "one,0.25", "1,half"):
        path.write_text(good.replace("1,0.25", bad_row))
        with pytest.raises(ValueError, match=re.escape(f"{path} row 4: ") + ".*" +
                           re.escape(repr(bad_row))):
            read_equivocations_csv(str(path))
