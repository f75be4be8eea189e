"""Concatenation-baseline rates: entropy, binomial tail, redundancy, envelope."""

import math
from fractions import Fraction

import numpy as np
import pytest

from genoweave.rates import (
    FAMILIES,
    RateFamily,
    binom_cdf,
    capacity,
    concat_envelope,
    concat_rates,
    entropy,
    redundancy,
)


def _cdf_exact(ell, p, d):
    p = Fraction(p)
    return float(sum(math.comb(ell, k) * p**k * (1 - p) ** (ell - k)
                     for k in range(d + 1)))


# ---------------------------------------------------------------------------
# entropy and capacity


def test_entropy_binary_known_values():
    assert entropy(2, 0.0) == 0.0
    assert entropy(2, 0.5) == 1.0
    assert entropy(2, 0.11) == pytest.approx(0.499915958164528, rel=1e-14)
    assert entropy(2, 0.01) == pytest.approx(0.08079313589591118, rel=1e-14)


def test_entropy_quaternary_known_values():
    # uniform output noise saturates a 2-bit symbol at p = 3/4
    assert entropy(4, 0.75) == pytest.approx(1.0, rel=1e-14)
    assert entropy(4, 0.0) == 0.0
    assert entropy(4, 0.5) == pytest.approx(0.896240625180289, rel=1e-14)
    assert entropy(4, 0.01) == pytest.approx(0.048321380451561376, rel=1e-14)


def test_entropy_symmetry_binary():
    for p in (0.01, 0.2, 0.37):
        assert entropy(2, p) == pytest.approx(entropy(2, 1 - p), rel=1e-12)


def test_capacity_is_one_minus_entropy():
    assert capacity(2, 0.05) == pytest.approx(0.7136030428840437, rel=1e-14)
    assert capacity(4, 0.75) == pytest.approx(0.0, abs=1e-14)
    assert capacity(2, 0.0) == 1.0


def test_entropy_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        entropy(3, 0.1)


# ---------------------------------------------------------------------------
# binomial CDF


def test_binom_cdf_exact_rational_small():
    # exhaustive against an exact rational sum
    for ell in range(1, 21):
        for delta in (0.0, 0.1, 0.5, 0.9):
            for d in range(ell + 1):
                want = _cdf_exact(ell, Fraction(delta).limit_denominator(10), d)
                got = binom_cdf(ell, delta, d)
                assert got == pytest.approx(want, rel=1e-12), (ell, delta, d)


def test_binom_cdf_frozen_values():
    assert binom_cdf(10, 0.5, 5) == pytest.approx(319 / 512, rel=1e-14)
    assert binom_cdf(256, 0.01, 0) == pytest.approx(0.07631498390659397, rel=1e-12)
    assert binom_cdf(256, 0.01, 3) == pytest.approx(0.7451580302074817, rel=1e-12)
    assert binom_cdf(256, 0.1, 30) == pytest.approx(0.8463504860556299, rel=1e-12)
    assert binom_cdf(20, 0.9, 17) == pytest.approx(0.323073194810534, rel=1e-12)
    assert binom_cdf(7, 0.25, 2) == pytest.approx(0.75640869140625, rel=1e-12)


def test_binom_cdf_boundaries():
    assert binom_cdf(256, 0.0, 0) == 1.0
    assert binom_cdf(256, 0.3, 256) == 1.0
    assert binom_cdf(256, 1.0, 255) == 0.0
    assert binom_cdf(256, 1.0, 256) == 1.0


def test_binom_cdf_monotone_in_d():
    vals = [binom_cdf(256, 0.05, d) for d in range(257)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, rel=1e-12)


def test_binom_cdf_rejects_bad_domain():
    with pytest.raises(ValueError):
        binom_cdf(0, 0.1, 0)
    with pytest.raises(ValueError):
        binom_cdf(10, -0.1, 2)
    with pytest.raises(ValueError):
        binom_cdf(10, 1.1, 2)
    with pytest.raises(ValueError):
        binom_cdf(10, 0.1, 11)
    with pytest.raises(ValueError):
        binom_cdf(10, 0.1, -1)


# ---------------------------------------------------------------------------
# redundancy families


def test_redundancy_zero_at_d_zero():
    for family in FAMILIES:
        for q in (2, 4):
            assert redundancy(RateFamily(q=q, family=family), 0) == 0.0


def test_redundancy_explicit_binary():
    fam = RateFamily(q=2, family="explicit")
    assert redundancy(fam, 1) == pytest.approx(8.0)       # log2(256)
    assert redundancy(fam, 2) == pytest.approx(32.0)      # 4 log2(256)
    assert redundancy(fam, 3) == pytest.approx(88.0)      # (4*3 - 1) log2(256)
    assert redundancy(fam, 5) == pytest.approx(152.0)


def test_redundancy_explicit_quaternary():
    fam = RateFamily(q=4, family="explicit")
    assert redundancy(fam, 1) == pytest.approx(4.0)       # log4(256)
    assert redundancy(fam, 2) == pytest.approx(40.0)      # 5 log2(256), in 4-ary symbols
    assert redundancy(fam, 3) == pytest.approx(96.0)      # 4*3 log2(256)
    # normalized by the d-fold lower bound d*log4(256) this is the (2 -> 5,
    # then 8) staircase: twice the binary explicit cost
    assert redundancy(fam, 2) / (2 * 4) == pytest.approx(5.0)
    assert redundancy(fam, 3) / (3 * 4) == pytest.approx(8.0)


def test_redundancy_implicit():
    for q in (2, 4):
        fam = RateFamily(q=q, family="implicit")
        unit = math.log(256, q)
        assert redundancy(fam, 1) == pytest.approx(unit)
        assert redundancy(fam, 2) == pytest.approx(4 * unit)
        assert redundancy(fam, 7) == pytest.approx(14 * unit)


def test_redundancy_putative_lower_bound():
    for q in (2, 4):
        fam = RateFamily(q=q, family="putative")
        unit = math.log(256, q)
        for d in (1, 2, 9):
            assert redundancy(fam, d) == pytest.approx(d * unit)


def test_redundancy_ordering_putative_weakest():
    # the lower bound never exceeds the constructive families
    for q in (2, 4):
        for d in range(0, 20):
            costs = {family: redundancy(RateFamily(q=q, family=family), d)
                     for family in FAMILIES}
            assert costs["putative"] <= costs["implicit"] + 1e-12
            assert costs["putative"] <= costs["explicit"] + 1e-12


def test_rate_family_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        RateFamily(q=3, family="explicit")
    with pytest.raises(ValueError):
        RateFamily(q=2, family="vt")


# ---------------------------------------------------------------------------
# concatenated rate and envelope


def test_concat_rate_frozen_values():
    assert concat_rates(RateFamily(q=2, family="explicit"), 0.01)[3] == pytest.approx(
        0.4890099573236599, rel=1e-12)
    assert concat_rates(RateFamily(q=4, family="implicit"), 0.02)[2] == pytest.approx(
        0.10542037755373179, rel=1e-12)
    assert concat_rates(RateFamily(q=2, family="putative"), 0.1)[30] == pytest.approx(
        0.05289690537847687, rel=1e-12)


def test_concat_rate_clamps_at_zero():
    # redundancy above the strand length cannot go negative
    fam = RateFamily(q=2, family="explicit")
    assert concat_rates(fam, 0.01)[200] == 0.0


def test_concat_envelope_noiseless_is_rate_one():
    for family in FAMILIES:
        rate, d = concat_envelope(RateFamily(q=2, family=family), 0.0)
        assert rate == 1.0
        assert d == 0


def test_concat_envelope_dominates_every_d():
    fam = RateFamily(q=2, family="explicit")
    for delta in (1e-6, 1e-3, 0.01, 0.1):
        env, d_star = concat_envelope(fam, delta)
        rates = concat_rates(fam, delta).tolist()
        assert env == pytest.approx(max(rates), rel=1e-14)
        assert rates[d_star] == env
        # ties resolve to the smallest maximizer
        assert all(r < env for r in rates[:d_star])


def test_concat_envelope_nonincreasing_in_delta():
    grid = np.logspace(-4, np.log10(0.2), 200)
    for family in FAMILIES:
        fam = RateFamily(q=2, family=family)
        vals = [concat_envelope(fam, float(d))[0] for d in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), family


def test_concat_envelope_family_ordering():
    # weaker redundancy promises means higher achievable rate
    grid = np.logspace(-4, np.log10(0.2), 50)
    for q in (2, 4):
        for delta in grid:
            p = concat_envelope(RateFamily(q=q, family="putative"), float(delta))[0]
            i = concat_envelope(RateFamily(q=q, family="implicit"), float(delta))[0]
            e = concat_envelope(RateFamily(q=q, family="explicit"), float(delta))[0]
            assert p >= i >= e, (q, float(delta))


def test_concat_envelope_rejects_bad_delta():
    # and so does concat_rates, and both reject a block length below 2
    # before building the binomial table, which a negative one would index
    fam = RateFamily(q=2, family="explicit")
    for func in (concat_rates, concat_envelope):
        for delta in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="probability out of range"):
                func(fam, delta)
        for ell in (-5, 0, 1):
            with pytest.raises(ValueError, match="block length must be at least 2"):
                func(fam, 0.01, ell)
