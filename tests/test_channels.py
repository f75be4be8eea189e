"""Substitution, deletion, and insertion channels plus the quaternary split."""

import itertools
import math

import numpy as np
import pytest

from genoweave.channels import (
    ERASURE,
    ChannelSpec,
    apply_channel_pool,
    bsc_pool,
    delete_pool,
    delete_pool_coincident,
    insert_pool,
    llr_table,
    quaternary_merge,
    quaternary_split,
)
from genoweave.rates import binom_cdf


def _is_subsequence(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


class _ForcedRng:
    """Stands in for a Generator; replays scripted random() and integers()."""

    def __init__(self, uniforms, ints=()):
        self._uniforms = np.array(uniforms, dtype=np.float64)
        self._ints = np.array(ints)

    def random(self, size):
        assert np.prod(size) == self._uniforms.size
        return self._uniforms.reshape(size)

    def integers(self, low, high, size=None, dtype=int):
        assert np.prod(size) == self._ints.size
        return self._ints.astype(dtype).reshape(size)


def _received(obs, lengths):
    """Raw symbols of a one-strand pool: the row up to its reported length."""
    return obs[0, :lengths[0]].tolist()


# ---------------------------------------------------------------------------
# channels on single strands, as one-strand pools


def test_bsc_identity_at_zero():
    s = np.array([[0, 1, 1, 0, 1]], dtype=np.uint8)
    out, lengths = bsc_pool(s, 0.0, np.random.default_rng(0))
    assert (out == s).all() and lengths.tolist() == [5]


def test_bsc_flip_fraction_concentrates():
    rng = np.random.default_rng(10)
    s = np.zeros((1, 100_000), dtype=np.uint8)
    out, _ = bsc_pool(s, 0.5, rng)
    sigma = math.sqrt(100_000 * 0.25)
    assert abs(int(out.sum()) - 50_000) <= 3 * sigma


def test_bsc_rejects_delta_one():
    with pytest.raises(ValueError):
        bsc_pool(np.zeros((1, 4), dtype=np.uint8), 1.0, np.random.default_rng(0))


def test_delete_identity_at_zero():
    s = np.array([[1, 0, 1]], dtype=np.uint8)
    obs, lengths = delete_pool(s, 0.0, np.random.default_rng(0))
    assert (obs == s).all()
    assert lengths.tolist() == [3] and obs.shape == (1, 3)


def test_delete_output_is_subsequence():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = rng.integers(0, 2, size=(1, 256), dtype=np.uint8)
        obs, lengths = delete_pool(s, 0.2, rng)
        assert _is_subsequence(_received(obs, lengths), s[0].tolist())


def test_delete_count_concentrates():
    # 10^4 strands of length 256 at 1 percent
    rng = np.random.default_rng(12)
    total = removed = 0
    for _ in range(10_000 // 100):
        pool = rng.integers(0, 2, size=(100, 256), dtype=np.uint8)
        _, lengths = delete_pool(pool, 0.01, rng)
        removed += int((256 - lengths).sum())
        total += 100 * 256
    mean = total * 0.01
    sigma = math.sqrt(total * 0.01 * 0.99)
    assert abs(removed - mean) <= 3 * sigma


def _delete_only(length, position):
    # uniforms below delta=0.5 mark deleted symbols
    return _ForcedRng(uniforms=[0.0 if j == position else 0.9 for j in range(length)])


def test_delete_run_collapses():
    # a run of zeros loses one symbol: same run, one shorter
    s = np.zeros((1, 6), dtype=np.uint8)
    obs, lengths = delete_pool(s, 0.5, _delete_only(6, 3))
    assert _received(obs, lengths) == [0] * 5
    assert obs[0].tolist() == [0, 0, 0, 0, 0, ERASURE]


def test_delete_at_exact_position():
    s = np.array([[0, 1, 0, 0, 1]], dtype=np.uint8)
    obs, lengths = delete_pool(s, 0.5, _delete_only(5, 1))
    assert _received(obs, lengths) == [0, 0, 0, 1]
    obs, lengths = delete_pool(s, 0.5, _delete_only(5, 4))
    assert _received(obs, lengths) == [0, 1, 0, 0]


def test_insert_identity_at_zero():
    s = np.array([[1, 0, 1]], dtype=np.uint8)
    obs, lengths = insert_pool(s, 0.0, np.random.default_rng(0))
    assert _received(obs, lengths) == [1, 0, 1]


def test_insert_placement_is_before_the_slot():
    # forced pattern: insertions before slots 0 and 2 of 0101
    rng = _ForcedRng(uniforms=[0.0, 0.9, 0.0, 0.9], ints=[1, 0, 1, 0])
    obs, lengths = insert_pool(np.array([[0, 1, 0, 1]], dtype=np.uint8), 0.5, rng)
    assert _received(obs, lengths) == [1, 0, 1, 1, 0, 1]
    assert obs.shape == (1, 8)


def test_insert_before_first_position_shifts_all():
    # one insertion before position 0: original symbol 1 shows up at index 1
    s = np.array([[1, 0, 1, 1]], dtype=np.uint8)
    rng = _ForcedRng(uniforms=[0.0, 0.9, 0.9, 0.9], ints=[0, 1, 1, 1])
    obs, lengths = insert_pool(s, 0.5, rng)
    assert _received(obs, lengths) == [0, 1, 0, 1, 1]
    assert obs[0, 1] == s[0, 0]


def test_insert_input_is_subsequence():
    rng = np.random.default_rng(13)
    for _ in range(50):
        s = rng.integers(0, 2, size=(1, 256), dtype=np.uint8)
        obs, lengths = insert_pool(s, 0.2, rng)
        assert lengths[0] >= 256
        assert _is_subsequence(s[0].tolist(), _received(obs, lengths))


def test_insert_count_concentrates():
    rng = np.random.default_rng(14)
    total = added = 0
    for _ in range(100):
        pool = rng.integers(0, 2, size=(100, 256), dtype=np.uint8)
        _, lengths = insert_pool(pool, 0.01, rng)
        added += int((lengths - 256).sum())
        total += 100 * 256
    mean = total * 0.01
    sigma = math.sqrt(total * 0.01 * 0.99)
    assert abs(added - mean) <= 3 * sigma


def test_deletion_length_distribution_chi_square():
    # |output| = 256 - Bin(256, delta); chi-square against the binomial law
    rng = np.random.default_rng(15)
    for delta, seedless_crit in ((0.01, 16.27), (0.1, 16.27)):
        pool = rng.integers(0, 2, size=(2000, 256), dtype=np.uint8)
        _, lengths = delete_pool(pool, delta, rng)
        counts = 256 - lengths
        # five bins with edges at the quartile-ish deletion counts
        mean = 256 * delta
        sd = math.sqrt(256 * delta * (1 - delta))
        edges = [mean - 1.5 * sd, mean - 0.5 * sd, mean + 0.5 * sd, mean + 1.5 * sd]
        edges = [int(round(e)) for e in edges]
        observed = np.zeros(5)
        expected = np.zeros(5)
        prev_cdf = 0.0
        prev_edge = -1
        for i, edge in enumerate(edges + [256]):
            observed[i] = ((counts > prev_edge) & (counts <= edge)).sum()
            cdf = binom_cdf(256, delta, edge)
            expected[i] = 2000 * (cdf - prev_cdf)
            prev_cdf, prev_edge = cdf, edge
        assert expected.min() > 5
        chi2 = float((((observed - expected) ** 2) / expected).sum())
        # chi-square df=4, 99.7th percentile
        assert chi2 < seedless_crit, (delta, chi2)


# ---------------------------------------------------------------------------
# LLRs


def test_llr_known_value():
    assert llr_table(0.01)[0] == pytest.approx(math.log(99.0), rel=1e-14)


def test_llr_sign_symmetry_and_erasure():
    for delta in (0.001, 0.01, 0.1, 0.4999):
        t = llr_table(delta)
        assert t[0] == -t[1]
        assert t[ERASURE] == 0.0
    assert llr_table(0.4999)[0] == pytest.approx(0.0, abs=1e-3)


def test_llr_table_layout():
    t = llr_table(0.01)
    assert t.tolist() == [math.log(0.99 / 0.01), -math.log(0.99 / 0.01), 0.0]


def test_llr_rejects_out_of_domain():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            llr_table(bad)


def test_symbols_to_llrs_vectorized():
    # the decoder maps observed symbols of any shape through the table
    sym = np.array([[0, 1], [ERASURE, 0]], dtype=np.uint8)
    out = llr_table(0.1)[sym]
    assert out.shape == (2, 2)
    assert out[0, 0] == llr_table(0.1)[0] == -out[0, 1]
    assert out[1, 0] == 0.0


# ---------------------------------------------------------------------------
# quaternary decomposition


def test_quaternary_split_known_mapping():
    real, imag = quaternary_split("ACGT")
    assert real.tolist() == [0, 1, 0, 1]
    assert imag.tolist() == [0, 0, 1, 1]
    assert quaternary_merge(real, imag) == "ACGT"


def test_quaternary_all_a_is_all_zero():
    real, imag = quaternary_split("AAAA")
    assert not real.any() and not imag.any()


def test_quaternary_bijection_exhaustive_length4():
    for letters in itertools.product("ACGT", repeat=4):
        s = "".join(letters)
        assert quaternary_merge(*quaternary_split(s)) == s


def test_quaternary_bijection_randomized_length256():
    rng = np.random.default_rng(16)
    letters = np.array(list("ACGT"))
    for _ in range(100):
        s = "".join(rng.choice(letters, size=256))
        real, imag = quaternary_split(s)
        assert quaternary_merge(real, imag) == s


def test_quaternary_merge_then_split_roundtrip():
    rng = np.random.default_rng(17)
    real = rng.integers(0, 2, size=64, dtype=np.uint8)
    imag = rng.integers(0, 2, size=64, dtype=np.uint8)
    r2, i2 = quaternary_split(quaternary_merge(real, imag))
    assert (r2 == real).all() and (i2 == imag).all()


def test_quaternary_split_rejects_other_letters():
    with pytest.raises(ValueError):
        quaternary_split("ACGU")


# ---------------------------------------------------------------------------
# pool channels


def test_pool_channels_identity_at_zero():
    rng = np.random.default_rng(18)
    pool = rng.integers(0, 2, size=(8, 32), dtype=np.uint8)
    obs, lengths = bsc_pool(pool, 0.0, np.random.default_rng(1))
    assert (obs == pool).all() and (lengths == 32).all()
    obs, lengths = delete_pool(pool, 0.0, np.random.default_rng(1))
    assert (obs == pool).all() and (lengths == 32).all()
    obs, lengths = insert_pool(pool, 0.0, np.random.default_rng(1))
    assert (obs[:, :32] == pool).all() and (lengths == 32).all()
    assert (obs[:, 32:] == ERASURE).all()


def test_delete_pool_rows_are_padded_subsequences():
    rng = np.random.default_rng(19)
    pool = rng.integers(0, 2, size=(20, 64), dtype=np.uint8)
    obs, lengths = delete_pool(pool, 0.15, rng)
    assert obs.shape == pool.shape
    for row, sent, ln in zip(obs, pool, lengths):
        assert (row[ln:] == ERASURE).all()
        assert (row[:ln] != ERASURE).all()
        assert _is_subsequence(row[:ln].tolist(), sent.tolist())


def test_insert_pool_rows_contain_input():
    rng = np.random.default_rng(20)
    pool = rng.integers(0, 2, size=(20, 64), dtype=np.uint8)
    obs, lengths = insert_pool(pool, 0.15, rng)
    assert obs.shape == (20, 128)
    for row, sent, ln in zip(obs, pool, lengths):
        assert ln >= 64
        assert (row[ln:] == ERASURE).all()
        assert _is_subsequence(sent.tolist(), row[:ln].tolist())


def test_delete_pool_coincident_shares_the_kept_set():
    rng = np.random.default_rng(21)
    letters = np.array(list("ACGT"))
    strands = ["".join(rng.choice(letters, size=32)) for _ in range(16)]
    parts = [quaternary_split(s) for s in strands]
    real = np.stack([p[0] for p in parts])
    imag = np.stack([p[1] for p in parts])
    (obs_r, len_r), (obs_i, len_i) = delete_pool_coincident(real, imag, 0.2,
                                                            np.random.default_rng(3))
    assert (len_r == len_i).all()
    assert ((obs_r == ERASURE) == (obs_i == ERASURE)).all()
    for k, sent in enumerate(strands):
        got = quaternary_merge(obs_r[k, :len_r[k]], obs_i[k, :len_i[k]])
        # whole letters disappear: the merged residue is a letter subsequence
        assert _is_subsequence(got, sent)


def _compact_rows_by_argsort(values, present):
    # the sort-based compaction the pool channels used first, kept as the reference
    lengths = present.sum(axis=1)
    order = np.argsort(~present, axis=1, kind="stable")
    gathered = np.take_along_axis(values, order, axis=1)
    obs = np.where(np.arange(values.shape[1]) < lengths[:, None], gathered, ERASURE)
    return obs.astype(np.uint8), lengths.astype(np.int64)


def _same_output(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_pool_channels_match_argsort_compaction():
    # each channel's first draws replayed from its seed give the kept and
    # inserted sets, which the reference compacts
    rng = np.random.default_rng(24)
    for _ in range(30):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 80)))
        delta = float(rng.choice([0.01, 0.2, 0.7]))
        pool = rng.integers(0, 2, size=shape, dtype=np.uint8)
        imag = rng.integers(0, 2, size=shape, dtype=np.uint8)
        seed = int(rng.integers(1 << 32))

        keep = np.random.default_rng(seed).random(shape) >= delta
        _same_output(delete_pool(pool, delta, np.random.default_rng(seed)),
                     _compact_rows_by_argsort(pool, keep))
        real_out, imag_out = delete_pool_coincident(pool, imag, delta,
                                                    np.random.default_rng(seed))
        _same_output(real_out, _compact_rows_by_argsort(pool, keep))
        _same_output(imag_out, _compact_rows_by_argsort(imag, keep))

        draws = np.random.default_rng(seed)
        ins = draws.random(shape) < delta
        bits = draws.integers(0, 2, size=shape, dtype=np.uint8)
        values = np.stack((bits, pool), axis=2).reshape(shape[0], -1)
        present = np.stack((ins, np.ones(shape, bool)), axis=2).reshape(shape[0], -1)
        _same_output(insert_pool(pool, delta, np.random.default_rng(seed)),
                     _compact_rows_by_argsort(values, present))


@pytest.mark.parametrize("bad", [0.5, 256, 257])
def test_channels_reject_values_a_uint8_cast_would_hide(bad):
    # 0.5 and 256 cast to 0 and 257 to 1, so the check must see the raw values
    pool = np.array([[0, 1, bad, 1]])
    bits = np.zeros((1, 4), dtype=np.uint8)
    rng = np.random.default_rng(0)
    for channel in (bsc_pool, delete_pool, insert_pool):
        with pytest.raises(ValueError, match="binary"):
            channel(pool, 0.1, rng)
    with pytest.raises(ValueError, match="binary"):
        apply_channel_pool(pool, ChannelSpec("deletion", 0.1), rng)
    for real, imag in ((pool, bits), (bits, pool)):
        with pytest.raises(ValueError, match="binary"):
            delete_pool_coincident(real, imag, 0.1, rng)
        with pytest.raises(ValueError, match="binary"):
            quaternary_merge(real[0], imag[0])


def test_apply_channel_pool_dispatch_matches_components():
    rng = np.random.default_rng(22)
    pool = rng.integers(0, 2, size=(6, 16), dtype=np.uint8)
    for kind, func in (("substitution", bsc_pool), ("deletion", delete_pool),
                       ("insertion", insert_pool)):
        a = apply_channel_pool(pool, ChannelSpec(kind, 0.1), np.random.default_rng(9))
        b = func(pool, 0.1, np.random.default_rng(9))
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("duplication", 0.1)
    with pytest.raises(ValueError):
        ChannelSpec("deletion", 1.0)


# ---------------------------------------------------------------------------
# received strands (rows of a channel's observation matrix) and text round trips


def test_received_strand_padding_and_len():
    # a strand that lost symbols is erasure-padded back to the nominal length
    s = np.array([[1, 1, 0, 0]], dtype=np.uint8)
    obs, lengths = delete_pool(s, 0.5, _ForcedRng(uniforms=[0.9, 0.0, 0.9, 0.0]))
    assert lengths.tolist() == [2]
    assert obs[0].tolist() == [1, 0, ERASURE, ERASURE]


def test_received_strand_longer_than_nominal_keeps_all():
    # insertions grow a strand past its nominal length; the row keeps them all
    s = np.array([[1, 1]], dtype=np.uint8)
    obs, lengths = insert_pool(s, 0.5, _ForcedRng(uniforms=[0.9, 0.0], ints=[1, 0]))
    assert lengths.tolist() == [3]
    assert obs[0].tolist() == [1, 0, 1, ERASURE]


def test_received_strand_rejects_nonbinary():
    rng = np.random.default_rng(0)
    for channel in (bsc_pool, delete_pool, insert_pool):
        with pytest.raises(ValueError):
            channel(np.array([[0, 2]], dtype=np.uint8), 0.1, rng)

