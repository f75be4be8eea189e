"""Experiment harness: seeding, determinism, failure counting, CSV output."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from genoweave import sim
from genoweave.channels import ERASURE
from genoweave.polar import make_polar_code
from genoweave.rates import capacity
from genoweave.sim import (
    STRAND_LENGTH,
    ExperimentConfig,
    derive_seed,
    replay_pool,
    results_to_csv,
    run_construction_sweep,
    run_pool_experiment,
    run_quaternary_pool_experiment,
)

SMALL = dict(n=64, delta_list=(0.02,), error_kind="deletion", pools=40,
             construction_samples=200, master_seed=1)


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_seed_is_stable():
    a = derive_seed(7, "pools", "deletion", 256, 0.01)
    b = derive_seed(7, "pools", "deletion", 256, 0.01)
    assert a == b
    assert 0 <= a < 2**64


def test_derive_seed_distinguishes_types_and_order():
    seeds = {
        derive_seed(1, 2),
        derive_seed(2, 1),
        derive_seed(1.0, 2),
        derive_seed("1", 2),
        derive_seed(1, 2.0),
    }
    assert len(seeds) == 5


def test_derive_seed_distinguishes_close_floats():
    assert derive_seed(0, 0.01) != derive_seed(0, 0.010000000000000002)


# ---------------------------------------------------------------------------
# construction sweep


def test_construction_sweep_noiseless_rate_one():
    (code, cseed), = run_construction_sweep(ExperimentConfig(
        n=32, delta_list=(0.0,), construction_samples=50, master_seed=0))
    assert (code.n, code.design_delta, code.rate) == (32, 0.0, 1.0)
    assert code.equivocations.tolist() == [0.0] * 32
    assert cseed == derive_seed(0, "construct", 32, 0.0)


def test_construction_rate_below_capacity_at_small_n():
    # far from asymptotic: the conservative threshold stays under capacity
    for n, delta in ((64, 0.05), (256, 0.01)):
        (code, _), = run_construction_sweep(ExperimentConfig(
            n=n, delta_list=(delta,), construction_samples=500, master_seed=2))
        assert code.rate < capacity(2, delta)


def test_construction_sweep_is_deterministic():
    cfg = ExperimentConfig(n=64, delta_list=(0.01, 0.05),
                           construction_samples=150, master_seed=9)
    a = run_construction_sweep(cfg)
    b = run_construction_sweep(cfg)
    assert [code.design_delta for code, _ in a] == [0.01, 0.05]
    for (ca, sa), (cb, sb) in zip(a, b):
        assert sa == sb
        assert ca.rate == cb.rate
        assert (ca.info_set == cb.info_set).all()
        assert (ca.equivocations == cb.equivocations).all()


# ---------------------------------------------------------------------------
# pool experiments


def test_pool_experiment_zero_noise_zero_failures():
    for kind in sim.ERROR_KINDS:
        rows = run_pool_experiment(ExperimentConfig(
            n=32, delta_list=(0.0,), error_kind=kind, pools=5,
            construction_samples=50, master_seed=3))
        assert rows[0].failure_count == 0
        assert rows[0].failed_pools == ()


def test_pool_experiment_deterministic():
    a = run_pool_experiment(ExperimentConfig(**SMALL))
    b = run_pool_experiment(ExperimentConfig(**SMALL))
    assert a[0].failure_count == b[0].failure_count
    assert a[0].failed_pools == b[0].failed_pools
    assert a[0].cell_seed == b[0].cell_seed


def test_pool_experiment_batch_size_invariant(monkeypatch):
    # n=2 and n=4 pad the strand axis when a waiting quaternary component is
    # packed; n=2 needs a looser threshold and a lower error rate to keep k > 0 and
    # fail only some of its pools.  run_pool_experiment on a quaternary config
    # and run_quaternary_pool_experiment on a deletion one run the same cell.
    cells = (SMALL, dict(SMALL, n=4),
             dict(SMALL, n=2, delta_list=(0.001,), threshold_scale=50.0))

    def run_all(cfg, codes):
        quaternary = dataclasses.replace(cfg, error_kind="quaternary")
        rows = (run_pool_experiment(cfg, codes), run_quaternary_pool_experiment(cfg, codes),
                run_pool_experiment(quaternary, codes))
        return [dataclasses.replace(row, wall_time=0.0) for row, in rows]

    for cell in cells:
        cfg = ExperimentConfig(**cell)
        codes = {cfg.delta_list[0]: sim._construct(cfg, cfg.delta_list[0])[0]}
        base = run_all(cfg, codes)
        assert base[1] == base[2] and base[2].error_kind == "quaternary"
        for row in base[:2]:
            assert 0 < row.failure_count < cfg.pools, "cell should fail some pools"
        with monkeypatch.context() as m:
            for size in (1, 7, 1000):
                m.setattr(sim, "_pool_batch_size", lambda n, width, pools, size=size: size)
                assert run_all(cfg, codes) == base


def test_replay_reproduces_recorded_failures():
    cfg = ExperimentConfig(**SMALL)
    rows = run_pool_experiment(cfg)
    row = rows[0]
    assert row.failure_count > 0, "fixture config should produce failures"
    # rebuild the same code the run used
    code, _ = sim._construct(cfg, row.delta)
    # a recorded failure really mismatches the truth, driven from the CSV row
    _, delta, kind, *_, cell_seed, failed = \
        results_to_csv(rows, cfg.master_seed).split("\n")[2].split(",")
    failed = tuple(map(int, failed.split()))
    assert (int(cell_seed), failed) == (row.cell_seed, row.failed_pools)
    truth, decoded = replay_pool(code, kind, float(delta), int(cell_seed), failed[0])
    assert (truth != decoded).any()
    # and a pool not on the list decodes exactly
    good = next(i for i in range(row.pools_run) if i not in row.failed_pools)
    truth, decoded = replay_pool(code, row.error_kind, row.delta,
                                 row.cell_seed, good)
    assert (truth == decoded).all()
    # a kind no row carries is a usage error, with the config's message
    with pytest.raises(ValueError, match="unknown error kind 'bogus', expected one of "
                                         ".*'quaternary'"):
        replay_pool(code, "bogus", row.delta, row.cell_seed, good)


def test_pool_experiment_accepts_prebuilt_codes():
    code = make_polar_code(32, 0.0, np.zeros(32), threshold=0.5)
    rows = run_pool_experiment(
        ExperimentConfig(n=32, delta_list=(0.0,), error_kind="deletion",
                         pools=3, construction_samples=50, master_seed=4),
        codes={0.0: code})
    assert rows[0].code_rate == 1.0
    assert rows[0].failure_count == 0


def test_quaternary_experiment_zero_noise_and_determinism():
    cfg = ExperimentConfig(n=32, delta_list=(0.0,), error_kind="deletion",
                           pools=4, construction_samples=50, master_seed=5)
    rows = run_quaternary_pool_experiment(cfg)
    assert rows[0].failure_count == 0
    cfg2 = ExperimentConfig(n=64, delta_list=(0.02,), error_kind="deletion",
                            pools=20, construction_samples=200, master_seed=6)
    a = run_quaternary_pool_experiment(cfg2)
    b = run_quaternary_pool_experiment(cfg2)
    assert a[0].failure_count == b[0].failure_count
    assert a[0].failed_pools == b[0].failed_pools


def test_replay_reproduces_quaternary_failures():
    # quaternary rows say so, and replaying one rebuilds both components
    cfg = ExperimentConfig(n=64, delta_list=(0.02,), error_kind="deletion",
                           pools=20, construction_samples=200, master_seed=6)
    (row,) = run_quaternary_pool_experiment(cfg)
    assert row.error_kind == "quaternary"
    assert row.failure_count > 0, "fixture config should produce failures"
    code, _ = sim._construct(cfg, row.delta)
    for b in row.failed_pools:
        truth, decoded = replay_pool(code, row.error_kind, row.delta, row.cell_seed, b)
        assert truth.shape == (2, STRAND_LENGTH, code.k)
        assert (truth != decoded).any()
    good = next(i for i in range(row.pools_run) if i not in row.failed_pools)
    truth, decoded = replay_pool(code, row.error_kind, row.delta, row.cell_seed, good)
    assert (truth == decoded).all()


def test_quaternary_decoder_reads_each_components_observations(monkeypatch):
    # failed-pool lists hardly depend on reads of erasure padding, so a
    # waiting component that lost its erasures would not show there: check
    # what each decode is handed against the pools' own observations.  n=4
    # pads the strand axis when the imag component is packed, and needs a
    # loose threshold to keep k > 0; batches of 4 leave a last batch of 1.
    calls = []
    decode = sim.decode_pool_batch

    def recording(obs, *args):
        calls.append(np.array(obs))
        return decode(obs, *args)

    monkeypatch.setattr(sim, "decode_pool_batch", recording)
    monkeypatch.setattr(sim, "_pool_batch_size", lambda n, width, pools: 4)
    for n in (4, 64):
        cfg = ExperimentConfig(n=n, delta_list=(0.05,), error_kind="deletion", pools=9,
                               construction_samples=100, master_seed=3,
                               threshold_scale=200.0)
        code = sim._construct(cfg, 0.05)[0]
        calls.clear()
        (row,) = run_quaternary_pool_experiment(cfg, codes={0.05: code})
        want = np.stack([sim._generate_pool(np.random.default_rng([row.cell_seed, i]),
                                            code, "quaternary", 0.05)[1]
                         for i in range(cfg.pools)])
        assert (want == ERASURE).any() and (want[:, 1] != want[:, 0]).any()
        assert len(calls) == 6  # real then imag, for each of 3 batches
        for c in range(2):
            assert (np.concatenate(calls[c::2]) == want[:, c]).all()


def test_quaternary_cell_holds_one_unpacked_component():
    # A batch must hold the component being decoded, unpacked (256 x pools x n
    # bytes); the waiting component as one bit plane packed along strands;
    # both components' truth bits packed along k; and the decoded info bits
    # (pools x 256 x k bytes).  The bound allows one more unpacked component
    # for what works beside them: the pool being generated, the decoder's
    # per-position buffers and the SC plan, about half a component here.
    # Holding both components and the truth unpacked would need
    # 2 x 256 x pools x (n + k) + pools x 256 x k bytes of arrays alone,
    # which is above the bound.
    n, pools = 64, 64
    cfg = ExperimentConfig(n=n, delta_list=(0.01,), error_kind="deletion", pools=pools,
                           construction_samples=200, master_seed=1)
    code = sim._construct(cfg, 0.01)[0]
    component = STRAND_LENGTH * pools * n
    held = (component + STRAND_LENGTH * pools * (n // 8)
            + 2 * pools * STRAND_LENGTH * ((code.k + 7) // 8) + pools * STRAND_LENGTH * code.k)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run_quaternary_pool_experiment(cfg, codes={0.01: code})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < held + component, (peak, held, component)


def test_quaternary_experiment_rejects_other_kinds():
    for kind in ("insertion", "substitution"):
        with pytest.raises(ValueError):
            run_quaternary_pool_experiment(ExperimentConfig(
                n=32, delta_list=(0.01,), error_kind=kind, pools=2,
                construction_samples=50, master_seed=0))


def test_quaternary_uses_its_own_seed_stream():
    assert derive_seed(0, "pools", "deletion", 64, 0.01) != \
        derive_seed(0, "pools", "quaternary", 64, 0.01)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=48, delta_list=(0.01,))
    with pytest.raises(ValueError):
        ExperimentConfig(n=64, delta_list=(0.6,))
    with pytest.raises(ValueError, match="expected one of .*'quaternary'"):
        ExperimentConfig(n=64, delta_list=(0.01,), error_kind="duplication")
    assert sim.ERROR_KINDS == ("deletion", "insertion", "substitution", "quaternary")
    for kind in sim.ERROR_KINDS:
        assert ExperimentConfig(n=64, delta_list=(0.01,), error_kind=kind).error_kind == kind
    with pytest.raises(ValueError):
        ExperimentConfig(n=64, delta_list=(0.01,), pools=0)
    for scale in (0.0, np.inf):
        with pytest.raises(ValueError):
            ExperimentConfig(n=64, delta_list=(0.01,), threshold_scale=scale)


def test_config_threshold_scaling():
    cfg = ExperimentConfig(n=64, delta_list=(0.01,))
    assert cfg.threshold() == pytest.approx(1.0 / (256 * 64))
    cfg2 = dataclasses.replace(cfg, threshold_scale=3.0)
    assert cfg2.threshold() == pytest.approx(3.0 / (256 * 64))


# ---------------------------------------------------------------------------
# CSV output


def test_results_csv_format():
    rows = run_pool_experiment(ExperimentConfig(
        n=32, delta_list=(0.0,), error_kind="deletion", pools=2,
        construction_samples=50, master_seed=8))
    text = results_to_csv(rows, 8)
    lines = text.strip().split("\n")
    assert lines[0] == "# seed=8"
    assert lines[1] == "n,delta,error_kind,pools,failures,code_rate,seed,cell_seed,failed_pools"
    n, delta, kind, pools, fails, rate, seed, cell_seed, failed = lines[2].split(",")
    assert (int(n), float(delta), kind) == (32, 0.0, "deletion")
    assert (int(pools), int(fails), int(seed)) == (2, 0, 8)
    assert float(rate) == rows[0].code_rate
    assert int(cell_seed) == rows[0].cell_seed and failed == ""


def test_wall_time_and_counts_recorded():
    rows = run_pool_experiment(ExperimentConfig(**SMALL))
    assert rows[0].pools_run == 40
    assert 0 <= rows[0].failure_count <= 40
    assert rows[0].wall_time > 0
    assert math.isfinite(rows[0].wall_time)
    assert STRAND_LENGTH == 256
