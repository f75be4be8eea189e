"""Experiment harness: seeding, determinism, failure counting, CSV output."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from genoweave import sim
from genoweave.polar import make_polar_code
from genoweave.rates import capacity
from genoweave.sim import (
    STRAND_LENGTH,
    ExperimentConfig,
    derive_seed,
    equivocation_histogram,
    replay_pool,
    results_to_csv,
    run_construction_sweep,
    run_pool_experiment,
    run_quaternary_pool_experiment,
    semilog_floor,
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
    points = run_construction_sweep(ExperimentConfig(
        n=32, delta_list=(0.0,), construction_samples=50, master_seed=0))
    assert points[0].code_rate == 1.0
    assert points[0].equivocations.tolist() == [0.0] * 32


def test_construction_rate_below_capacity_at_small_n():
    # far from asymptotic: the conservative threshold stays under capacity
    for n, delta in ((64, 0.05), (256, 0.01)):
        points = run_construction_sweep(ExperimentConfig(
            n=n, delta_list=(delta,), construction_samples=500, master_seed=2))
        assert points[0].code_rate < capacity(2, delta)


def test_construction_sweep_is_deterministic():
    cfg = ExperimentConfig(n=64, delta_list=(0.01, 0.05),
                           construction_samples=150, master_seed=9)
    a = run_construction_sweep(cfg)
    b = run_construction_sweep(cfg)
    for pa, pb in zip(a, b):
        assert pa.code_rate == pb.code_rate
        assert (pa.equivocations == pb.equivocations).all()


# ---------------------------------------------------------------------------
# pool experiments


def test_pool_experiment_zero_noise_zero_failures():
    for kind in ("deletion", "insertion", "substitution"):
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
    # fail only some of its pools
    cells = (SMALL, dict(SMALL, n=4),
             dict(SMALL, n=2, delta_list=(0.001,), threshold_scale=50.0))
    for run in (run_pool_experiment, run_quaternary_pool_experiment):
        for cell in cells:
            cfg = ExperimentConfig(**cell)
            codes = {cfg.delta_list[0]: sim._construct(cfg, cfg.delta_list[0])[0]}
            base = run(cfg, codes)
            assert 0 < base[0].failure_count < cfg.pools, "cell should fail some pools"
            with monkeypatch.context() as m:
                for size in (1, 7, 1000):
                    m.setattr(sim, "_pool_batch_size", lambda n, width, pools, size=size: size)
                    rows = run(cfg, codes)
                    assert rows[0].failure_count == base[0].failure_count
                    assert rows[0].failed_pools == base[0].failed_pools


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


def test_packed_planes_hold_every_symbol():
    # failed-pool lists hardly depend on reads of erasure padding, so a
    # plane that lost erasures would not show there: check the format itself
    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 64):
        sym = rng.integers(0, 3, size=(5, n, STRAND_LENGTH), dtype=np.uint8)
        planes = np.empty((2, STRAND_LENGTH, 5, (n + 7) // 8), dtype=np.uint8)
        for b, pool in enumerate(sym):
            sim._pack_planes(pool, planes[:, :, b])
        out = np.empty((STRAND_LENGTH, 5, n), dtype=np.uint8)
        sim._unpack_planes(planes, out)
        assert (out == sym.transpose(2, 0, 1)).all()


def test_quaternary_cell_holds_one_unpacked_component():
    # A batch must hold the component being decoded, unpacked (256 x pools x n
    # bytes); the waiting component as two bit planes packed along strands;
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
    held = (component + 2 * STRAND_LENGTH * pools * (n // 8)
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
    with pytest.raises(ValueError):
        run_quaternary_pool_experiment(ExperimentConfig(
            n=32, delta_list=(0.01,), error_kind="insertion", pools=2,
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
    with pytest.raises(ValueError):
        ExperimentConfig(n=64, delta_list=(0.01,), error_kind="duplication")
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
# presentation helpers


def test_equivocation_histogram_sorted_pairs():
    eq = np.array([0.5, 0.1, 0.9, 0.0])
    hist = equivocation_histogram(eq)
    assert hist.shape == (4, 2)
    assert hist[:, 0].tolist() == [0.25, 0.5, 0.75, 1.0]
    assert hist[:, 1].tolist() == [0.0, 0.1, 0.5, 0.9]


def test_semilog_floor():
    vals = np.array([0.0, 1e-310, 0.25])
    out = semilog_floor(vals)
    assert out.tolist() == [1e-300, 1e-300, 0.25]


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
