"""Experiment harness: seeding, determinism, failure counting, CSV output."""

import dataclasses
import math
import multiprocessing
import os
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from genoweave import sim
from genoweave.channels import ERASURE, delete_pool_coincident
from genoweave.polar import PolarCode, design_polar_code, make_polar_code
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
from genoweave.weave import weave_encode

SMALL = dict(n=64, delta_list=(0.02,), error_kind="deletion", pools=40,
             construction_samples=200, master_seed=1)


def _loose_code(cfg: ExperimentConfig, delta: float, scale: float):
    # the code _construct builds for cfg, selected against scale / (256 n)
    # rather than the default 1 / (256 n) to keep k > 0 at tiny n
    return design_polar_code(cfg.n, delta, samples=cfg.construction_samples,
                             seed=derive_seed(cfg.master_seed, "construct", cfg.n, delta),
                             threshold=scale / (STRAND_LENGTH * cfg.n))


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


def test_derive_seed_hashes_numpy_floats_and_refuses_non_integers():
    # a numpy float hashes by its value as a Python float, not truncated to
    # an integer; numpy integers are integers
    assert derive_seed(np.float32(0.5)) == derive_seed(0.5) != derive_seed(0)
    assert derive_seed(np.float64(0.01), 3) == derive_seed(0.01, 3)
    assert derive_seed(np.int64(7), "pools") == derive_seed(7, "pools")
    # a number that is neither would collide with the integer it truncates to
    for part in (Fraction(1, 2), Decimal("0.5")):
        message = f"seed part {part!r} is not an int, float or str"
        with pytest.raises(TypeError, match=re.escape(message)):
            derive_seed(0, part)


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
    # a row holds only what the seed fixes, so whole rows compare equal
    a = run_pool_experiment(ExperimentConfig(**SMALL))
    b = run_pool_experiment(ExperimentConfig(**SMALL))
    assert a == b
    # the count derives from failed_pools rather than being stored beside it
    assert a[0].failure_count == len(a[0].failed_pools) > 0
    assert {"failure_count", "wall_time"}.isdisjoint(f.name for f in dataclasses.fields(a[0]))


def test_pool_experiment_batch_size_invariant(monkeypatch):
    # n=2 and n=4 have k below 8, so the packed truth bits pad their byte;
    # n=2 needs a looser threshold and a lower error rate to keep k > 0 and
    # fail only some of its pools.  run_pool_experiment on a quaternary config
    # and run_quaternary_pool_experiment on a deletion one run the same cell.
    cells = ((SMALL, 1.0), (dict(SMALL, n=4), 1.0),
             (dict(SMALL, n=2, delta_list=(0.001,)), 50.0))

    def run_all(cfg, codes):
        quaternary = dataclasses.replace(cfg, error_kind="quaternary")
        rows = (run_pool_experiment(cfg, codes), run_quaternary_pool_experiment(cfg, codes),
                run_pool_experiment(quaternary, codes))
        return [row for row, in rows]

    for cell, scale in cells:
        cfg = ExperimentConfig(**cell)
        codes = {cfg.delta_list[0]: _loose_code(cfg, cfg.delta_list[0], scale)}
        base = run_all(cfg, codes)
        assert base[1] == base[2] and base[2].error_kind == "quaternary"
        for row in base[:2]:
            assert 0 < row.failure_count < cfg.pools, "cell should fail some pools"
        with monkeypatch.context() as m:
            for size in (1, 7, 1000):
                m.setattr(sim, "_ranges", _ranges_of(size))
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
    # an index is a stream key, so a negative or fractional one is refused
    # by name, as the config refuses its counts
    for index, message in ((-1, "pool_index must be at least 0, got -1"),
                           (1.0, "pool_index must be an integer, got 1.0"),
                           (Fraction(1, 2), "pool_index must be an integer, got Fraction(1, 2)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replay_pool(code, row.error_kind, row.delta, row.cell_seed, index)


@pytest.mark.parametrize("kind", sim.ERROR_KINDS)
def test_every_pool_replays_to_its_recorded_status(kind):
    # the cell decodes its 40 pools as one range; each replays alone, and
    # exactly the recorded pools mismatch their truth
    cfg = ExperimentConfig(**dict(SMALL, delta_list=(0.05,), error_kind=kind))
    (row,) = run_pool_experiment(cfg)
    assert 0 < row.failure_count < cfg.pools, f"{kind} should fail some pools"
    code, _ = sim._construct(cfg, row.delta)
    parts = 2 if kind == "quaternary" else 1
    replayed = []
    for i in range(cfg.pools):
        truth, decoded = replay_pool(code, row.error_kind, row.delta, row.cell_seed, i)
        assert truth.shape == decoded.shape == (parts, STRAND_LENGTH, code.k)
        if (truth != decoded).any():
            replayed.append(i)
    assert tuple(replayed) == row.failed_pools


def test_pool_experiment_accepts_prebuilt_codes():
    code = make_polar_code(32, 0.0, np.zeros(32), threshold=0.5)
    rows = run_pool_experiment(
        ExperimentConfig(n=32, delta_list=(0.0,), error_kind="deletion",
                         pools=3, construction_samples=50, master_seed=4),
        codes={0.0: code})
    assert rows[0].code_rate == 1.0
    assert rows[0].failure_count == 0
    # a code of another length would not fit the pool arrays
    with pytest.raises(ValueError, match="has n=32, the config n=16"):
        run_pool_experiment(ExperimentConfig(n=16, delta_list=(0.0,), pools=3),
                            codes={0.0: code})


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


def _quaternary_observations(code, delta, cell_seed, index):
    # pool index of a quaternary cell, drawn from its own stream without
    # sim: both components' info bits, then one deletion pattern for both
    rng = np.random.default_rng([cell_seed, index])
    info = rng.integers(0, 2, size=(2, STRAND_LENGTH, code.k), dtype=np.uint8)
    real, imag = (weave_encode(part, code).strands for part in info)
    return np.stack([obs for obs, _ in delete_pool_coincident(real, imag, delta, rng)])


def test_quaternary_decoder_reads_each_components_observations(monkeypatch):
    # failed-pool lists hardly depend on reads of erasure padding, so a
    # component read from the wrong column would hardly show there: check
    # what each decode is handed against the pools' own observations, pool
    # b's components side by side in columns 2b and 2b + 1.  n=4 needs a
    # loose threshold to keep k > 0; ranges of 4 leave a last range of 1.
    calls = []
    decode = sim.decode_pool_batch

    def recording(obs, *args):
        calls.append(np.array(obs))
        return decode(obs, *args)

    monkeypatch.setattr(sim, "decode_pool_batch", recording)
    monkeypatch.setattr(sim, "_ranges", _ranges_of(4))
    # a decode in a worker process would not reach the spy
    monkeypatch.setattr(sim, "_workers", lambda: 1)
    for n in (4, 64):
        cfg = ExperimentConfig(n=n, delta_list=(0.05,), error_kind="deletion", pools=9,
                               construction_samples=100, master_seed=3)
        code = _loose_code(cfg, 0.05, 200.0)
        calls.clear()
        (row,) = run_quaternary_pool_experiment(cfg, codes={0.05: code})
        want = np.stack([_quaternary_observations(code, 0.05, row.cell_seed, i)
                         for i in range(cfg.pools)])
        assert (want == ERASURE).any() and (want[:, 1] != want[:, 0]).any()
        assert len(calls) == 3  # one decode per range, both components in it
        got = np.concatenate(calls)
        assert (got == want.reshape(2 * cfg.pools, n, -1)).all()


def test_quaternary_range_holds_its_columns_unpacked_and_its_truth_packed(monkeypatch):
    # At one process the rule decodes these 64 pools as one range of 128
    # columns, both components of each pool side by side.  A range holds
    # its columns' observations unpacked (256 x columns x n bytes), their
    # truth bits packed along k and the decoded info bits (columns x 256 x
    # k bytes).  The slack is what else grows with the range's columns:
    # the decoder's five per-position (n, columns) arrays of 8-byte words
    # (base, at, idx, shift, lam), the SC plan's four (its levels take
    # about two, with its scratch and partial sums), and as many again for
    # SC's temporaries and the pool being generated.  Holding the truth
    # unpacked would add 7/8 of the decoded info bytes (0.95 MB here) to a
    # peak that uses most of the slack (4.30 MB against a bound of 4.55).
    n, pools = 64, 64
    cfg = ExperimentConfig(n=n, delta_list=(0.01,), error_kind="deletion", pools=pools,
                           construction_samples=200, master_seed=1)
    code = sim._construct(cfg, 0.01)[0]
    processes, ranges = sim._ranges(n, STRAND_LENGTH, pools, 2, 1)
    columns = 2 * max(count for _, count in ranges)
    assert (processes, columns) == (1, 2 * pools)
    held = columns * STRAND_LENGTH * (n + (code.k + 7) // 8 + code.k)
    slack = 18 * 8 * n * columns
    # tracemalloc sees this process only, so every range decodes in it
    monkeypatch.setattr(sim, "_workers", lambda: 1)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run_quaternary_pool_experiment(cfg, codes={0.01: code})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < held + slack, (peak, held, slack)


@pytest.mark.parametrize("n", (16, 64))
def test_quaternary_decodes_two_columns_per_pool_of_a_range(monkeypatch, capsys, n):
    # The rule counts a quaternary pool as two decoded columns: at one
    # process a cell of 128 pools is one range, decoded 256 columns wide,
    # and at two it splits into two ranges of 64 pools, one per process.
    cfg = ExperimentConfig(n=n, delta_list=(0.02,), error_kind="quaternary", pools=128,
                           construction_samples=100, master_seed=2)
    codes = {0.02: _loose_code(cfg, 0.02, 1.0)}
    widths = []
    decode = sim.decode_pool_batch

    def recording(obs, *args):
        widths.append(obs.shape[0])
        return decode(obs, *args)

    monkeypatch.setattr(sim, "decode_pool_batch", recording)
    # a decode in a worker process would not reach the spy
    monkeypatch.setattr(sim, "_workers", lambda: 1)
    one = run_pool_experiment(cfg, codes)
    _, ranges = sim._ranges(n, STRAND_LENGTH, cfg.pools, 2, 1)
    assert widths == [2 * count for _, count in ranges] == [256]
    assert 0 < one[0].failure_count < cfg.pools

    monkeypatch.setattr(sim, "_workers", lambda: 2)
    capsys.readouterr()
    assert run_pool_experiment(cfg, codes) == one
    lines = [f for stage, f in _progress_lines(capsys.readouterr().err) if stage == "pools"]
    assert [(f["done"], f["workers"]) for f in lines] == [("64", "2"), ("128", "2")]


def _ranges_of(size: int, rule=sim._ranges):
    # the rule's processes, with ranges of size pools in place of its own;
    # rule is bound at import, so it is never a patched stand-in

    def ranges(n, width, pools, parts, workers):
        processes, _ = rule(n, width, pools, parts, workers)
        return processes, [(a, min(size, pools - a)) for a in range(0, pools, size)]
    return ranges


def _range_widths(*args):
    processes, ranges = sim._ranges(*args)
    return processes, [count for _, count in ranges]


def test_pool_batch_size_counts_components():
    # The one rule, sim._ranges, at one process: its ranges are the
    # one-process decodes.
    widths = _range_widths
    # one process: a decode is never wider than the cell's columns, a
    # quaternary pool's two components counting as two, or 2^26
    # observation bytes, which a quaternary range fills with half the pools
    assert widths(256, 256, 256, 1, 1) == widths(256, 512, 256, 1, 1) == (1, [256])
    assert widths(256, 256, 256, 2, 1) == (1, [256])
    assert widths(4096, 256, 100, 1, 1) == (1, [64, 36])
    assert widths(4096, 256, 100, 2, 1) == (1, [32, 32, 32, 4])
    assert widths(16, 256, 3, 2, 1) == (1, [3])
    assert widths(16, 256, 1, 2, 1) == (1, [1])


def test_shares_are_contiguous_and_never_under_the_floor(monkeypatch):
    # The same rule over several cores: its ranges are the decodes the
    # processes share.
    rule, widths = sim._ranges, _range_widths
    # two cores split the bench's binary cells into decodes of 128 columns
    # and its quaternary cell into decodes of 256, 128 pools of two
    # components; a cell under two floors' worth of columns does not
    # split, so the 64-column decodes at n=4096 stay in one process, as
    # do 100 quaternary pools, but 128 split
    assert widths(256, 256, 256, 1, 2) == widths(256, 512, 256, 1, 2) == (2, [128, 128])
    assert widths(256, 256, 256, 2, 2) == (2, [128, 128])
    assert widths(256, 256, 128, 2, 2) == (2, [64, 64])
    assert widths(256, 256, 100, 2, 2) == (1, [100])
    assert widths(256, 256, 255, 1, 8) == (1, [255])
    assert widths(4096, 256, 100, 1, 2) == (1, [64, 36])
    assert widths(256, 256, 1000, 1, 3) == (3, [333, 333, 333, 1])
    for floor in (1, 3, 128):
        monkeypatch.setattr(sim, "_MIN_COLUMNS", floor)
        for n, width in ((1, 256), (64, 512), (256, 256), (4096, 512)):
            for parts in (1, 2):
                for workers in (1, 2, 3, 8):
                    for pools in (*range(1, 20), 127, 128, 129, 255, 256, 257, 1000):
                        processes, ranges = rule(n, width, pools, parts, workers)
                        starts, counts = zip(*ranges)
                        columns = min(pools * parts, (1 << 26) // (n * width))
                        widest = max(counts)
                        assert 1 <= processes <= workers
                        assert processes == 1 or processes * floor <= columns
                        # contiguous, in order, covering every pool once
                        assert list(starts) == [0, *accumulate(counts)][:-1]
                        assert sum(counts) == pools and min(counts) >= 1
                        # the processes hold no more columns at once than
                        # the rule allows, unless a range is a single pool
                        assert widest == 1 or processes * widest * parts <= columns


def _sparse_code(n: int, delta: float) -> PolarCode:
    # few info bits, so a decode at n=4096 runs a short SC plan: the 32
    # channels of largest index weight, which polarize best, and channel
    # 185, which fails some pools of every kind at delta = 1%
    weight = np.array([bin(j).count("1") for j in range(n)])
    info = np.union1d(np.argsort(-weight, kind="stable")[:32], [185])
    return PolarCode(n=n, design_delta=delta, equivocations=np.zeros(n), info_set=info)


@pytest.mark.parametrize("n", (64, 4096))
def test_failed_pools_independent_of_worker_count(monkeypatch, capsys, n):
    # A floor of one column lets the cell split over the patched worker
    # count, in the rule's own ranges and in ranges of 1 and 7 pools.  The
    # rows must equal the one-process rows, and there is one progress line
    # per range, naming the processes that decoded the cell.
    if n == 64:
        cfg = ExperimentConfig(**dict(SMALL, pools=10))
        codes = {0.02: _loose_code(cfg, 0.02, 1.0)}
    else:
        cfg = ExperimentConfig(n=n, delta_list=(0.01,), pools=3, master_seed=1)
        codes = {0.01: _sparse_code(n, 0.01)}
    monkeypatch.setattr(sim, "_MIN_COLUMNS", 1)
    rule = sim._ranges
    split = 0
    for kind in sim.ERROR_KINDS:
        kcfg = dataclasses.replace(cfg, error_kind=kind)
        base = None
        for workers in (1, 2, 3):
            monkeypatch.setattr(sim, "_workers", lambda workers=workers: workers)
            for size in (None, 1, 7):
                monkeypatch.setattr(sim, "_ranges", _ranges_of(size) if size else rule)
                capsys.readouterr()
                rows = run_pool_experiment(kcfg, codes)
                assert multiprocessing.active_children() == []
                base = base or rows
                assert rows == base, (kind, workers, size)
                lines = [f for stage, f in _progress_lines(capsys.readouterr().err)
                         if stage == "pools"]
                mode, parts, width = sim._KINDS[kind]
                assert width == (2 * STRAND_LENGTH if mode == "pull" else STRAND_LENGTH)
                processes, ranges = sim._ranges(n, width, cfg.pools, parts, workers)
                assert [(int(f["done"]), int(f["workers"])) for f in lines] == \
                    [(start + count, processes) for start, count in ranges]
                split += processes > 1 and len(ranges) > 1
        assert 0 < base[0].failure_count < cfg.pools, f"{kind} should fail some pools"
    # every kind splits at 2 and 3 workers, in ranges of 1 pool and in the
    # rule's; of 7 pools too where there are more
    assert split == 4 * 2 * (3 if n == 64 else 2)


def test_worker_value_error_surfaces_unchanged(monkeypatch):
    # the error is raised only in worker processes, and reaches the caller
    # with its type and message; no worker outlives the call
    parent = os.getpid()
    encode = sim.weave_encode

    def refusing(*args):
        if os.getpid() != parent:
            raise ValueError("pool refused in a worker")
        return encode(*args)

    monkeypatch.setattr(sim, "weave_encode", refusing)
    monkeypatch.setattr(sim, "_MIN_COLUMNS", 1)
    monkeypatch.setattr(sim, "_workers", lambda: 2)
    with pytest.raises(ValueError) as raised:
        run_pool_experiment(ExperimentConfig(**dict(SMALL, pools=6)))
    assert type(raised.value) is ValueError
    assert str(raised.value) == "pool refused in a worker"
    assert multiprocessing.active_children() == []


def test_batches_run_inline_where_fork_is_unavailable(monkeypatch, capsys):
    cfg = ExperimentConfig(**dict(SMALL, pools=12))
    base = run_pool_experiment(cfg)

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    monkeypatch.setattr(sim, "_MIN_COLUMNS", 1)
    monkeypatch.setattr(sim, "_workers", lambda: 2)
    monkeypatch.setattr(sim, "_ranges", _ranges_of(5))
    capsys.readouterr()
    assert run_pool_experiment(cfg) == base
    lines = [f for stage, f in _progress_lines(capsys.readouterr().err) if stage == "pools"]
    assert [(f["done"], f["workers"]) for f in lines] == [("5", "1"), ("10", "1"), ("12", "1")]


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
    # -0.0 is the rate 0.0, with its seeds: derive_seed hashes the IEEE bits
    cfg = ExperimentConfig(n=64, delta_list=(-0.0, np.float64(-0.0), 0.01))
    assert [math.copysign(1.0, d) for d in cfg.delta_list] == [1.0, 1.0, 1.0]
    assert derive_seed(0, "pools", "deletion", 64, cfg.delta_list[0]) == \
        derive_seed(0, "pools", "deletion", 64, 0.0)
    # numpy's own message would not say which seed it refused
    with pytest.raises(ValueError, match="master seed must be nonnegative, got -1"):
        ExperimentConfig(n=64, delta_list=(0.01,), master_seed=-1)
    # a count that is not an integer would fail later, in range(), without
    # naming its field
    for field in ("n", "pools", "construction_samples", "master_seed"):
        for value in (2.5, 64.0, Fraction(64, 1)):
            message = f"{field} must be an integer, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ExperimentConfig(**{"n": 64, "delta_list": (0.01,), field: value})
    cfg = ExperimentConfig(n=np.int64(64), delta_list=(0.01,), pools=np.int32(3),
                           construction_samples=np.uint16(5), master_seed=np.int64(2))
    assert (cfg.n, cfg.pools, cfg.construction_samples, cfg.master_seed) == (64, 3, 5, 2)
    assert {type(v) for v in (cfg.n, cfg.pools, cfg.construction_samples,
                              cfg.master_seed)} == {int}


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


def _progress_lines(err: str) -> list[tuple[str, dict[str, str]]]:
    # every stderr line is "[genoweave] <stage>" followed only by key=value fields
    lines = []
    for line in err.splitlines():
        tag, stage, *fields = line.split(" ")
        assert tag == "[genoweave]" and stage in ("construct", "pools"), line
        assert all(len(f.split("=")) == 2 and all(f.split("=")) for f in fields), line
        lines.append((stage, dict(f.split("=") for f in fields)))
    return lines


def test_progress_lines_report_constructions_and_counts(capsys, monkeypatch):
    # With three workers and a floor of 8 columns, 40 pools decode on three
    # processes in ranges of 13, the last of one pool: four pools lines per
    # cell, each naming the three processes.
    monkeypatch.setattr(sim, "_workers", lambda: 3)
    monkeypatch.setattr(sim, "_MIN_COLUMNS", 8)
    cfg = ExperimentConfig(**dict(SMALL, delta_list=(0.02, 0.05)))
    codes = {d: sim._construct(cfg, d)[0] for d in cfg.delta_list}
    capsys.readouterr()
    for given in (None, codes):
        rows = run_pool_experiment(cfg, given)
        lines = _progress_lines(capsys.readouterr().err)
        constructs = [f for stage, f in lines if stage == "construct"]
        # one construct line per delta without codes, none with them
        assert [float(f["delta"]) for f in constructs] == ([] if given else [0.02, 0.05])
        for f in constructs:
            assert (int(f["n"]), int(f["samples"])) == (64, 200)
        for row in rows:
            pools = [f for stage, f in lines
                     if stage == "pools" and float(f["delta"]) == row.delta]
            assert [int(f["done"]) for f in pools] == [13, 26, 39, 40]
            assert [int(f["workers"]) for f in pools] == [3, 3, 3, 3]
            last = pools[-1]
            assert int(last["done"]) == int(last["pools"]) == row.pools_run == 40
            assert int(last["failures"]) == row.failure_count
            assert last["kind"] == row.error_kind and int(last["n"]) == row.n
        assert rows[0].failure_count > 0, "fixture config should produce failures"
        for _, f in lines:
            assert math.isfinite(float(f["seconds"])) and float(f["seconds"]) >= 0
    assert STRAND_LENGTH == 256
