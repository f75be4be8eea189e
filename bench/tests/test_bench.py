"""Tests of the benchmark itself: wrapper bindings, traced runs, refusal.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from genoweave import polar, weave  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(workload: str, seed: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=["construct", "simulate", "decode-one"])
def traced(request):
    proc = _run(request.param, seed=0)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return request.param, report, result, metrics


# layer call counters that must be nonzero on exactly these workloads
USED_ON = {
    "polar.equivocation_stats.samples": {"construct"},
    "rates.concat_envelope.calls": {"construct"},
    "polar.sc_decode_batch.calls": {"simulate", "decode-one"},
    "weave.decode_pool_batch.calls": {"simulate", "decode-one"},
    "weave.weave_encode.calls": {"simulate"},
    "polar.polar_transform.calls": {"simulate"},
    "channels.apply_channel_pool.calls": {"simulate"},
    "channels.delete_pool_coincident.calls": {"simulate"},
    "sim.run_pool_experiment.busy_s": {"simulate"},
    "sim.run_quaternary_pool_experiment.busy_s": {"simulate"},
    "cli.main.busy_s": {"simulate"},
}


def test_traced_run_is_correct_and_matches_untraced(traced):
    name, report, result, metrics = traced
    assert result["correct"] and result["failed"] == 0
    assert report["check_failures"] == [] and report["checks_made"] > 0
    # every per-layer metric of BENCHMARK.json is printed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["check_fail_frac"] == 0.0


def test_wrappers_count_where_calls_go(traced):
    name, _, _, metrics = traced
    for metric, used_on in USED_ON.items():
        if name in used_on:
            assert metrics[metric] > 0, metric
        else:
            assert metrics[metric] == 0, metric


def test_batch_widths(traced):
    name, report, _, metrics = traced
    if name == "decode-one":
        assert metrics["polar.sc_decode_batch.mean_batch"] == 1
        assert metrics["polar.sc_decode_batch.calls"] == 256 * metrics["weave.decode_pool_batch.pools"]
    elif name == "simulate":
        # 3 cells of 256 pools, the quaternary one decoded as two component batches
        assert metrics["polar.sc_decode_batch.mean_batch"] == 256
        assert metrics["weave.decode_pool_batch.calls"] == 4 * report["ops"]
        assert metrics["channels.apply_channel_pool.calls"] == 2 * 256 * report["ops"]


def test_patching_the_defining_module_sees_nothing():
    code = polar.make_polar_code(8, 0.1, np.linspace(0.0, 1.0, 8))
    obs = np.zeros((1, 8, 4), dtype=np.uint8)
    defining, importing = Tracer(), Tracer()
    with defining.installed([(polar, "sc_decode_batch", "sc", lambda r: 1)]):
        weave.decode_pool_batch(obs, code, "fixed", 4)
    with importing.installed([(weave, "sc_decode_batch", "sc", lambda r: 1)]):
        weave.decode_pool_batch(obs, code, "fixed", 4)
    assert defining.stats("sc").calls == 0
    assert importing.stats("sc").calls == 4
    assert weave.sc_decode_batch is polar.sc_decode_batch  # restored


def test_self_time_excludes_wrapped_children():
    import types
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.01) or 7
    mod.outer = lambda: mod.inner() + 1
    tr = Tracer()
    with tr.installed([(mod, "inner", "inner", lambda r: r), (mod, "outer", "outer", lambda r: 1)]):
        assert mod.outer() == 8
        with tr.pause():
            mod.outer()
    inner, outer = tr.stats("inner"), tr.stats("outer")
    assert (inner.calls, inner.work, outer.calls) == (1, 7, 1)
    assert outer.self_s == pytest.approx(outer.busy_s - inner.busy_s)
    assert outer.self_s < inner.busy_s


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("construct", seed=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
