"""genoweave benchmark: one workload per process, metrics as JSON.

    python3 bench/run.py --workload construct|simulate|decode-one \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the timed loop runs once
untraced and once more, on the same operations, with every layer wrapped,
and the metrics are the per-layer ones.  The line before it records the
environment and the workload's own figures.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 6  # extra fresh-process set-ups; setup_s is the median with the run's own


def _pin_environment() -> None:
    # numpy reads these when it is first imported, so nothing imports it earlier
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # measure the default pool batch width, not a caller's override
    os.environ.pop("GENOWEAVE_POOL_BATCH", None)


def _import_workloads():
    if not (SRC / "genoweave" / "__init__.py").is_file():
        sys.exit(f"error: no genoweave package under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import genoweave
    if Path(genoweave.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: genoweave imported from {genoweave.__file__}, not {SRC}")
    import workloads
    return workloads


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("construct", "simulate", "decode-one"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _probe_setup(name: str) -> float:
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                          "--setup-probe"], cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_phase(wl, seed: int, seconds: float | None, count: int | None = None, tracer=None):
    """Closed loop: run operations until `count` are done, or while the next
    one is expected to finish within `seconds` of timed work (at least one).

    Also returns the peak RSS once the first operation has ended: the
    allocator's fragmentation makes the whole-run peak grow with the number
    of operations, so only this one is comparable across runs."""
    ops, times, errors, first_rss_mb = [], [], 0, None
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif times and sum(times) + statistics.median(times) > seconds:
            break
        t0 = time.perf_counter()
        try:
            with tracer.pause() if tracer else contextlib.nullcontext():
                prep = wl.prepare(seed, i)
            t0 = time.perf_counter()
            out = wl.op(seed, i, prep)
            times.append(time.perf_counter() - t0)
            ops.append((i, out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            errors += 1
            times.append(time.perf_counter() - t0)
        if first_rss_mb is None:
            first_rss_mb = _peak_rss_mb()
        i += 1
    return ops, times, errors, first_rss_mb


def _environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": src_hash.hexdigest(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "GENOWEAVE_POOL_BATCH": os.environ.get("GENOWEAVE_POOL_BATCH"),
    }


def _quantiles_ms(times) -> tuple[float, float]:
    import numpy
    p50, p75 = numpy.percentile(numpy.asarray(times) * 1e3, [50, 75])
    return float(p50), float(p75)


def _layer_metrics(tracer, traced_s: float, untraced_s: float) -> dict:
    st = tracer.stats

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    eq, sc, dec = st("polar.equivocation_stats"), st("polar.sc_decode_batch"), st("weave.decode_pool_batch")
    enc, pt = st("weave.weave_encode"), st("polar.polar_transform")
    ch, dc = st("channels.apply_channel_pool"), st("channels.delete_pool_coincident")
    rp, rq = st("sim.run_pool_experiment"), st("sim.run_quaternary_pool_experiment")
    main, env = st("cli.main"), st("rates.concat_envelope")
    m = {
        "polar.equivocation_stats.samples": (eq.work, "count"),
        "polar.equivocation_stats.busy_s": (eq.busy_s, "s"),
        "polar.equivocation_stats.us_per_sample": (per(eq.busy_s, eq.work, 1e6), "us"),
        "polar.sc_decode_batch.calls": (sc.calls, "count"),
        "polar.sc_decode_batch.codewords": (sc.work, "count"),
        "polar.sc_decode_batch.mean_batch": (per(sc.work, sc.calls, 1.0), "count"),
        "polar.sc_decode_batch.busy_s": (sc.busy_s, "s"),
        "polar.sc_decode_batch.us_per_codeword": (per(sc.busy_s, sc.work, 1e6), "us"),
        "weave.decode_pool_batch.calls": (dec.calls, "count"),
        "weave.decode_pool_batch.pools": (dec.work, "count"),
        "weave.decode_pool_batch.busy_s": (dec.busy_s, "s"),
        "weave.decode_pool_batch.ms_per_pool": (per(dec.busy_s, dec.work, 1e3), "ms"),
        "weave.decode_pool_batch.self_s": (dec.self_s, "s"),
        "weave.weave_encode.calls": (enc.calls, "count"),
        "weave.weave_encode.busy_s": (enc.busy_s, "s"),
        "polar.polar_transform.calls": (pt.calls, "count"),
        "polar.polar_transform.rows": (pt.work, "count"),
        "polar.polar_transform.busy_s": (pt.busy_s, "s"),
        "channels.apply_channel_pool.calls": (ch.calls, "count"),
        "channels.apply_channel_pool.busy_s": (ch.busy_s, "s"),
        "channels.apply_channel_pool.ms_per_pool": (per(ch.busy_s, ch.work, 1e3), "ms"),
        "channels.delete_pool_coincident.calls": (dc.calls, "count"),
        "channels.delete_pool_coincident.busy_s": (dc.busy_s, "s"),
        "sim.run_pool_experiment.busy_s": (rp.busy_s, "s"),
        "sim.run_quaternary_pool_experiment.busy_s": (rq.busy_s, "s"),
        "sim.self_s": (rp.self_s + rq.self_s, "s"),
        "cli.main.busy_s": (main.busy_s, "s"),
        "cli.main.self_s": (main.self_s, "s"),
        "rates.concat_envelope.calls": (env.calls, "count"),
        "rates.concat_envelope.busy_s": (env.busy_s, "s"),
        "trace_overhead_frac": (per(traced_s, untraced_s, 1.0) - 1.0, "frac"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _pin_environment()
    workloads = _import_workloads()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup()
    own_setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(own_setup_s))
        return 0

    setups = [own_setup_s] + [_probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    ops, times, errors, first_rss_mb = _run_phase(wl, args.seed, args.seconds)
    phases = [(ops, times)]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        with tracer.installed(workloads.LAYER_BINDINGS):
            t_ops, t_times, t_errors, _ = _run_phase(wl, args.seed, None, count=len(times),
                                                     tracer=tracer)
        phases.append((t_ops, t_times))
        errors += t_errors
    run_peak_rss_mb = _peak_rss_mb()

    checks = workloads.Checks()
    pools = workloads.PoolTally()
    for i, out in ops:
        wl.check(args.seed, i, out, checks)
        wl.tally(out, pools)
    wl.final_checks(args.seed, ops, checks)
    if args.trace:
        same = [wl.fingerprint(o) for _, o in ops] == [wl.fingerprint(o) for _, o in phases[1][0]]
        checks.expect(same, "traced run outputs differ from the untraced run")
    for what in checks.failed:
        print(f"check failed: {what}", file=sys.stderr)

    attempted = sum(len(t) for _, t in phases)
    units = sum(wl.units(o) for _, o in ops)
    busy = sum(times)
    p50, p75 = _quantiles_ms(times)
    check_fail_frac = len(checks.failed) / checks.made if checks.made else 0.0
    pool_failure_frac = pools.failed / pools.attempted if pools.attempted else 0.0
    own = {"construct": {"construct_samples_per_s": units / busy},
           "simulate": {"simulate_pools_per_s": units / busy},
           "decode-one": {"decode_one_ms_p50": p50, "decode_one_ms_p75": p75}}[args.workload]
    report = {
        "env": _environment(args),
        "ops": len(times), "work_units": units, "op_seconds": times,
        "setup_samples_s": setups, "run_peak_rss_mb": run_peak_rss_mb,
        "checks_made": checks.made, "check_failures": checks.failed,
        "check_fail_frac": check_fail_frac,
        "pools_attempted": pools.attempted, "pools_failed": pools.failed,
        "pool_failure_frac": pool_failure_frac,
        **own,
    }
    print(json.dumps(report))

    if args.trace:
        metrics = _layer_metrics(tracer, sum(phases[1][1]), busy)
        metrics["check_fail_frac"] = {"value": check_fail_frac, "unit": "frac"}
        metrics["pool_failure_frac"] = {"value": pool_failure_frac, "unit": "frac"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput": {"value": units / busy, "unit": "1/s"},
            "latency_ms_p50": {"value": p50, "unit": "ms"},
            "latency_ms_p75": {"value": p75, "unit": "ms"},
            "peak_rss_mb": {"value": first_rss_mb, "unit": "MB"},
        }
    result = {"correct": not checks.failed and errors == 0, "attempted": attempted,
              "failed": errors, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
