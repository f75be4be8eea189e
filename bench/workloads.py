"""The three benchmark workloads and the output checks made on each.

Each workload is a closed loop with one caller: operation i starts when
operation i-1 has returned.  Operation i draws all of its randomness from
the workload seed and i, so a run is reproducible and a traced run repeats
exactly the operations of the untraced run it is compared with.

- construct: genie Monte-Carlo construction of the n=4096, delta=1% code,
  the shape behind the slowest tier-1 checks.  Only the genie path of the
  SC kernel runs; channels and weave stay idle.
- simulate: `genoweave simulate` through `cli.main`, one round being three
  cells (deletion 1% push, insertion 10% pull, quaternary 1%) of POOLS
  pools at the default batch width, so SC runs hundreds of codewords wide.
- decode-one: one pool at a time through `weave.decode_pool_batch` at
  width 1, cycling push / pull / fixed, the deployment case where SC runs
  one codeword at a time and Python overhead dominates.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from genoweave import channels, cli, polar, rates, sim, weave

BENCH_DIR = Path(__file__).resolve().parent
CODES_DIR = BENCH_DIR / "codes"
PINNED = json.loads((BENCH_DIR / "pinned.json").read_text())

STRAND_LENGTH = 256
POOL_N = 256
# design delta -> file of the pinned n=256 codes; see the codes/*.csv headers
CODE_FILES = {0.01: "n256_delta1pct.csv", 0.1: "n256_delta10pct.csv"}


def op_seed(seed: int, i: int) -> int:
    """Master seed of operation i; at seed 0, operation 0 uses master seed 0."""
    return seed * 1000 + i


def digest(arr) -> str:
    a = np.ascontiguousarray(arr)
    return hashlib.sha256(a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()).hexdigest()


def load_code(delta: float) -> polar.PolarCode:
    eq = polar.read_equivocations_csv(str(CODES_DIR / CODE_FILES[delta]))
    return polar.make_polar_code(POOL_N, delta, eq)


def warm_up() -> None:
    """Touch the encode, channel and decode paths once at a toy size."""
    code = polar.make_polar_code(8, 0.1, np.linspace(0.0, 1.0, 8))
    rng = np.random.default_rng(0)
    pool = weave.weave_encode(rng.integers(0, 2, size=(4, code.k), dtype=np.uint8), code)
    obs, _ = channels.apply_channel_pool(pool.strands, channels.ChannelSpec("deletion", 0.1), rng)
    weave.decode_pool_batch(obs[None], code, "push", 4)


class Checks:
    """Output checks: how many were made and which failed."""

    def __init__(self) -> None:
        self.made = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.made += 1
        if not ok:
            self.failed.append(what)


def _regenerate(code, kind: str, delta: float, cell_seed: int, index: int):
    """Pool `index` of a cell, drawn from stream (cell_seed, index) as sim does.

    Returns [(true_info, obs)], one entry per binary component.
    """
    rng = np.random.default_rng([cell_seed, index])
    if kind == "quaternary":
        info_r = rng.integers(0, 2, size=(STRAND_LENGTH, code.k), dtype=np.uint8)
        info_i = rng.integers(0, 2, size=(STRAND_LENGTH, code.k), dtype=np.uint8)
        pool_r = weave.weave_encode(info_r, code)
        pool_i = weave.weave_encode(info_i, code)
        (obs_r, _), (obs_i, _) = channels.delete_pool_coincident(
            pool_r.strands, pool_i.strands, delta, rng)
        return [(info_r, obs_r), (info_i, obs_i)]
    info = rng.integers(0, 2, size=(STRAND_LENGTH, code.k), dtype=np.uint8)
    pool = weave.weave_encode(info, code)
    obs, _ = channels.apply_channel_pool(pool.strands, channels.ChannelSpec(kind, delta), rng)
    return [(info, obs)]


def _one(result) -> int:
    return 1


# Where each layer is wrapped, and how the work of one call is read off its
# result.  Names are patched in the module that makes the call.
LAYER_BINDINGS = [
    (polar, "equivocation_stats", "polar.equivocation_stats", lambda r: r.samples),
    (weave, "sc_decode_batch", "polar.sc_decode_batch", lambda r: r[0].shape[0]),
    (weave, "polar_transform", "polar.polar_transform",
     lambda r: r.shape[0] if r.ndim == 2 else 1),
    (weave, "decode_pool_batch", "weave.decode_pool_batch", lambda r: r.info_bits.shape[0]),
    (sim, "decode_pool_batch", "weave.decode_pool_batch", lambda r: r.info_bits.shape[0]),
    (sim, "weave_encode", "weave.weave_encode", _one),
    (sim, "apply_channel_pool", "channels.apply_channel_pool", _one),
    (sim, "delete_pool_coincident", "channels.delete_pool_coincident", _one),
    (sim, "run_pool_experiment", "sim.run_pool_experiment",
     lambda r: sum(x.pools_run for x in r)),
    (sim, "run_quaternary_pool_experiment", "sim.run_quaternary_pool_experiment",
     lambda r: sum(x.pools_run for x in r)),
    (rates, "concat_envelope", "rates.concat_envelope", _one),
    (cli, "main", "cli.main", _one),
]


@dataclass
class PoolTally:
    attempted: int = 0
    failed: int = 0


# ---------------------------------------------------------------------------
# construct


class Construct:
    name = "construct"
    N = 4096
    DELTA = 0.01
    SAMPLES = 1024  # one default-size chunk at n=4096, as in the tier-1 construction

    def setup(self) -> None:
        polar.equivocation_stats(64, self.DELTA, samples=4, seed=0)
        self.families = [rates.RateFamily(q=2, family=f) for f in rates.FAMILIES]

    def prepare(self, seed: int, i: int):
        return None

    def op(self, seed: int, i: int, prep):
        st = polar.equivocation_stats(self.N, self.DELTA, samples=self.SAMPLES,
                                      seed=op_seed(seed, i))
        code = polar.make_polar_code(self.N, self.DELTA, st.equivocations)
        env = {f.family: rates.concat_envelope(f, self.DELTA)[0] for f in self.families}
        return {"info_sha256": digest(code.info_set), "rate": code.rate,
                "total_mean": st.total_mean, "total_se": st.total_se, "envelopes": env}

    def units(self, out) -> int:
        return self.SAMPLES

    def fingerprint(self, out):
        return (out["info_sha256"], out["total_mean"], out["total_se"])

    def tally(self, out, pools: PoolTally) -> None:
        pass

    def check(self, seed: int, i: int, out, checks: Checks) -> None:
        h2 = -self.DELTA * math.log2(self.DELTA) - (1 - self.DELTA) * math.log2(1 - self.DELTA)
        checks.expect(abs(out["total_mean"] - self.N * h2) <= 4.0 * out["total_se"],
                      f"construct op {i}: entropy not conserved")
        # The paper's claim at delta=1%: the woven code beats concatenation with
        # the explicit and implicit inner codes.  The putative envelope (0.806)
        # lies above even the 256000-sample rate (0.757), so it is only reported.
        for fam in ("explicit", "implicit"):
            checks.expect(out["rate"] > out["envelopes"][fam],
                          f"construct op {i}: rate {out['rate']:.4f} not above {fam} envelope")
        if seed == PINNED["seed"] and i == 0:
            checks.expect(out["info_sha256"] == PINNED["construct"]["op0_info_sha256"],
                          "construct op 0: info set differs from pinned digest")

    def final_checks(self, seed: int, ops, checks: Checks) -> None:
        pass


# ---------------------------------------------------------------------------
# simulate

SIM_CELLS = (  # (--errors, --delta, delta, decode mode)
    ("deletion", "1%", 0.01, "push"),
    ("insertion", "10%", 0.1, "pull"),
    ("quaternary", "1%", 0.01, "push"),
)


class Simulate:
    name = "simulate"
    POOLS = 256  # one batch at the default width: SC decodes 256 codewords at once

    def setup(self) -> None:
        self.codes = {d: load_code(d) for d in CODE_FILES}
        warm_up()

    def prepare(self, seed: int, i: int):
        return None

    @contextlib.contextmanager
    def capturing(self):
        """Keep the ExperimentResult rows, whose failed_pools the CSV drops."""
        rows: list = []
        saved = {}

        def keep(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                rows.extend(out)
                return out
            return wrapper

        for attr in ("run_pool_experiment", "run_quaternary_pool_experiment"):
            saved[attr] = getattr(sim, attr)
            setattr(sim, attr, keep(saved[attr]))
        try:
            yield rows
        finally:
            for attr, fn in saved.items():
                setattr(sim, attr, fn)

    def op(self, seed: int, i: int, prep):
        cells = []
        for errors, delta_text, delta, _ in SIM_CELLS:
            argv = ["simulate", "--n", str(POOL_N), "--delta", delta_text,
                    "--errors", errors, "--pools", str(self.POOLS),
                    "--seed", str(op_seed(seed, i)),
                    "--code", str(CODES_DIR / CODE_FILES[delta])]
            out, err = io.StringIO(), io.StringIO()
            with self.capturing() as rows, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            cells.append({"errors": errors, "status": status, "csv": out.getvalue(),
                          "rows": rows})
        return cells

    def units(self, out) -> int:
        return self.POOLS * len(SIM_CELLS)

    def fingerprint(self, out):
        return tuple((c["errors"], c["status"], c["csv"],
                      tuple(tuple(r.failed_pools) for r in c["rows"])) for c in out)

    def tally(self, out, pools: PoolTally) -> None:
        for c in out:
            for r in c["rows"]:
                pools.attempted += r.pools_run
                pools.failed += r.failure_count

    def check(self, seed: int, i: int, out, checks: Checks) -> None:
        for c, (errors, _, delta, _) in zip(out, SIM_CELLS):
            where = f"simulate op {i} {errors}"
            checks.expect(c["status"] == 0, f"{where}: cli.main exit status {c['status']}")
            checks.expect(len(c["rows"]) == 1, f"{where}: expected one result row")
            if c["status"] != 0 or len(c["rows"]) != 1:
                continue
            r = c["rows"][0]
            table = list(csv.DictReader(line for line in c["csv"].splitlines()
                                        if not line.startswith("#")))
            checks.expect(len(table) == 1 and int(table[0]["failures"]) == r.failure_count
                          == len(r.failed_pools) and int(table[0]["pools"]) == self.POOLS,
                          f"{where}: CSV disagrees with the experiment result")
            checks.expect(r.code_rate == PINNED["simulate"]["code_rate"][errors],
                          f"{where}: pinned code loaded with rate {r.code_rate}")
            if seed == PINNED["seed"] and i == 0:
                checks.expect(list(r.failed_pools) == PINNED["simulate"]["op0_failed_pools"][errors],
                              f"{where}: failed pools {list(r.failed_pools)} differ from pinned")

    def final_checks(self, seed: int, ops, checks: Checks) -> None:
        """Every failure reproduces when its pool is decoded alone (width 1)."""
        for i, out in ops:
            for c, (errors, _, delta, mode) in zip(out, SIM_CELLS):
                code = self.codes[delta]
                for r in c["rows"]:
                    for b in r.failed_pools:
                        parts = _regenerate(code, errors, delta, r.cell_seed, b)
                        failed = any(
                            (weave.decode_pool_batch(obs[None], code, mode, STRAND_LENGTH)
                             .info_bits[0] != info).any()
                            for info, obs in parts)
                        checks.expect(failed, f"simulate op {i} {errors}: pool {b} "
                                              "does not fail when decoded alone")


# ---------------------------------------------------------------------------
# decode-one

DECODE_MODES = (  # (mode, channel kind, channel delta)
    ("push", "deletion", 0.01),
    ("pull", "insertion", 0.1),
    ("fixed", "substitution", 0.01),
)


class DecodeOne:
    name = "decode-one"

    def setup(self) -> None:
        self.codes = {d: load_code(d) for d in CODE_FILES}
        warm_up()

    def prepare(self, seed: int, i: int):
        """Pool i, generated untimed with the package's encoder and channel."""
        mode, kind, delta = DECODE_MODES[i % len(DECODE_MODES)]
        code = self.codes[delta]
        (info, obs), = _regenerate(code, kind, delta, seed, i)
        return {"mode": mode, "code": code, "info": info, "obs": obs}

    def op(self, seed: int, i: int, prep):
        res = weave.decode_pool_batch(prep["obs"][None], prep["code"], prep["mode"],
                                      STRAND_LENGTH)
        return {"prep": prep, "decoded": res.info_bits[0]}

    def units(self, out) -> int:
        return 1

    def fingerprint(self, out):
        return digest(out["decoded"])

    def tally(self, out, pools: PoolTally) -> None:
        pools.attempted += 1
        pools.failed += bool((out["decoded"] != out["prep"]["info"]).any())

    def check(self, seed: int, i: int, out, checks: Checks) -> None:
        pinned = PINNED["decode-one"]["info_sha256"]
        if seed == PINNED["seed"] and i < len(pinned):
            checks.expect(digest(out["decoded"]) == pinned[i],
                          f"decode-one op {i}: decoded info differs from pinned digest")

    def final_checks(self, seed: int, ops, checks: Checks) -> None:
        """Decoding all pools of a mode as one batch gives the width-1 results."""
        for mode, _, delta in DECODE_MODES:
            mine = [(i, out) for i, out in ops if out["prep"]["mode"] == mode]
            if not mine:
                continue
            obs = np.stack([out["prep"]["obs"] for _, out in mine])
            res = weave.decode_pool_batch(obs, self.codes[delta], mode, STRAND_LENGTH)
            for (i, out), batched in zip(mine, res.info_bits):
                checks.expect(np.array_equal(out["decoded"], batched),
                              f"decode-one op {i}: batched decode differs from width 1")


WORKLOADS = {w.name: w for w in (Construct, Simulate, DecodeOne)}
