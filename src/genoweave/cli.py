"""Command-line front end.

Subcommands: construct (Monte-Carlo code design), rates (concatenation
baseline tables), simulate (pool failure counts), figures (CSV series
behind the standard plots).  Error rates accept plain decimals or
percentages, so --delta 0.01 and --delta 1% agree.  CSV goes to --out or
stdout; progress and diagnostics go to stderr.  Exit status: 0 on
success, 2 on usage errors, 1 on an internal anomaly.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import rates as rates_mod
from . import sim
from .polar import format_equivocations_csv, make_polar_code, read_equivocations_csv
from .rates import RateFamily, capacity, concat_envelope, concat_rates
from .sim import ExperimentConfig

DEFAULT_DELTAS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)


def parse_delta(text: str) -> float:
    """Accept 0.01 or 1% style rates."""
    t = text.strip()
    try:
        value = float(t[:-1]) / 100.0 if t.endswith("%") else float(t)
    except ValueError:
        raise ValueError(f"cannot parse error rate {text!r}") from None
    if not 0.0 <= value < 1.0:
        raise ValueError(f"error rate must lie in [0, 1), got {text!r}")
    return value


def _parse_list(text: str, parse) -> tuple:
    values = tuple(parse(part) for part in text.split(",") if part.strip())
    if not values:  # an empty list would write a header-only CSV and report success
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return values


def _parse_delta_list(text: str) -> tuple[float, ...]:
    return _parse_list(text, parse_delta)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return _parse_list(text, int)


def _delta_grid(points: int) -> np.ndarray:
    return np.logspace(-4, np.log10(0.2), points)


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args: argparse.Namespace) -> int:
    delta = parse_delta(args.delta)
    (code, cseed), = sim.run_construction_sweep(ExperimentConfig(
        n=args.n, delta_list=(delta,), construction_samples=args.samples,
        master_seed=args.seed))
    _write(args.out, format_equivocations_csv(code.equivocations, {
        "seed": args.seed, "n": args.n, "delta": repr(delta),
        "samples": args.samples, "code_rate": repr(code.rate),
        "construction_seed": cseed,
    }))
    return 0


def _concat_rows(fam: RateFamily, args: argparse.Namespace) -> list[str]:
    """delta,d,rate,envelope_rate,envelope_opt_d rows over the delta grid."""
    grid = _delta_grid(args.grid_points)
    tables = [concat_rates(fam, float(delta), args.ell) for delta in grid]  # checks --ell
    if args.dmax > args.ell:  # the slice below would drop those rows silently
        raise ValueError(f"--dmax must be at most --ell ({args.ell}), got {args.dmax}")
    rows = []
    for delta, rates in zip(grid, tables):
        env_d = int(np.argmax(rates))  # the envelope: ties go to the smaller d
        for d, r in enumerate(rates[:args.dmax + 1]):
            rows.append(f"{float(delta)!r},{d},{float(r)!r},{float(rates[env_d])!r},{env_d}")
    return rows


def _check_grid(args: argparse.Namespace, dmin: int = 0) -> None:
    # an empty grid would write a header-only CSV and report success
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be at least 1, got {args.grid_points}")
    if args.dmax < dmin:
        raise ValueError(f"--dmax must be at least {dmin}, got {args.dmax}")


def _cmd_rates(args: argparse.Namespace) -> int:
    _check_grid(args)
    lines = ["# seed=none", "delta,d,rate,envelope_rate,envelope_opt_d"]
    lines += _concat_rows(RateFamily(q=args.q, family=args.family), args)
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _load_code(path: str, n: int, delta: float, threshold: float):
    eq = read_equivocations_csv(path)
    if eq.size != n:
        raise ValueError(f"--code file holds {eq.size} channels but --n is {n}")
    return make_polar_code(n, delta, eq, threshold=threshold)


def _cmd_simulate(args: argparse.Namespace) -> int:
    delta = parse_delta(args.delta)
    config = ExperimentConfig(
        n=args.n, delta_list=(delta,), error_kind=args.errors, pools=args.pools,
        construction_samples=args.samples, master_seed=args.seed,
        threshold_scale=args.threshold_scale)
    codes = None
    if args.code is not None:
        codes = {delta: _load_code(args.code, args.n, delta, config.threshold())}
    # quaternary keeps its own entry point, so a profile tells the kinds apart
    run = (sim.run_quaternary_pool_experiment if args.errors == "quaternary"
           else sim.run_pool_experiment)
    rows = run(config, codes=codes)
    _write(args.out, sim.results_to_csv(rows, args.seed))
    return 0


def _figure_scalar(args: argparse.Namespace) -> str:
    lines = ["# seed=none", "series,q,d,redundancy_symbols,normalized"]
    series = (
        ("putative", RateFamily(q=2, family="putative")),
        ("implicit", RateFamily(q=2, family="implicit")),
        ("explicit_binary", RateFamily(q=2, family="explicit")),
        ("explicit_quaternary", RateFamily(q=4, family="explicit")),
    )
    for name, fam in series:
        for d in range(1, args.dmax + 1):
            r = rates_mod.redundancy(fam, d, args.ell)
            norm = r / (d * math.log(args.ell, fam.q))
            lines.append(f"{name},{fam.q},{d},{float(r)!r},{float(norm)!r}")
    return "\n".join(lines) + "\n"


def _figure_concat(args: argparse.Namespace, q: int) -> str:
    lines = ["# seed=none", "family,delta,d,rate,envelope_rate,envelope_opt_d"]
    for family in rates_mod.FAMILIES:
        lines += [f"{family},{row}" for row in _concat_rows(RateFamily(q=q, family=family), args)]
    return "\n".join(lines) + "\n"


def _constructed(args: argparse.Namespace, deltas: tuple[float, ...]):
    """(n, code) for every --ns x deltas pair, one construction sweep per n."""
    for n in args.ns:
        for code, _ in sim.run_construction_sweep(ExperimentConfig(
                n=n, delta_list=deltas, construction_samples=args.samples,
                master_seed=args.seed)):
            yield n, code


def _figure_equiv(args: argparse.Namespace) -> str:
    # the sorted equivocation profile: the r-th smallest value at x = r/n
    lines = [f"# seed={args.seed}", "n,delta,fraction,equivocation,floored"]
    for n, code in _constructed(args, args.deltas or (0.01,)):
        for r, eq in enumerate(np.sort(code.equivocations).tolist(), 1):
            # floored so that it survives a log-scale axis
            lines.append(f"{n},{float(code.design_delta)!r},{r / n!r},"
                         f"{eq!r},{max(eq, 1e-300)!r}")
    return "\n".join(lines) + "\n"


def _figure_all(args: argparse.Namespace, q: int) -> str:
    grid = _delta_grid(args.grid_points)
    lines = [f"# seed={args.seed}", "series,delta,value"]
    if q == 4:
        for delta in grid:
            lines.append(f"capacity_quaternary,{float(delta)!r},{capacity(4, float(delta))!r}")
    for delta in grid:
        lines.append(f"capacity_binary,{float(delta)!r},{capacity(2, float(delta))!r}")
    for family in rates_mod.FAMILIES:
        fam = RateFamily(q=q, family=family)
        for delta in grid:
            env_rate, _ = concat_envelope(fam, float(delta), args.ell)
            lines.append(f"envelope_{family},{float(delta)!r},{float(env_rate)!r}")
    for n, code in _constructed(args, args.deltas or DEFAULT_DELTAS):
        lines.append(f"polar_n{n},{float(code.design_delta)!r},{float(code.rate)!r}")
    return "\n".join(lines) + "\n"


def _cmd_figures(args: argparse.Namespace) -> int:
    _check_grid(args, dmin=1 if args.which == "scalar" else 0)  # scalar starts at d = 1
    figure = {"scalar": _figure_scalar, "equiv": _figure_equiv,
              "concat2": lambda a: _figure_concat(a, 2), "all2": lambda a: _figure_all(a, 2),
              "concat4": lambda a: _figure_concat(a, 4), "all4": lambda a: _figure_all(a, 4)}
    _write(args.out, figure[args.which](args))
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="genoweave",
        description="Per-position polar coding over strand pools, with rate baselines.")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="Monte-Carlo construct a code; dump equivocations CSV")
    c.add_argument("--n", type=int, required=True, help="strand count / block length (power of two)")
    c.add_argument("--delta", required=True, help="design crossover (0.01 or 1%%)")
    c.add_argument("--samples", type=int, default=1000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_construct)

    r = sub.add_parser("rates", help="concatenation-baseline rate grid and envelope")
    r.add_argument("--q", type=int, choices=(2, 4), required=True)
    r.add_argument("--family", choices=rates_mod.FAMILIES, required=True)
    r.add_argument("--ell", type=int, default=256)
    r.add_argument("--grid-points", type=int, default=200)
    r.add_argument("--dmax", type=int, default=16)
    r.add_argument("--out", default=None)
    r.set_defaults(func=_cmd_rates)

    s = sub.add_parser("simulate", help="pool failure counts for one (n, delta) cell")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--delta", required=True)
    s.add_argument("--errors", choices=sim.ERROR_KINDS, default="deletion")
    s.add_argument("--pools", type=int, default=1000)
    s.add_argument("--samples", type=int, default=1000,
                   help="construction samples when no --code is given")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--code", default=None, help="equivocations CSV from `construct`")
    s.add_argument("--threshold-scale", type=float, default=1.0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_simulate)

    f = sub.add_parser("figures", help="CSV series behind the standard figures")
    f.add_argument("--which", required=True,
                   choices=("scalar", "concat2", "concat4", "equiv", "all2", "all4"))
    f.add_argument("--ns", type=_parse_int_list, default=(256, 4096),
                   help="comma-separated strand counts for constructed-rate series")
    f.add_argument("--deltas", type=_parse_delta_list, default=None,
                   help="comma-separated rates for constructed-rate series")
    f.add_argument("--samples", type=int, default=1000)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--ell", type=int, default=256)
    f.add_argument("--grid-points", type=int, default=200)
    f.add_argument("--dmax", type=int, default=16)
    f.add_argument("--out", default=None)
    f.set_defaults(func=_cmd_figures)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - anomaly path
        print(f"anomaly: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
