"""Command-line front end.

Subcommands: construct (Monte-Carlo code design), rates (concatenation
baseline tables), simulate (pool failure counts), figures (CSV series
behind the standard plots).  Error rates accept plain decimals or
percentages, and a percentage is divided by 100 exactly, as a decimal, so
--delta 0.01 and --delta 1% agree, as do 0.011 and 1.1%.  Each subcommand
returns its CSV text, in the one format polar.format_csv writes: '# key=value'
provenance lines, the column line, one line per row, floats as their
shortest repr.  main writes it to --out or stdout, once; progress and
diagnostics go to stderr.  Exit status: 0 on success, 2 on usage errors,
1 on an internal anomaly.
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import Decimal, DecimalException
from functools import partial

import numpy as np

from . import rates as rates_mod
from . import sim
from .polar import (format_csv, format_equivocations_csv, make_polar_code,
                    read_equivocations_with_meta)
from .rates import RateFamily, capacity, concat_envelope, concat_rates, table_envelope
from .sim import ExperimentConfig

DEFAULT_DELTAS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)


def parse_delta(text: str) -> float:
    """Accept 0.01 or 1% style rates; a percentage is divided by 100 exactly, so 1.1% is 0.011."""
    t = text.strip()
    try:
        value = float(Decimal(t[:-1]) / 100) if t.endswith("%") else float(t)
    except (ValueError, DecimalException):
        raise ValueError(f"cannot parse error rate {text!r}") from None
    if not 0.0 <= value < 1.0:
        raise ValueError(f"error rate must lie in [0, 1), got {text!r}")
    return value + 0.0  # maps -0.0 to 0.0, whose IEEE bits derive_seed would hash apart


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
    # an empty grid would write a header-only CSV and report success
    if points < 1:
        raise ValueError(f"--grid-points must be at least 1, got {points}")
    return np.logspace(-4, np.log10(0.2), points)


def _strengths(args: argparse.Namespace, first: int) -> range:
    """Inner code strengths d = first..--dmax, for the figures that read --dmax."""
    if args.dmax < first:
        raise ValueError(f"--dmax must be at least {first}, got {args.dmax}")
    # no code corrects more deletions than the strand has symbols; an --ell
    # below 2 is left to the rates module, whose message names the length
    if args.dmax > args.ell >= 2:
        raise ValueError(f"--dmax must be at most --ell ({args.ell}), got {args.dmax}")
    return range(first, args.dmax + 1)


# ---------------------------------------------------------------------------
# subcommands: each returns its CSV text, for main to write


def _cmd_construct(args: argparse.Namespace) -> str:
    delta = parse_delta(args.delta)
    (code, cseed), = sim.run_construction_sweep(ExperimentConfig(
        n=args.n, delta_list=(delta,), construction_samples=args.samples,
        master_seed=args.seed))
    return format_equivocations_csv(code.equivocations, {
        "seed": args.seed, "n": args.n, "delta": delta,
        "samples": args.samples, "code_rate": code.rate,
        "construction_seed": cseed,
    })


_CONCAT_COLUMNS = "delta,d,rate,envelope_rate,envelope_opt_d"


def _concat_rows(fam: RateFamily, args: argparse.Namespace) -> list[tuple]:
    """(delta, d, rate, envelope_rate, envelope_opt_d) rows over the delta grid."""
    grid = _delta_grid(args.grid_points)
    strengths = _strengths(args, 0)
    tables = [concat_rates(fam, float(delta), args.ell) for delta in grid]  # checks --ell
    rows = []
    for delta, rates in zip(grid, tables):
        env_rate, env_d = table_envelope(rates)
        rows += [(delta, d, rates[d], env_rate, env_d) for d in strengths]
    return rows


def _cmd_rates(args: argparse.Namespace) -> str:
    rows = _concat_rows(RateFamily(q=args.q, family=args.family), args)
    return format_csv({"seed": "none"}, _CONCAT_COLUMNS, rows)


def _cmd_simulate(args: argparse.Namespace) -> str:
    delta = parse_delta(args.delta)
    config = ExperimentConfig(
        n=args.n, delta_list=(delta,), error_kind=args.errors, pools=args.pools,
        construction_samples=args.samples, master_seed=args.seed)
    codes = None
    if args.code is not None:
        eq, meta = read_equivocations_with_meta(args.code)
        if eq.size != args.n:
            raise ValueError(f"--code file holds {eq.size} channels but --n is {args.n}")
        # its info set was chosen for its own crossover, and would run under this one's LLRs
        if "delta" in meta and parse_delta(meta["delta"]) != delta:
            raise ValueError(f"--code file was designed for delta={meta['delta']} "
                             f"but --delta is {args.delta}")
        codes = {delta: make_polar_code(args.n, delta, eq)}
    # quaternary keeps its own entry point, so a profile tells the kinds apart
    run = (sim.run_quaternary_pool_experiment if args.errors == "quaternary"
           else sim.run_pool_experiment)
    return sim.results_to_csv(run(config, codes=codes), args.seed)


def _figure_scalar(args: argparse.Namespace) -> str:
    rows = []
    series = (
        ("putative", RateFamily(q=2, family="putative")),
        ("implicit", RateFamily(q=2, family="implicit")),
        ("explicit_binary", RateFamily(q=2, family="explicit")),
        ("explicit_quaternary", RateFamily(q=4, family="explicit")),
    )
    strengths = _strengths(args, 1)  # the series starts at d = 1
    for name, fam in series:
        for d in strengths:
            r = rates_mod.redundancy(fam, d, args.ell)
            norm = r / (d * math.log(args.ell, fam.q))
            rows.append((name, fam.q, d, r, norm))
    return format_csv({"seed": "none"}, "series,q,d,redundancy_symbols,normalized", rows)


def _figure_concat(args: argparse.Namespace, q: int) -> str:
    rows = [(family, *row) for family in rates_mod.FAMILIES
            for row in _concat_rows(RateFamily(q=q, family=family), args)]
    return format_csv({"seed": "none"}, "family," + _CONCAT_COLUMNS, rows)


def _constructed(args: argparse.Namespace, deltas: tuple[float, ...]):
    """(n, code) for every --ns x deltas pair, one construction sweep per n."""
    for n in args.ns:
        for code, _ in sim.run_construction_sweep(ExperimentConfig(
                n=n, delta_list=deltas, construction_samples=args.samples,
                master_seed=args.seed)):
            yield n, code


def _figure_equiv(args: argparse.Namespace) -> str:
    # the sorted equivocation profile: the r-th smallest value at x = r/n,
    # floored so that it survives a log-scale axis
    rows = [(n, code.design_delta, r / n, eq, max(eq, 1e-300))
            for n, code in _constructed(args, args.deltas or (0.01,))
            for r, eq in enumerate(np.sort(code.equivocations).tolist(), 1)]
    return format_csv({"seed": args.seed}, "n,delta,fraction,equivocation,floored", rows)


def _figure_all(args: argparse.Namespace, q: int) -> str:
    grid = _delta_grid(args.grid_points)
    rows = []
    if q == 4:
        rows += [("capacity_quaternary", delta, capacity(4, float(delta))) for delta in grid]
    rows += [("capacity_binary", delta, capacity(2, float(delta))) for delta in grid]
    for family in rates_mod.FAMILIES:
        fam = RateFamily(q=q, family=family)
        rows += [(f"envelope_{family}", delta, concat_envelope(fam, float(delta), args.ell)[0])
                 for delta in grid]
    rows += [(f"polar_n{n}", code.design_delta, code.rate)
             for n, code in _constructed(args, args.deltas or DEFAULT_DELTAS)]
    return format_csv({"seed": args.seed}, "series,delta,value", rows)


# --which choices, in the order the help lists them
_FIGURES = {"scalar": _figure_scalar, "concat2": partial(_figure_concat, q=2),
            "concat4": partial(_figure_concat, q=4), "equiv": _figure_equiv,
            "all2": partial(_figure_all, q=2), "all4": partial(_figure_all, q=4)}


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="genoweave",
        description="Per-position polar coding over strand pools, with rate baselines.")
    sub = top.add_subparsers(dest="command", required=True)

    # options shared by several subcommands, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--samples", type=int, default=1000,
                        help="Monte-Carlo construction samples")
    seeded.add_argument("--seed", type=int, default=0)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--ell", type=int, default=sim.STRAND_LENGTH)
    grid.add_argument("--grid-points", type=int, default=200)
    grid.add_argument("--dmax", type=int, default=16)

    c = sub.add_parser("construct", parents=[seeded, out],
                       help="Monte-Carlo construct a code; dump equivocations CSV")
    c.add_argument("--n", type=int, required=True, help="strand count / block length (power of two)")
    c.add_argument("--delta", required=True, help="design crossover (0.01 or 1%%)")
    c.set_defaults(func=_cmd_construct)

    r = sub.add_parser("rates", parents=[grid, out],
                       help="concatenation-baseline rate grid and envelope")
    r.add_argument("--q", type=int, choices=(2, 4), required=True)
    r.add_argument("--family", choices=rates_mod.FAMILIES, required=True)
    r.set_defaults(func=_cmd_rates)

    s = sub.add_parser("simulate", parents=[seeded, out],
                       help="pool failure counts for one (n, delta) cell")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--delta", required=True)
    s.add_argument("--errors", choices=sim.ERROR_KINDS, default="deletion")
    s.add_argument("--pools", type=int, default=1000)
    s.add_argument("--code", default=None, help="equivocations CSV from `construct` to use")
    s.set_defaults(func=_cmd_simulate)

    f = sub.add_parser("figures", parents=[seeded, grid, out],
                       help="CSV series behind the standard figures")
    f.add_argument("--which", required=True, choices=_FIGURES)
    f.add_argument("--ns", type=_parse_int_list, default=(256, 4096),
                   help="comma-separated strand counts for constructed-rate series")
    f.add_argument("--deltas", type=_parse_delta_list, default=None,
                   help="comma-separated rates for constructed-rate series")
    f.set_defaults(func=lambda args: _FIGURES[args.which](args))
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
        if args.out is None:  # looked up now, so a redirect_stdout around main sees the CSV
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - anomaly path
        print(f"anomaly: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
