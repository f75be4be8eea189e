"""Command-line contract: flags, exit codes, CSV shapes, determinism."""

import numpy as np
import pytest

from genoweave import sim
from genoweave.cli import main, parse_delta
from genoweave.polar import equivocation_stats, read_equivocations_csv


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# delta parsing


def test_parse_delta_decimal_and_percent():
    assert parse_delta("0.01") == 0.01
    assert parse_delta("1%") == 0.01
    assert parse_delta("0.5%") == 0.005
    assert parse_delta(" 10% ") == 0.1
    assert parse_delta("0") == 0.0


def test_parse_delta_rejects_junk():
    for bad in ("abc", "%", "150%", "-1%", "1.5"):
        with pytest.raises(ValueError):
            parse_delta(bad)


# ---------------------------------------------------------------------------
# construct


def test_construct_writes_equivocations(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    code, _ = _run(capsys, "construct", "--n", "32", "--delta", "5%",
                   "--samples", "100", "--seed", "3", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("# seed=3\n")
    eq = read_equivocations_csv(str(out))
    assert eq.shape == (32,)
    assert eq.min() >= 0.0 and eq.max() <= 1.0


def test_construct_records_the_seed_it_drew_from(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    _run(capsys, "construct", "--n", "32", "--delta", "5%",
         "--samples", "100", "--seed", "3", "--out", str(out))
    meta = dict(line[2:].split("=", 1) for line in out.read_text().splitlines()
                if line.startswith("# "))
    stats = equivocation_stats(32, 0.05, samples=100, seed=int(meta["construction_seed"]))
    assert stats.equivocations.tobytes() == read_equivocations_csv(str(out)).tobytes()


def test_construct_percent_and_decimal_agree(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _run(capsys, "construct", "--n", "16", "--delta", "1%",
         "--samples", "50", "--out", str(a))
    _run(capsys, "construct", "--n", "16", "--delta", "0.01",
         "--samples", "50", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_construct_stdout_matches_file(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    _run(capsys, "construct", "--n", "16", "--delta", "2%",
         "--samples", "50", "--out", str(out))
    code, stdout = _run(capsys, "construct", "--n", "16", "--delta", "2%",
                        "--samples", "50")
    assert code == 0
    assert stdout == out.read_text()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_basic_row(capsys):
    code, out = _run(capsys, "simulate", "--n", "32", "--delta", "0",
                     "--pools", "3", "--samples", "50", "--seed", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# seed=4"
    assert lines[1] == "n,delta,error_kind,pools,failures,code_rate,seed,cell_seed,failed_pools"
    fields = lines[2].split(",")
    assert fields[0] == "32" and fields[4] == "0" and fields[8] == ""


def test_simulate_reruns_are_byte_identical(capsys):
    args = ("simulate", "--n", "64", "--delta", "1%", "--pools", "5",
            "--samples", "100", "--seed", "11")
    _, a = _run(capsys, *args)
    _, b = _run(capsys, *args)
    assert a == b


def test_simulate_with_code_file_matches_inline_construction(tmp_path, capsys):
    # the same seed derivation governs both paths, so supplying the
    # construction by file cannot change the outcome
    eq = tmp_path / "eq.csv"
    _run(capsys, "construct", "--n", "32", "--delta", "2%",
         "--samples", "80", "--seed", "6", "--out", str(eq))
    args = ("simulate", "--n", "32", "--delta", "2%", "--pools", "4",
            "--samples", "80", "--seed", "6")
    _, inline = _run(capsys, *args)
    _, from_file = _run(capsys, *args, "--code", str(eq))
    assert inline == from_file


def test_simulate_quaternary_kind(capsys):
    code, out = _run(capsys, "simulate", "--n", "32", "--delta", "0",
                     "--errors", "quaternary", "--pools", "2",
                     "--samples", "50", "--seed", "0")
    assert code == 0
    assert ",quaternary," in out.strip().split("\n")[2]


def test_simulate_runs_one_entry_point_once_per_kind(monkeypatch, capsys):
    # both entry points wrapped by name, as a profiler or a row capture wraps
    # them: an entry point that called the other through the module would
    # show each row twice
    calls = []

    def keep(name, fn):
        def wrapper(*args, **kwargs):
            rows = fn(*args, **kwargs)
            calls.extend((name, row) for row in rows)
            return rows
        return wrapper

    for name in ("run_pool_experiment", "run_quaternary_pool_experiment"):
        monkeypatch.setattr(sim, name, keep(name, getattr(sim, name)))
    for kind in sim.ERROR_KINDS:
        calls.clear()
        code, out = _run(capsys, "simulate", "--n", "16", "--delta", "5%", "--errors", kind,
                         "--pools", "3", "--samples", "50", "--seed", "2")
        assert code == 0
        (name, row), = calls
        assert row.error_kind == kind and f",{kind}," in out.strip().split("\n")[2]
        assert name == ("run_quaternary_pool_experiment" if kind == "quaternary"
                        else "run_pool_experiment")


def test_simulate_code_file_must_match_n(tmp_path, capsys):
    eq = tmp_path / "eq.csv"
    _run(capsys, "construct", "--n", "16", "--delta", "1%",
         "--samples", "50", "--out", str(eq))
    code, _ = _run(capsys, "simulate", "--n", "32", "--delta", "1%",
                   "--pools", "2", "--code", str(eq))
    assert code == 2


# ---------------------------------------------------------------------------
# rates and figures


def test_rates_grid_shape(capsys):
    code, out = _run(capsys, "rates", "--q", "2", "--family", "explicit",
                     "--grid-points", "4", "--dmax", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# seed=none"
    assert lines[1] == "delta,d,rate,envelope_rate,envelope_opt_d"
    assert len(lines) == 2 + 4 * 3
    # envelope dominates every listed d
    for line in lines[2:]:
        _, _, rate, env, _ = line.split(",")
        assert float(env) >= float(rate) - 1e-12


def test_rates_rows_match_concat_figure(capsys):
    grid = ("--grid-points", "3", "--dmax", "2", "--ell", "128")
    code, rates_out = _run(capsys, "rates", "--q", "2", "--family", "implicit", *grid)
    assert code == 0
    code, fig_out = _run(capsys, "figures", "--which", "concat2", *grid)
    assert code == 0
    rows = rates_out.strip().split("\n")[2:]
    implicit = [line.split(",", 1)[1] for line in fig_out.strip().split("\n")[2:]
                if line.startswith("implicit,")]
    assert len(rows) == 3 * 3
    assert rows == implicit


def test_figures_scalar_series(capsys):
    code, out = _run(capsys, "figures", "--which", "scalar", "--dmax", "3")
    assert code == 0
    lines = out.strip().split("\n")
    series = {line.split(",")[0] for line in lines[2:]}
    assert series == {"putative", "implicit", "explicit_binary",
                      "explicit_quaternary"}
    # spot value: explicit quaternary d=2 normalizes to 5
    row = [l for l in lines if l.startswith("explicit_quaternary,4,2,")][0]
    assert float(row.split(",")[4]) == pytest.approx(5.0)


def test_figures_concat_families(capsys):
    code, out = _run(capsys, "figures", "--which", "concat2",
                     "--grid-points", "3", "--dmax", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "family,delta,d,rate,envelope_rate,envelope_opt_d"
    fams = {line.split(",")[0] for line in lines[2:]}
    assert fams == {"explicit", "implicit", "putative"}


def test_figures_equiv_fractions(capsys):
    code, out = _run(capsys, "figures", "--which", "equiv", "--ns", "16",
                     "--deltas", "0,1%", "--samples", "60", "--seed", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# seed=2"
    assert lines[1] == "n,delta,fraction,equivocation,floored"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 32
    noiseless, rows = rows[:16], rows[16:]
    # the floored column clamps from below so that it survives a log axis
    assert {(r[3], r[4]) for r in noiseless} == {("0.0", "1e-300")}
    fracs = [float(r[2]) for r in rows]
    assert fracs[0] == pytest.approx(1 / 16)
    assert fracs[-1] == pytest.approx(1.0)
    eqs = [float(r[3]) for r in rows]
    assert eqs == sorted(eqs)
    assert [float(r[4]) for r in rows] == [max(eq, 1e-300) for eq in eqs]


def test_figures_all2_series(capsys):
    code, out = _run(capsys, "figures", "--which", "all2", "--ns", "16",
                     "--deltas", "1%,2%", "--samples", "50",
                     "--grid-points", "5", "--seed", "1")
    assert code == 0
    series = {line.split(",")[0] for line in out.strip().split("\n")[2:]}
    assert series == {"capacity_binary", "envelope_explicit",
                      "envelope_implicit", "envelope_putative", "polar_n16"}


def test_figures_all4_adds_quaternary_capacity(capsys):
    code, out = _run(capsys, "figures", "--which", "all4", "--ns", "16",
                     "--deltas", "1%", "--samples", "50",
                     "--grid-points", "4", "--seed", "1")
    assert code == 0
    series = {line.split(",")[0] for line in out.strip().split("\n")[2:]}
    assert "capacity_quaternary" in series and "capacity_binary" in series


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_two(capsys):
    assert main(["simulate", "--n", "63", "--delta", "1%"]) == 2
    capsys.readouterr()
    assert main(["simulate", "--n", "64", "--delta", "150%"]) == 2
    capsys.readouterr()
    assert main(["simulate", "--n", "32", "--delta", "1%", "--threshold-scale", "inf"]) == 2
    capsys.readouterr()
    for cmd in (["rates", "--q", "2", "--family", "explicit"], ["figures", "--which", "concat2"]):
        assert main([*cmd, "--grid-points", "0"]) == 2
        assert main([*cmd, "--dmax", "-1"]) == 2
        # one rate array per delta is sliced at --dmax, so past --ell no row exists
        assert main([*cmd, "--dmax", "257"]) == 2
        assert capsys.readouterr().out == ""
    for cmd in (["rates", "--q", "2", "--family", "explicit"], ["figures", "--which", "concat2"],
                ["figures", "--which", "all2", "--ns", "4", "--samples", "10"]):
        # a negative length used to index the binomial table and exit 1
        assert main([*cmd, "--ell", "-5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "block length must be at least 2" in err
    # the scalar series starts at d = 1, so --dmax 0 leaves it empty
    assert main(["figures", "--which", "scalar", "--dmax", "0"]) == 2
    assert capsys.readouterr().out == ""
    for flag in ("--ns", "--deltas"):
        # an empty list would print a header-only CSV and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--which", "equiv", flag, ","])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "expected a comma-separated list" in err
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
