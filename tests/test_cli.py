import argparse
import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coulombium.background
import coulombium.kernel
import coulombium.solver
from coulombium import Grid, PointCharge, Samples, cli, effective_potential, load_background
from coulombium.cli import _solver_config, build_parser, main, resolve_config
from coulombium.solver import SolverConfig
from coulombium.verify import SUITES


def run_cli(args):
    return main(args)


def test_solve_point_charge(tmp_path):
    out = tmp_path / "sol"
    code = run_cli(
        ["solve", "--z", "2", "--L", "16", "--N", "1601", "--output", str(out)]
    )
    assert code == 0
    table = (tmp_path / "sol.csv").read_text().splitlines()
    assert table[0] == "# schema_version=7"
    assert table[1].startswith("# config ")
    assert table[2].startswith("# summary ")
    assert "total_energy=" in table[2]
    assert table[3] == "x,u,V"
    assert len(table) == 4 + 1601
    assert (tmp_path / "sol_trace.csv").exists()


def test_solve_json_format(tmp_path):
    out = tmp_path / "sol"
    code = run_cli(
        ["solve", "--z", "2", "--L", "16", "--N", "1601", "--output", str(out),
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "sol.json").read_text())
    assert doc["schema_version"] == 7
    assert doc["config"]["z"] == 2.0
    assert "converged" not in doc["summary"]  # a returned state is always converged
    assert len(doc["table"]["x"]) == 1601
    assert doc["trace"][0]["iteration"] == 1


def test_solve_refuses_subcritical(tmp_path):
    code = run_cli(
        ["solve", "--z", "0.5", "--L", "16", "--N", "1601",
         "--output", str(tmp_path / "x")]
    )
    assert code == 1


def _record_solves(monkeypatch):
    """Calls of each CLI solver, recorded before the real solve runs."""
    calls = []
    for method, solve in list(cli._SOLVERS.items()):
        monkeypatch.setitem(cli._SOLVERS, method,
                            lambda *a, solve=solve: calls.append(a) or solve(*a))
    return calls


@pytest.mark.parametrize("argv", [
    ["--z", "0.5", "--L", "24", "--N", "1201", "--max-iter", "200"],
    ["--z", "0.9", "--method", "scf", "--L", "30", "--N", "1201"],
    ["--z", "0.999999", "--method", "gd", "--L", "30", "--N", "1201"],
    ["--z", "0.9", "--method", "gd", "--L", "30", "--N", "1201"],
], ids=["z0.5", "z0.9-scf", "z0.999999-gd", "z0.9-gd"])
def test_subcritical_solve_is_refused_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    # the solvers' own subcritical checks are tested in test_solver.py
    solves = _record_solves(monkeypatch)
    assert run_cli(["solve", *argv, "--output", str(tmp_path / "x")]) == 1
    assert "refusing subcritical charge ratio" in capsys.readouterr().err
    assert not solves
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_with_background_file(tmp_path):
    xs = np.linspace(-2.0, 2.0, 2001)
    width = 0.25
    rho = -np.exp(-0.5 * (xs / width) ** 2)
    rho /= -np.trapezoid(rho, xs)  # total charge -1
    path = tmp_path / "rho.dat"
    path.write_text(
        "# x rho\n" + "\n".join(f"{a} {b}" for a, b in zip(xs, rho)) + "\n"
    )
    out = tmp_path / "gen"
    code = run_cli(
        ["solve", "--background-file", str(path), "--L", "16", "--N", "3201",
         "--output", str(out)]
    )
    assert code == 0


@pytest.mark.parametrize("in_file", [False, True])
def test_z_and_background_file_together_are_refused(tmp_path, capsys, in_file):
    # the solve would use the file's charge while the output recorded the z
    (tmp_path / "rho.dat").write_text("-1 0\n0 -2\n1 0\n")  # charge -2
    if in_file:
        (tmp_path / "run.ini").write_text(f"[background]\nz = 5\nfile = {tmp_path / 'rho.dat'}\n")
        argv = ["solve", "--config", str(tmp_path / "run.ini")]
    else:
        argv = ["solve", "--z", "5", "--background-file", str(tmp_path / "rho.dat")]
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run_cli(argv + ["--L", "12", "--N", "241", "--output", str(tmp_path / "s")]) == 1
    assert "need exactly one of --z and --background-file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_file_background_short_of_neutral_is_refused_before_a_solve(tmp_path, capsys,
                                                                     monkeypatch):
    # a unit Gaussian normalized on its table and written with six significant
    # digits integrates to z = 0.99999955 on this grid, below 1 - 1e-9
    xs = np.linspace(-5.3, 5.3, 31)
    rho = -np.exp(-0.5 * xs**2)
    rho /= -np.trapezoid(rho, xs)
    np.savetxt(tmp_path / "rho.dat", np.column_stack([xs, rho]), fmt="%.6g")
    solves = _record_solves(monkeypatch)
    argv = ["solve", "--background-file", str(tmp_path / "rho.dat"), "--L", "12",
            "--N", "1201", "--output", str(tmp_path / "s")]
    assert run_cli(argv) == 1
    assert "z = 0.9999995459 < 1 (no bound state)" in capsys.readouterr().err
    assert not solves
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rho.dat"]


@pytest.mark.filterwarnings("error")  # refused before any NumPy warning
@pytest.mark.parametrize("row,message", [
    pytest.param("0 nan", "error: background density rho must be finite", id="nan"),
    pytest.param("0 -inf", "error: background density rho must be finite", id="-inf"),
    # np.interp would turn a non-finite x into non-finite densities and blame rho
    pytest.param("nan -5", "error: the x column of", id="x-nan"),
    pytest.param("inf -5", "error: the x column of", id="x-inf"),
])
def test_non_finite_background_file_is_usage_error(tmp_path, capsys, row, message):
    (tmp_path / "rho.dat").write_text(f"-1 0\n{row}\n1 0\n")
    argv = ["solve", "--background-file", str(tmp_path / "rho.dat"), "--L", "12", "--N", "241",
            "--output", str(tmp_path / "s")]
    assert run_cli(argv) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rho.dat"]


@pytest.mark.parametrize("argv,code,message", [
    (["solve", "--z", "2", "--max-iter", "2"], 2,
     "solver did not converge: scf did not converge in 2 iterations"),
    (["scan", "--z-list", "2,abc"], 1, "error: cannot parse z list '2,abc'"),
    (["scan", "--z-list", ","], 1, "error: empty z list"),
    (["solve", "--z", "2", "--config", "missing.ini"], 1,
     "error: cannot read config file missing.ini"),
    (["solve", "--z", "2", "--tol-energy", "abc"], 1,
     "error: tol_energy: cannot read 'abc' as float"),
    (["solve", "--background-file", "one_column.dat"], 1,
     "error: expected two columns (x, rho) in one_column.dat"),
], ids=["solver-error", "z-list", "empty-z-list", "config-file", "non-number",
        "one-column-file"])
def test_failing_command_exits_with_its_code_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                 argv, code, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one_column.dat").write_text("-1\n0\n1\n")
    assert run_cli([*argv, "--L", "12", "--N", "241", "--output", "s"]) == code
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one_column.dat"]


def test_an_uncertified_eigensolve_exits_with_the_solver_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(coulombium.solver, "_EIGEN_MAX_STEPS", 1)
    assert run_cli(["solve", "--z", "2", "--L", "12", "--N", "241", "--output", "s"]) == 2
    assert "solver did not converge: inverse iteration uncertified" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_three_node_grid_is_usage_error(tmp_path, capsys):
    argv = ["solve", "--z", "2", "--L", "1", "--N", "3", "--output", str(tmp_path / "s")]
    assert run_cli(argv) == 1
    assert "at least 5 nodes, got N = 3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve", "--z", "2", "--L", "1e-300"],
    ["solve", "--method", "gd", "--z", "2", "--L", "1e-170"],
    ["scan", "--z-list", "2", "--L", "1e300"],
])
def test_a_spacing_out_of_the_float_range_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # h^2 rounds to 0 or to inf: refused with the grid, before any solve or file
    monkeypatch.chdir(tmp_path)
    assert run_cli([*argv, "--N", "241", "--output", "s"]) == 1
    assert capsys.readouterr().err.startswith("error: node spacing h = ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["scf", "gd"])
@pytest.mark.parametrize("L", ["1e-50", "1e-100", "1e-150"])
def test_a_tiny_grid_ends_with_an_error_line(tmp_path, capsys, monkeypatch, recwarn, method, L):
    # h^2 and 4/h^2 are finite, but a solve's squared norms underflow or
    # overflow: it must end as a refusal or a failed solve, not a traceback,
    # and its norms, scaled where their squares overflow, warn of nothing.
    # At L = 1e-150 the stencil of a unit-mass state itself passes the float
    # range (about 1e380), which no scaled norm mends, and NumPy warns of it.
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--method", method, "--z", "2", "--L", L, "--N", "243", "--max-iter", "50"]
    assert run_cli([*argv, "--output", "s"]) in (1, 2)
    assert capsys.readouterr().err.startswith(("error: ", "solver did not converge: "))
    warned = [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert warned == [] or L == "1e-150"
    assert list(tmp_path.iterdir()) == []


def _csv_record(path):
    """The ``# summary`` fields and the rows, as cell strings by column, of a CLI CSV file."""
    lines = path.read_text().splitlines()
    summary = dict(kv.split("=", 1) for line in lines if line.startswith("# summary ")
                   for kv in line.split()[2:])
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    return summary, header, [dict(zip(header, row)) for row in rows]


def _cells(rows, header):
    """JSON row objects as CSV cells: a value's text, or empty where the row lacks it."""
    return [{col: str(row[col]) if col in row else "" for col in header} for row in rows]


@pytest.mark.parametrize("argv,code", [
    (["solve", "--z", "2", "--method", "scf"], 0),
    (["solve", "--z", "2", "--method", "both"], 0),
    (["scan", "--z-list", "1.5,2"], 0),
    (["scan", "--z-list", "1.5,2", "--max-iter", "4"], 2),  # no_convergence rows: z = 1.5 takes 5
])
def test_csv_and_json_carry_the_same_record(tmp_path, argv, code):
    argv = [*argv, "--L", "12", "--N", "241"]
    assert run_cli(argv + ["--output", str(tmp_path / "c")]) == code
    assert run_cli(argv + ["--format", "json", "--output", str(tmp_path / "j")]) == code
    doc = json.loads((tmp_path / "j.json").read_text())
    summary, header, rows = _csv_record(tmp_path / "c.csv")
    if argv[0] == "scan":
        assert not summary
        assert set().union(*doc["rows"]) <= set(header)
        assert rows == _cells(doc["rows"], header)
        if code == 2:  # the other cells of a failed row are empty in the CSV
            assert all(set(row) == {"z", "status"} for row in doc["rows"])
        return
    assert summary == {k: str(v) for k, v in doc["summary"].items()}
    table = doc["table"]
    assert header == ["x", "u", "V"] and sorted(table) == sorted(header)
    assert rows == _cells([dict(zip(table, row)) for row in zip(*table.values())], header)
    _, trace_header, trace = _csv_record(tmp_path / "c_trace.csv")
    assert trace_header == ["iteration", "objective", "residual"]
    assert trace == _cells(doc["trace"], trace_header)


def test_solve_both_methods(tmp_path):
    out = tmp_path / "both"
    code = run_cli(
        ["solve", "--z", "2", "--L", "16", "--N", "1601", "--method", "both",
         "--format", "json", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "both.json").read_text())
    assert doc["summary"]["cross_method_energy_gap"] < 1e-4
    assert doc["summary"]["cross_method_objective_gap"] <= 1e-12


def test_scan_basic(tmp_path):
    out = tmp_path / "scan"
    code = run_cli(
        ["scan", "--z-list", "1.5,2,2", "--L", "16", "--N", "1601",
         "--output", str(out)]
    )
    assert code == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[2] == "z,E,epsilon,kinetic,coulomb,moment1,iterations,status"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 3
    assert all(row[-1] == "ok" for row in rows)
    assert rows[1] == rows[2]  # duplicate z rows identical


def test_scan_rejects_empty_and_subcritical(tmp_path, capsys, monkeypatch):
    solves = _record_solves(monkeypatch)
    assert run_cli(["scan", "--z-list", ",", "--output", str(tmp_path / "s")]) == 1
    assert run_cli(["scan", "--z-list", "0.5", "--output", str(tmp_path / "s")]) == 1
    capsys.readouterr()
    argv = ["scan", "--z-list", "2,0.5", "--L", "12", "--N", "241",
            "--output", str(tmp_path / "s")]
    assert run_cli(argv) == 1
    # the words solve uses, naming the first subcritical z
    assert ("refusing subcritical charge ratio z = 0.5 < 1 (no bound state)"
            in capsys.readouterr().err)
    assert not solves
    assert not list(tmp_path.iterdir())


def test_scan_refuses_a_non_finite_z_before_any_solve(tmp_path, capsys, monkeypatch):
    solves = _record_solves(monkeypatch)
    argv = ["scan", "--z-list", "2,nan", "--L", "12", "--N", "241",
            "--output", str(tmp_path / "s")]
    assert run_cli(argv) == 1
    assert "point charge ratio z must be finite and positive, got nan" in capsys.readouterr().err
    assert not solves
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("z_list,got", [("2,-1", "-1.0"), ("0", "0.0")])
def test_scan_refuses_a_non_positive_z_before_any_solve(tmp_path, capsys, monkeypatch, z_list,
                                                        got):
    # the message solve gives for the same z
    solves = _record_solves(monkeypatch)
    argv = ["scan", "--z-list", z_list, "--L", "12", "--N", "241",
            "--output", str(tmp_path / "s")]
    assert run_cli(argv) == 1
    assert (f"error: point charge ratio z must be finite and positive, got {got}"
            in capsys.readouterr().err)
    assert not solves
    assert not list(tmp_path.iterdir())


def test_scan_deterministic(tmp_path):
    args = ["scan", "--z-list", "1.5,2", "--L", "16", "--N", "1601"]
    assert run_cli(args + ["--output", str(tmp_path / "a")]) == 0
    assert run_cli(args + ["--output", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    # normalize the output-path key, everything else must match byte for byte
    assert a.replace(b"output=" + bytes(str(tmp_path / "a"), "utf8"),
                     b"output=" + bytes(str(tmp_path / "b"), "utf8")) == b
    # JSON output is deterministic as well
    jargs = args + ["--format", "json", "--output", str(tmp_path / "j")]
    assert run_cli(jargs) == 0
    first = (tmp_path / "j.json").read_bytes()
    assert run_cli(jargs) == 0
    assert (tmp_path / "j.json").read_bytes() == first


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[background]\nz = 1.5\n\n[grid]\nL = 16\nN = 1601\n\n"
        "[solver]\nmethod = scf\nmax_iter = 5000\n\n"
        f"[output]\npath = {tmp_path / 'cfg'}\nformat = json\n"
    )
    code = run_cli(["solve", "--config", str(cfgfile), "--z", "2"])
    assert code == 0
    doc = json.loads((tmp_path / "cfg.json").read_text())
    assert doc["config"]["z"] == 2.0  # flag wins
    assert doc["config"]["N"] == 1601  # file value kept
    assert doc["config"]["max_iter"] == 5000


def test_zero_flag_overrides_config_file(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[background]\nz = 2\n\n[grid]\nL = 16\nN = 1601\n\n[solver]\nmax_iter = 5000\n\n"
        f"[output]\npath = {tmp_path / 'cfg'}\nformat = json\n"
    )
    # the flag's 0 replaces the file's 5000 and is then refused
    assert run_cli(["solve", "--config", str(cfgfile), "--max-iter", "0"]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_zero_half_width_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert run_cli(["solve", "--z", "2", "--L", "0", "--output", out]) == 1
    assert run_cli(["scan", "--z-list", "2", "--L", "0", "--output", out]) == 1
    assert "half-width must be positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag,value,message", [
    ("--z", "nan", "charge ratio z must be finite"),
    ("--z", "inf", "charge ratio z must be finite"),
    ("--L", "nan", "L must be finite"),
    ("--L", "inf", "L must be finite"),
    ("--tol-energy", "nan", "tol_energy must be finite"),
    ("--tol-residual", "inf", "tol_residual must be finite"),
])
def test_non_finite_value_is_usage_error_before_a_solve(tmp_path, capsys, flag, value, message):
    args = {"--z": "2", "--L": "12", "--N": "241", flag: value}
    argv = ["solve", *[t for kv in args.items() for t in kv], "--output", str(tmp_path / "x")]
    assert run_cli(argv) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_scan_rejects_background_file(tmp_path, capsys):
    path = tmp_path / "rho.dat"
    path.write_text("-1 0\n0 -1\n1 0\n")
    out = tmp_path / "s"
    code = run_cli(["scan", "--z-list", "2", "--background-file", str(path),
                    "--output", str(out)])
    assert code == 1
    assert "unrecognized arguments: --background-file" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_scan_rejects_method_both(tmp_path, capsys):
    out = tmp_path / "s"
    code = run_cli(["scan", "--z-list", "2", "--method", "both", "--output", str(out)])
    assert code == 1
    assert "error: scan runs one method, scf or gd, not 'both'" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("section,key,value", [("solver", "method", "foo"),
                                               ("output", "format", "xml")])
def test_bad_choice_from_config_file_is_usage_error(tmp_path, capsys, section, key, value):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text(
        f"[background]\nz = 2\n\n[grid]\nL = 8\nN = 201\n\n[{section}]\n{key} = {value}\n"
    )
    out = str(tmp_path / "x")
    assert run_cli(["solve", "--config", str(cfgfile), "--output", out]) == 1
    from_file = capsys.readouterr().err
    assert run_cli(["solve", "--z", "2", f"--{key}", value, "--output", out]) == 1
    assert capsys.readouterr().err == from_file  # the same check for a flag
    assert f"{key} must be one of" in from_file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ini"]


@pytest.mark.parametrize("argv", [
    ["verify", "delta", "--N", "11"],
    ["verify", "delta", "--config", "run.ini"],
    ["scan", "--z-list", "2", "--seed", "3"],
    ["scan", "--z-list", "2", "--z", "9"],  # no prefix match of --z-list
    ["solve", "--z", "2", "--max", "5"],  # no prefix match of --max-iter
    ["solve", "--z", "0.5", "--allow-subcritical"],
    ["solve", "--z", "2", "--include-background-self"],
    ["verify", "counterexample", "--z", "0.5"],
])
def test_unread_or_abbreviated_flag_is_usage_error(tmp_path, capsys, argv):
    # verify reads no --output, which would be the unrecognized flag
    output = [] if argv[0] == "verify" else ["--output", str(tmp_path / "x")]
    assert run_cli(argv + output) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("entry", ["[background]\nz = 2\n", "[solver]\nseed = 3\n"])
def test_scan_rejects_config_key_it_does_not_read(tmp_path, capsys, entry):
    cfgfile = tmp_path / "scan.ini"
    cfgfile.write_text(entry)
    code = run_cli(["scan", "--config", str(cfgfile), "--z-list", "2",
                    "--output", str(tmp_path / "s")])
    assert code == 1
    assert "scan reads no config key" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.ini"]


# Every solve setting with an INI key, a value other than its default, and
# the flag that sets it.
_SOLVE_SETTINGS = [
    ("background", "z", "2.5", "--z"),
    ("grid", "L", "13", "--L"),
    ("grid", "N", "243", "--N"),
    ("solver", "method", "gd", "--method"),
    ("solver", "tol_energy", "1e-09", "--tol-energy"),
    ("solver", "tol_residual", "1e-06", "--tol-residual"),
    ("solver", "max_iter", "5000", "--max-iter"),
    ("output", "format", "json", "--format"),
]


def _config_record(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())["config"]
    return path.read_text().splitlines()[1]


@pytest.mark.parametrize("section,key,value,flag", _SOLVE_SETTINGS)
def test_config_key_and_flag_record_the_same(tmp_path, section, key, value, flag):
    base = {"background": {"z": "2"}, "grid": {"L": "12", "N": "241"}}
    base.setdefault(section, {})[key] = value
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("".join(
        f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for sec, keys in base.items()
    ))
    out = str(tmp_path / "s")
    ext = ".json" if key == "format" else ".csv"
    assert run_cli(["solve", "--config", str(cfgfile), "--output", out]) == 0
    from_file = _config_record(tmp_path / ("s" + ext))
    argv = ["solve", "--z", "2", "--L", "12", "--N", "241", flag, value, "--output", out]
    assert run_cli(argv) == 0
    assert _config_record(tmp_path / ("s" + ext)) == from_file
    assert value in str(from_file)


def test_file_and_path_keys_and_flags_record_the_same(tmp_path):
    cfgfile = tmp_path / "run.ini"
    out = str(tmp_path / "s")
    cfgfile.write_text(f"[background]\nfile = {tmp_path / 'rho.dat'}\n\n"
                       f"[grid]\nL = 12\nN = 241\n\n[output]\npath = {out}\n")
    (tmp_path / "rho.dat").write_text("-1 0\n0 -2\n1 0\n")  # charge -2
    assert run_cli(["solve", "--config", str(cfgfile)]) == 0
    from_file = _config_record(tmp_path / "s.csv")
    assert run_cli(["solve", "--background-file", str(tmp_path / "rho.dat"),
                    "--L", "12", "--N", "241", "--output", out]) == 0
    assert _config_record(tmp_path / "s.csv") == from_file
    assert f"output={out}" in from_file


@pytest.mark.parametrize("command", ["solve", "scan"])
def test_resolve_config_records_the_solver_defaults(command):
    args = build_parser().parse_args([command, "--z-list", "2"] if command == "scan" else [command])
    cfg = resolve_config(args)
    assert _solver_config(cfg) == SolverConfig()


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text("[grid]\nbogus = 1\n")
    assert run_cli(["solve", "--config", str(cfgfile), "--z", "2"]) == 1


@pytest.mark.parametrize("text", ["N = 241\n", "[grid]\nN = 241\nN = 243\n", "[grid]\nN = 241\nbogus\n"],
                         ids=["no-section-header", "duplicated-key", "line-without-equals"])
def test_malformed_config_file_is_usage_error(tmp_path, capsys, text):
    # configparser's own errors once escaped main as a traceback
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text(text)
    assert run_cli(["solve", "--config", str(cfgfile), "--z", "2"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot parse config file {cfgfile}: ")


def test_config_value_is_read_literally(tmp_path):
    # a % in a value once escaped main as configparser's InterpolationSyntaxError
    cfgfile = tmp_path / "run.ini"
    out = tmp_path / "run%1"
    cfgfile.write_text(f"[output]\npath = {out}\n")
    assert run_cli(["solve", "--config", str(cfgfile), "--z", "2", "--L", "12", "--N", "241"]) == 0
    assert f"output={out}" in (tmp_path / "run%1.csv").read_text().splitlines()[1]


@pytest.mark.parametrize("text", ["[DEFAULT]\nN = 241\n", "[DEFAULT]\nN = 241\n\n[grid]\nL = 12\n"],
                         ids=["alone", "beside-a-section"])
def test_default_section_key_is_usage_error(tmp_path, capsys, text):
    # alone, [DEFAULT] keys were ignored (the solve ran at N = 6001); beside
    # another section they were copied into it
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    argv = ["solve", "--config", str(cfgfile), "--z", "2", "--output", str(tmp_path / "s")]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "error: solve reads no config key [DEFAULT] N\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_missing_background_is_usage_error(tmp_path):
    assert run_cli(["solve", "--L", "16", "--N", "1601",
                    "--output", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("suite", ["forms", "delta", "innerprod", "bnorm", "rearrange"])
def test_verify_suites_pass(suite, capsys):
    code = run_cli(["verify", suite])
    out = capsys.readouterr().out
    assert code == 0
    assert f"suite {suite}: PASS" in out


@pytest.mark.parametrize("suite,lines", [
    ("forms", ["  max_rel_deviation = 1.64489e-15"]),
    ("rearrange", [
        "  equimeasurability_failures = 0",
        "  worst_hardy_littlewood_excess = -4.82433",
        "  worst_interaction_increase = -10.9822",
    ]),
    ("innerprod", [
        "  min_inner_product = 0.446809",
        "  worst_identity_rel_err = 2.04345e-15",
    ]),
    ("bnorm", [
        "  cauchy_schwarz_violations = 0",
        "  homogeneity_violations = 0",
        "  triangle_violations = 0",
        "  uniform_convexity_violations = 0",
        "  worst_convexity_excess = -1692.44",
        "  worst_triangle_excess = -1.82559",
    ]),
])
def test_verify_seed0_output_is_pinned(suite, lines, capsys):
    # recorded from the trial-by-trial suites (bnorm: from its block draws
    # of all u, then all v, then all scales); the block suites must print the same
    assert run_cli(["verify", suite, "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"suite {suite}: PASS", *lines]


def test_verify_counterexample_reports_slope(capsys):
    # honest report: the measured slope at n <= 80 sits outside the +-0.03
    # asymptotic window, so the suite flags it while printing the value.
    # The pin changes only with the suite's n-list (ROADMAP item 1).
    assert run_cli(["verify", "counterexample"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "suite counterexample: FAIL",
        "  kinetic_at_largest_n = 0.346433",
        "  o1_span = 0.368622",
        "  slope = -0.315784",
        "  slope_error = 0.184216",
        "  target_slope = -0.5",
        "  FAIL: slope -0.3158 outside -0.5 +- 0.03 at n <= 80",
    ]


def test_verify_delta_output_is_pinned(capsys):
    assert run_cli(["verify", "delta"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "suite delta: PASS",
        "  loglog_slope = -1.00011",
    ]


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run_cli(["verify", "nosuchsuite"]) == 1
    capsys.readouterr()


def test_suite_registry_complete():
    assert set(SUITES) == {
        "forms", "bnorm", "rearrange", "counterexample", "delta", "innerprod",
    }


def _count_calls(monkeypatch, module, name):
    """Calls of ``module.name`` from any coulombium module that imported it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("coulombium") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("source,flags,builds", [
    ("z", ["--method", "scf"], 1),
    ("z", ["--method", "both"], 2),
    ("file", [], 1),
])
def test_solve_builds_the_background_once_per_solver_run(tmp_path, monkeypatch, source, flags,
                                                         builds):
    # The residual and the energy, background_const too, are read from the
    # solve, not rebuilt; one build beside the solver runs' rebuilds the
    # written V from u
    (tmp_path / "rho.dat").write_text("-1 0\n0 -2\n1 0\n")  # charge -2
    bg = ["--z", "2"] if source == "z" else ["--background-file", str(tmp_path / "rho.dat")]
    calls = _count_calls(monkeypatch, coulombium.background, "background_potential")
    pair_calls = _count_calls(monkeypatch, coulombium.kernel, "coulomb_pair_energy")
    argv = ["solve", *bg, "--L", "12", "--N", "241", *flags, "--output", str(tmp_path / "s")]
    assert run_cli(argv) == 0
    assert len(calls) == builds + 1
    assert not pair_calls


@pytest.mark.parametrize("source", ["z", "file"])
def test_the_written_v_is_the_potential_of_the_written_u(tmp_path, source):
    # repr round-trips every value, so the cells compare exactly
    path = tmp_path / "rho.dat"
    path.write_text("-1 0\n0 -2\n1 0\n")  # charge -2
    g = Grid(12.0, 241)
    flags, bg = ((["--z", "2"], PointCharge(2.0)) if source == "z"
                 else (["--background-file", str(path)], load_background(str(path), g)))
    argv = ["solve", *flags, "--L", "12", "--N", "241", "--output", str(tmp_path / "s")]
    assert run_cli(argv) == 0
    _, header, rows = _csv_record(tmp_path / "s.csv")
    assert header == ["x", "u", "V"]
    u = Samples(g, [float(row["u"]) for row in rows])
    assert list(map(repr, effective_potential(u, bg).values.tolist())) == [r["V"] for r in rows]


@pytest.mark.parametrize("method", ["scf", "gd"])
def test_trace_cells_are_plain_floats(tmp_path, method):
    out = tmp_path / "s"
    argv = ["solve", "--z", "2", "--L", "12", "--N", "241", "--method", method,
            "--output", str(out)]
    assert run_cli(argv) == 0
    lines = (tmp_path / "s_trace.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0] == ["iteration", "objective", "residual"]
    assert len(rows) > 2
    for row in rows[1:]:
        assert len(row) == 3
        [float(cell) for cell in row]


def _csv_writer_reference(path, cfg, table, comments=()):
    """The table written cell by cell through ``_fmt`` and ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        for line in (*cli._config_lines(cfg), *comments):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(table.keys())
        writer.writerows(zip(*(map(cli._fmt, column) for column in table.values())))


def _assert_csv_matches_reference(table, comments=()):
    cfg = argparse.Namespace(L=12.0, N=241, output="t")
    with tempfile.TemporaryDirectory() as d:
        got, want = Path(d, "got.csv"), Path(d, "want.csv")
        cli._write_csv(got, cfg, table, comments)
        _csv_writer_reference(want, cfg, table, comments)
        assert got.read_bytes() == want.read_bytes()


_FLOATS = st.one_of(st.floats(),
                    st.sampled_from([-0.0, 1e-05, 1e16, math.inf, -math.inf, math.nan]))
# scan's cells: floats, ints, blanks and status words, in one column
_SCAN_CELLS = st.one_of(_FLOATS, st.integers(0, 10**6),
                        st.sampled_from(["", "ok", "no_convergence"]))


@st.composite
def _tables(draw):
    """Tables shaped like solve's and scan's: 2-8 equal columns of floats, ints or scan cells.

    A one-column row holding one blank, the one row ``csv`` would quote, never occurs.
    """
    rows = draw(st.integers(1, 20))
    names = draw(st.lists(st.sampled_from(["x", "u", "V", "iteration", "objective", "z",
                                           "E", "moment1", "iterations", "status"]),
                          min_size=2, max_size=8, unique=True))
    kinds = [_FLOATS, st.integers(-10**12, 10**12), _SCAN_CELLS]
    return {name: draw(st.lists(draw(st.sampled_from(kinds)), min_size=rows, max_size=rows))
            for name in names}


@settings(max_examples=60, deadline=None, database=None)
@given(table=_tables(), summary=st.booleans())
def test_write_csv_writes_the_csv_writer_bytes(table, summary):
    _assert_csv_matches_reference(table, ["# summary E=-0.0 iterations=3"] if summary else [])


def test_write_csv_writes_the_csv_writer_bytes_for_full_tables():
    # a solve's 2001-row table and trace, and a scan with a failed row
    x = np.linspace(-30.0, 30.0, 2001)
    u = np.exp(-np.abs(x))
    _assert_csv_matches_reference(
        {"x": x.tolist(), "u": u.tolist(), "V": (0.5 * x).tolist()})
    _assert_csv_matches_reference({"iteration": list(range(1, 31)),
                                   "objective": np.geomspace(1.0, 1e-12, 30).tolist(),
                                   "residual": np.geomspace(1e-1, 1e-16, 30).tolist()})
    rows = [{"z": 1.0, "status": "no_convergence"},
            {"z": 2.0, "E": 1.26, "epsilon": 0.47, "kinetic": 0.25, "coulomb": 1.0,
             "moment1": 0.78, "iterations": 6, "status": "ok"}]
    _assert_csv_matches_reference(
        {col: [row.get(col, "") for row in rows] for col in cli._SCAN_COLUMNS})


def test_cached_parser_gives_a_fresh_parsers_output(tmp_path, monkeypatch, capsys):
    # main parses every call with one parser; a sequence of calls through it
    # prints and writes what a parser built for each call does
    assert cli.build_parser() is cli.build_parser()
    argvs = [["solve", "--bogus"], ["verify", "bnorm", "--seed", "3"], ["verify", "delta"],
             ["solve", "--z", "2", "--L", "12", "--N", "241", "--output", "s"],
             ["verify", "delta", "--z", "2"]]

    def record(side):
        monkeypatch.chdir(tmp_path / side)
        calls = []
        for argv in argvs:
            code = main(argv)
            out, err = capsys.readouterr()
            calls.append((code, out, err))
        files = {p.name: p.read_bytes() for p in sorted(Path().iterdir())}
        return calls, files

    (tmp_path / "cached").mkdir()
    (tmp_path / "fresh").mkdir()
    cached = record("cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = record("fresh")
    assert cached == fresh
    assert [code for code, _, _ in cached[0]] == [1, 0, 0, 0, 1]
    assert sorted(cached[1]) == ["s.csv", "s_trace.csv"]
