import json

import numpy as np
import pytest

from coulombium.cli import main
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
    assert table[0] == "# schema_version=2"
    assert table[1].startswith("# config ")
    assert table[2].startswith("# summary ")
    assert "total_energy=" in table[2]
    assert table[3] == "x,u,u2,V"
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
    assert doc["schema_version"] == 2
    assert doc["config"]["z"] == 2.0
    assert doc["summary"]["converged"] is True
    assert len(doc["table"]["x"]) == 1601
    assert doc["trace"][0]["iteration"] == 1


def test_solve_refuses_subcritical(tmp_path):
    code = run_cli(
        ["solve", "--z", "0.5", "--L", "16", "--N", "1601",
         "--output", str(tmp_path / "x")]
    )
    assert code == 1


def test_solve_subcritical_with_flag_detects_divergence(tmp_path):
    code = run_cli(
        ["solve", "--z", "0.5", "--L", "24", "--N", "1201", "--max-iter", "200",
         "--allow-subcritical", "--output", str(tmp_path / "x")]
    )
    assert code in (2, 3)


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


def test_solve_both_methods(tmp_path):
    out = tmp_path / "both"
    code = run_cli(
        ["solve", "--z", "2", "--L", "16", "--N", "1601", "--method", "both",
         "--format", "json", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "both.json").read_text())
    assert doc["summary"]["cross_method_energy_gap"] < 1e-4


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


def test_scan_rejects_empty_and_subcritical(tmp_path):
    assert run_cli(["scan", "--z-list", ",", "--output", str(tmp_path / "s")]) == 1
    assert run_cli(["scan", "--z-list", "0.5", "--output", str(tmp_path / "s")]) == 1


def test_scan_deterministic(tmp_path):
    args = ["scan", "--z-list", "1.5,2", "--L", "16", "--N", "1601", "--seed", "7"]
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
        "[background]\nz = 2\n\n[grid]\nL = 16\nN = 1601\n\n[solver]\nseed = 5\n\n"
        f"[output]\npath = {tmp_path / 'cfg'}\nformat = json\n"
    )
    assert run_cli(["solve", "--config", str(cfgfile), "--seed", "0"]) == 0
    doc = json.loads((tmp_path / "cfg.json").read_text())
    assert doc["config"]["seed"] == 0


def test_zero_half_width_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert run_cli(["solve", "--z", "2", "--L", "0", "--output", out]) == 1
    assert run_cli(["scan", "--z-list", "2", "--L", "0", "--output", out]) == 1
    assert "half-width must be positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_scan_rejects_background_file(tmp_path, capsys):
    path = tmp_path / "rho.dat"
    path.write_text("-1 0\n0 -1\n1 0\n")
    out = tmp_path / "s"
    code = run_cli(["scan", "--z-list", "2", "--background-file", str(path),
                    "--output", str(out)])
    assert code == 1
    assert "background file" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_scan_rejects_method_both(tmp_path, capsys):
    out = tmp_path / "s"
    code = run_cli(["scan", "--z-list", "2", "--method", "both", "--output", str(out)])
    assert code == 1
    assert "one method" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text("[grid]\nbogus = 1\n")
    assert run_cli(["solve", "--config", str(cfgfile), "--z", "2"]) == 1


def test_missing_background_is_usage_error(tmp_path):
    assert run_cli(["solve", "--L", "16", "--N", "1601",
                    "--output", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("suite", ["forms", "delta", "innerprod", "bnorm", "rearrange"])
def test_verify_suites_pass(suite, capsys):
    code = run_cli(["verify", suite])
    out = capsys.readouterr().out
    assert code == 0
    assert f"suite {suite}: PASS" in out


def test_verify_counterexample_reports_slope(capsys):
    # honest report: the measured slope at n <= 80 sits outside the +-0.03
    # asymptotic window, so the suite flags it while printing the value
    code = run_cli(["verify", "counterexample", "--z", "0.5"])
    out = capsys.readouterr().out
    assert "slope" in out
    assert code == 1
    assert "suite counterexample: FAIL" in out


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run_cli(["verify", "nosuchsuite"]) == 1
    capsys.readouterr()


def test_suite_registry_complete():
    assert set(SUITES) == {
        "forms", "bnorm", "rearrange", "counterexample", "delta", "innerprod",
    }
