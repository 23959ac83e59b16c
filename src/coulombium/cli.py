"""Command-line interface: solve, scan and verify subcommands.

``SETTINGS`` names each setting once: its INI section and key (none for a
flag-only setting), type, default (``SolverConfig``'s for the grid and
solver settings) and allowed values.  ``COMMANDS`` lists the settings each
subcommand reads: ``solve`` all but ``seed``, ``scan`` the grid, solver
and output settings, ``verify`` only ``seed`` and ``z`` (and no config
file).  A subcommand's flags, the INI keys its ``--config`` file may hold,
the one check of every value and the configuration its output records all
come from its list, so a flag or key it does not read is a usage error and
a bad value fails the same way from a flag or a file.  A flag overrides
the file whenever it is given.  Identical settings produce byte-identical
output.

Exit codes: 0 success, 1 usage or configuration error, 2 non-convergence,
3 subcritical divergence detected.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import inspect
import json
import sys
from dataclasses import fields
from typing import Any, Callable, NamedTuple

from .background import PointCharge, load_background, total_charge
from .diagnostics import moment
from .energy import candidate_energy
from .errors import CoulombiumError, DivergingEnergyError, SolverError
from .grid import Grid
from .solver import _SUBCRITICAL, SolverConfig, gradient_solve, scf_solve
from .verify import SUITES

SCHEMA_VERSION = 4

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NO_CONVERGENCE = 2
_EXIT_SUBCRITICAL = 3


class Setting(NamedTuple):
    section: str | None  # INI section; None for a flag-only setting
    key: str | None
    type: Callable
    default: Any
    choices: tuple = ()
    help: str | None = None


SETTINGS = {
    "z": Setting("background", "z", float, None, help="point background charge ratio"),
    "background_file": Setting("background", "file", str, None, help="(x, rho) text file"),
    "L": Setting("grid", "L", float, SolverConfig.L, help="domain half-width"),
    "N": Setting("grid", "N", int, SolverConfig.N, help="node count (odd)"),
    "method": Setting("solver", "method", str, "scf", ("scf", "gd", "both")),
    "tol_energy": Setting("solver", "tol_energy", float, SolverConfig.tol_energy),
    "tol_residual": Setting("solver", "tol_residual", float, SolverConfig.tol_residual),
    "max_iter": Setting("solver", "max_iter", int, SolverConfig.max_iter),
    "output": Setting("output", "path", str, "ground_state", help="output path prefix"),
    "format": Setting("output", "format", str, "csv", ("csv", "json")),
    "allow_subcritical": Setting(None, None, bool, False, help="try z < 1 anyway"),
    "include_background_self": Setting(None, None, bool, False, help="add the rho*rho energy"),
    "seed": Setting(None, None, int, None, help="seed of the suite's random data"),
}
_GRID_SOLVER_OUTPUT = ("L", "N", "method", "tol_energy", "tol_residual", "max_iter",
                       "output", "format")
COMMANDS = {
    "solve": ("z", "background_file", *_GRID_SOLVER_OUTPUT,
              "allow_subcritical", "include_background_self"),
    "scan": _GRID_SOLVER_OUTPUT,
    "verify": ("seed", "z"),
}
_SOLVERS = {"scf": scf_solve, "gd": gradient_solve}


def _checked(name: str, raw):
    """A flag's or INI key's value as the setting's type, within its allowed values."""
    s = SETTINGS[name]
    try:
        value = s.type(raw)
    except ValueError:
        raise CoulombiumError(f"{name}: cannot read {raw!r} as {s.type.__name__}") from None
    if s.choices and value not in s.choices:
        raise CoulombiumError(f"{name} must be one of {', '.join(s.choices)}, got {value!r}")
    return value


def load_config_file(path: str, command: str) -> dict:
    """Raw values, by setting name, of the INI file's keys; ``command`` must read each."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    if not parser.read(path):
        raise CoulombiumError(f"cannot read config file {path}")
    names = {(SETTINGS[n].section, SETTINGS[n].key): n for n in COMMANDS[command]}
    out = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if (section, key) not in names:
                raise CoulombiumError(f"{command} reads no config key [{section}] {key}")
            out[names[section, key]] = value
    return out


def _subparser(sub, command: str, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(command, help=help, allow_abbrev=False)
    for name in COMMANDS[command]:
        s = SETTINGS[name]
        flag = "--" + name.replace("_", "-")
        if s.type is bool:
            p.add_argument(flag, action="store_true", default=None, help=s.help)
        else:
            metavar = "{" + ",".join(s.choices) + "}" if s.choices else None
            p.add_argument(flag, metavar=metavar, help=s.help)
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coulombium",
        description="Ground states of the 1-D Schrodinger-Coulomb system",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)
    ps = _subparser(sub, "solve", "compute one ground state")
    pc = _subparser(sub, "scan", "sweep the charge ratio")
    pv = _subparser(sub, "verify", "run a property suite")
    for q in (ps, pc):
        q.add_argument("--config", help="INI config file")
    pc.add_argument("--z-list", required=True, help="comma-separated z values")
    pv.add_argument("suite", choices=sorted(SUITES))
    return p


def read_settings(args: argparse.Namespace) -> dict:
    """The settings given to ``args.command``: its config file, then its flags, checked."""
    raw = load_config_file(args.config, args.command) if getattr(args, "config", None) else {}
    for name in COMMANDS[args.command]:
        if getattr(args, name) is not None:
            raw[name] = getattr(args, name)
    return {name: _checked(name, value) for name, value in raw.items()}


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Every setting ``args.command`` reads, by name in sorted order: given or default."""
    values = {name: SETTINGS[name].default for name in COMMANDS[args.command]}
    values.update(read_settings(args))
    return argparse.Namespace(**dict(sorted(values.items())))


def _solver_config(cfg: argparse.Namespace) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(cfg, f.name) for f in fields(SolverConfig)})


def _build_background(cfg, grid):
    if cfg.background_file:
        return load_background(cfg.background_file, grid)
    if cfg.z is None:
        raise CoulombiumError("need --z or --background-file")
    return PointCharge(cfg.z)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_lines(cfg: argparse.Namespace):
    pairs = " ".join(f"{k}={_fmt(v)}" for k, v in vars(cfg).items())
    return [f"# schema_version={SCHEMA_VERSION}", f"# config {pairs}"]


def _write_csv(path, cfg, header, rows, extra_comments=()):
    with open(path, "w", newline="") as fh:
        for line in _config_lines(cfg):
            fh.write(line + "\n")
        for line in extra_comments:
            fh.write(line + "\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, cfg, payload):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": vars(cfg),
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    solver_cfg = _solver_config(cfg)
    grid = Grid(cfg.L, cfg.N)
    bg = _build_background(cfg, grid)
    z = -total_charge(bg)
    # quadrature-scale tolerance so nominally neutral file backgrounds pass
    if z < 1.0 - 1e-6 and not cfg.allow_subcritical:
        print(
            f"refusing subcritical charge ratio z = {z:.6g} < 1 "
            "(no bound state); pass --allow-subcritical to try anyway",
            file=sys.stderr,
        )
        return _EXIT_USAGE

    methods = ("scf", "gd") if cfg.method == "both" else (cfg.method,)
    states = {}
    try:
        for method in methods:
            states[method] = _SOLVERS[method](bg, solver_cfg)
    except DivergingEnergyError as exc:
        print(f"subcritical divergence detected: {exc}", file=sys.stderr)
        return _EXIT_SUBCRITICAL
    except SolverError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE

    primary = states[methods[0]]
    V = primary.candidate.V
    breakdown = primary.energy
    if cfg.include_background_self:
        breakdown = candidate_energy(primary.candidate, bg, include_background_self=True)
    summary = {
        "method": methods[0],
        "epsilon": primary.epsilon,
        "kinetic": breakdown.kinetic,
        "coulomb": breakdown.coulomb,
        "background_const": breakdown.background_const,
        "total_energy": breakdown.total,
        "objective": primary.candidate.objective,
        "residual": primary.residual,
        "iterations": primary.iterations,
        "converged": primary.converged,
    }
    if len(states) == 2:
        summary["cross_method_energy_gap"] = abs(
            states["scf"].energy.total - states["gd"].energy.total
        )

    if cfg.format == "json":
        payload = {
            "summary": summary,
            "table": {
                "x": primary.u.grid.x.tolist(),
                "u": primary.u.values.tolist(),
                "u2": (primary.u.values**2).tolist(),
                "V": V.values.tolist(),
            },
            "trace": [
                {"iteration": i + 1, "objective": e, "residual": r}
                for i, (e, r) in enumerate(primary.history)
            ],
        }
        _write_json(cfg.output + ".json", cfg, payload)
        written = [cfg.output + ".json"]
    else:
        rows = [
            (_fmt(x), _fmt(u), _fmt(u * u), _fmt(v))
            for x, u, v in zip(
                primary.u.grid.x.tolist(),
                primary.u.values.tolist(),
                V.values.tolist(),
            )
        ]
        summary_line = "# summary " + " ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(summary.items())
        )
        _write_csv(
            cfg.output + ".csv", cfg, ["x", "u", "u2", "V"], rows,
            extra_comments=[summary_line],
        )
        trace_rows = [
            (str(i + 1), _fmt(e), _fmt(r))
            for i, (e, r) in enumerate(primary.history)
        ]
        _write_csv(
            cfg.output + "_trace.csv",
            cfg,
            ["iteration", "objective", "residual"],
            trace_rows,
        )
        written = [cfg.output + ".csv", cfg.output + "_trace.csv"]

    for key, value in summary.items():
        print(f"{key} = {_fmt(value)}")
    print("wrote " + ", ".join(written))
    return _EXIT_OK


_SCAN_COLUMNS = ["z", "E", "epsilon", "kinetic", "coulomb", "moment1", "iterations", "status"]


def _scan_row(solve, solver_cfg: SolverConfig, z: float):
    try:
        state = solve(PointCharge(z), solver_cfg)
    except DivergingEnergyError:
        return {"z": z, "status": "diverged"}
    except SolverError:
        return {"z": z, "status": "no_convergence"}
    sq = state.u.with_values(state.u.values**2)
    return {
        "z": z,
        "E": state.energy.total,
        "epsilon": state.epsilon,
        "kinetic": state.energy.kinetic,
        "coulomb": state.energy.coulomb,
        "moment1": moment(sq, 1.0),
        "iterations": state.iterations,
        "status": "ok",
    }


def cmd_scan(args) -> int:
    cfg = resolve_config(args)
    if cfg.method not in _SOLVERS:
        print(f"scan runs one method, scf or gd, not {cfg.method!r}", file=sys.stderr)
        return _EXIT_USAGE
    solver_cfg = _solver_config(cfg)
    try:
        z_values = [float(tok) for tok in args.z_list.split(",") if tok.strip()]
    except ValueError:
        print(f"cannot parse z list {args.z_list!r}", file=sys.stderr)
        return _EXIT_USAGE
    if not z_values:
        print("empty z list", file=sys.stderr)
        return _EXIT_USAGE
    if any(z < _SUBCRITICAL for z in z_values):
        print("scan requires all z >= 1", file=sys.stderr)
        return _EXIT_USAGE

    rows = [_scan_row(_SOLVERS[cfg.method], solver_cfg, z) for z in z_values]

    if cfg.format == "json":
        _write_json(cfg.output + ".json", cfg, {"rows": rows})
        path = cfg.output + ".json"
    else:
        csv_rows = [
            [_fmt(row[col]) if col in row else "" for col in _SCAN_COLUMNS]
            for row in rows
        ]
        _write_csv(cfg.output + ".csv", cfg, _SCAN_COLUMNS, csv_rows)
        path = cfg.output + ".csv"

    ok = all(row["status"] == "ok" for row in rows)
    for row in rows:
        print(f"z={_fmt(row['z'])}: {row['status']}")
    print(f"wrote {path}")
    return _EXIT_OK if ok else _EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    # each suite takes the settings among its parameters: seed, z or neither
    params = inspect.signature(suite).parameters
    report = suite(**{k: v for k, v in read_settings(args).items() if k in params})
    for line in report.lines():
        print(line)
    return _EXIT_OK if report.passed else _EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; 1 is this tool's usage code
        return 0 if exc.code == 0 else _EXIT_USAGE
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "scan":
            return cmd_scan(args)
        return cmd_verify(args)
    except (CoulombiumError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
