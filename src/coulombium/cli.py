"""Command-line interface: solve, scan and verify subcommands.

``SETTINGS`` names each setting once: its INI section and key (none for a
flag-only setting), type, default (``SolverConfig``'s for the grid and
solver settings) and allowed values.  ``COMMANDS`` lists the settings each
subcommand reads: ``solve`` all but ``seed``, ``scan`` the grid, solver
and output settings, ``verify`` only ``seed`` (and no config file).  A
subcommand's flags, the INI keys its ``--config`` file may hold, the one
check of every value and the configuration its output records all come
from its list, so a flag or key it does not read is a usage error and a
bad value fails the same way from a flag or a file.  A flag overrides the
file whenever it is given.  Identical settings produce byte-identical
output.

Exit codes, all mapped in ``main``: 0 success, 1 usage or configuration
error, or a charge ratio below 1 (``solver.require_bound_state``'s
:class:`DivergingEnergyError`, raised before any solve), 2 any other
solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import inspect
import json
import sys
from dataclasses import fields
from typing import Any, Callable, NamedTuple

from .background import PointCharge, load_background
from .diagnostics import moment
from .energy import effective_potential
from .errors import CoulombiumError, DivergingEnergyError, SolverError
from .grid import Grid
from .solver import SolverConfig, gradient_solve, require_bound_state, scf_solve
from .verify import SUITES

SCHEMA_VERSION = 7

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NO_CONVERGENCE = 2


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
    "seed": Setting(None, None, int, None, help="seed of the suite's random data"),
}
_GRID_SOLVER_OUTPUT = ("L", "N", "method", "tol_energy", "tol_residual", "max_iter",
                       "output", "format")
COMMANDS = {
    "solve": ("z", "background_file", *_GRID_SOLVER_OUTPUT),
    "scan": _GRID_SOLVER_OUTPUT,
    "verify": ("seed",),
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
    """Raw values, by setting name, of the INI file's keys; ``command`` must read each.

    Values are read literally (a ``%`` is a character), and no setting lives
    in ``[DEFAULT]``, so a key there is refused like any other unread key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    try:
        if not parser.read(path):
            raise CoulombiumError(f"cannot read config file {path}")
    except configparser.Error as exc:  # no section header, a repeated key, a line without =
        raise CoulombiumError(f"cannot parse config file {path}: {exc}") from None
    for key in parser.defaults():
        raise CoulombiumError(f"{command} reads no config key [{parser.default_section}] {key}")
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
        metavar = "{" + ",".join(s.choices) + "}" if s.choices else None
        p.add_argument("--" + name.replace("_", "-"), metavar=metavar, help=s.help)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
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
    if (cfg.z is None) == (cfg.background_file is None):
        raise CoulombiumError("need exactly one of --z and --background-file")
    if cfg.z is None:
        return load_background(cfg.background_file, grid)
    return PointCharge(cfg.z)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_lines(cfg: argparse.Namespace):
    pairs = " ".join(f"{k}={_fmt(v)}" for k, v in vars(cfg).items())
    return [f"# schema_version={SCHEMA_VERSION}", f"# config {pairs}"]


def _csv_cells(column):
    """A column's cells: ``repr`` mapped over a column of floats, :func:`_fmt` otherwise."""
    return map(repr if set(map(type, column)) == {float} else _fmt, column)


def _write_csv(path, cfg, table, comments=()):
    """Write ``table``, a dict of equal-length columns, below the config lines; return path.

    The header and rows are joined as the ``csv`` module's default dialect
    writes them: a comma between cells and CR LF after each row.  The cells
    are numbers, blanks and plain words, none of which that dialect quotes.
    """
    rows = zip(*map(_csv_cells, table.values()))
    with open(path, "w", newline="") as fh:
        for line in (*_config_lines(cfg), *comments):
            fh.write(line + "\n")
        fh.write("\r\n".join(map(",".join, (table.keys(), *rows))) + "\r\n")
    return path


def _write_json(path, cfg, payload):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": vars(cfg),
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    solver_cfg = _solver_config(cfg)
    grid = Grid(cfg.L, cfg.N)
    bg = _build_background(cfg, grid)
    require_bound_state(bg)

    methods = ("scf", "gd") if cfg.method == "both" else (cfg.method,)
    states = {method: _SOLVERS[method](bg, solver_cfg) for method in methods}
    primary = states[methods[0]]
    summary = {
        "method": methods[0],
        "epsilon": primary.epsilon,
        "kinetic": primary.energy.kinetic,
        "coulomb": primary.energy.coulomb,
        "background_const": primary.energy.background_const,
        "total_energy": primary.energy.total,
        "objective": primary.objective,
        "residual": primary.residual,
        "iterations": primary.iterations,
    }
    if len(states) == 2:
        summary["cross_method_energy_gap"] = abs(
            states["scf"].energy.total - states["gd"].energy.total
        )
        summary["cross_method_objective_gap"] = abs(states["scf"].objective
                                                    - states["gd"].objective)

    table = {"x": primary.u.grid.x.tolist(), "u": primary.u.values.tolist(),
             "V": effective_potential(primary.u, bg).values.tolist()}
    trace = {"iteration": list(range(1, len(primary.history) + 1)),
             "objective": [e for e, _ in primary.history],
             "residual": [r for _, r in primary.history]}
    if cfg.format == "json":
        rows = [dict(zip(trace, row)) for row in zip(*trace.values())]
        payload = {"summary": summary, "table": table, "trace": rows}
        written = [_write_json(cfg.output + ".json", cfg, payload)]
    else:
        summary_line = "# summary " + " ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(summary.items())
        )
        written = [_write_csv(cfg.output + ".csv", cfg, table, [summary_line]),
                   _write_csv(cfg.output + "_trace.csv", cfg, trace)]

    for key, value in summary.items():
        print(f"{key} = {_fmt(value)}")
    print("wrote " + ", ".join(written))
    return _EXIT_OK


_SCAN_COLUMNS = ["z", "E", "epsilon", "kinetic", "coulomb", "moment1", "iterations", "status"]


def _scan_row(solve, solver_cfg: SolverConfig, bg: PointCharge):
    try:
        state = solve(bg, solver_cfg)
    except SolverError:
        return {"z": bg.z, "status": "no_convergence"}
    return {
        "z": bg.z,
        "E": state.energy.total,
        "epsilon": state.epsilon,
        "kinetic": state.energy.kinetic,
        "coulomb": state.energy.coulomb,
        "moment1": moment(state.u.with_values(state.u.values**2), 1.0),
        "iterations": state.iterations,
        "status": "ok",
    }


def cmd_scan(args) -> int:
    cfg = resolve_config(args)
    if cfg.method not in _SOLVERS:
        raise CoulombiumError(f"scan runs one method, scf or gd, not {cfg.method!r}")
    solver_cfg = _solver_config(cfg)
    try:
        z_values = [float(tok) for tok in args.z_list.split(",") if tok.strip()]
    except ValueError:
        raise CoulombiumError(f"cannot parse z list {args.z_list!r}") from None
    if not z_values:
        raise CoulombiumError("empty z list")
    backgrounds = [PointCharge(z) for z in z_values]  # a non-finite z fails before any solve
    for bg in backgrounds:
        require_bound_state(bg)

    rows = [_scan_row(_SOLVERS[cfg.method], solver_cfg, bg) for bg in backgrounds]

    if cfg.format == "json":
        path = _write_json(cfg.output + ".json", cfg, {"rows": rows})
    else:
        table = {col: [row.get(col, "") for row in rows] for col in _SCAN_COLUMNS}
        path = _write_csv(cfg.output + ".csv", cfg, table)

    ok = all(row["status"] == "ok" for row in rows)
    for row in rows:
        print(f"z={_fmt(row['z'])}: {row['status']}")
    print(f"wrote {path}")
    return _EXIT_OK if ok else _EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    # each suite takes the settings among its parameters: seed or nothing
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
    except DivergingEnergyError as exc:
        print(f"refusing {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except SolverError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE
    except (CoulombiumError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
