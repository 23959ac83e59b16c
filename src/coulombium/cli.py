"""Command-line interface: solve, scan and verify subcommands.

Configuration comes from an INI-style file with sections [background],
[grid], [solver] and [output], every key of which can be overridden by a
command-line flag.  Each output file embeds the fully resolved
configuration and a schema version line; identical (config, seed) pairs
produce byte-identical output.

Exit codes: 0 success, 1 usage or configuration error, 2 non-convergence,
3 subcritical divergence detected.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields

from .background import PointCharge, load_background, total_charge
from .diagnostics import moment
from .energy import effective_potential, el_residual, total_energy
from .errors import CoulombiumError, DivergingEnergyError, SolverError
from .grid import make_grid
from .solver import SolverConfig, gradient_solve, scf_solve
from .verify import SUITES

SCHEMA_VERSION = 2

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NO_CONVERGENCE = 2
_EXIT_SUBCRITICAL = 3


@dataclass
class RunConfig:
    """Fully resolved run parameters (background, grid, solver, output)."""

    z: float | None = None
    background_file: str | None = None
    L: float = 30.0
    N: int = 6001
    method: str = "scf"
    scf_damping: float = 0.6
    tol_energy: float = 1e-10
    tol_residual: float = 1e-7
    max_iter: int = 20000
    seed: int = 0
    output: str = "ground_state"
    format: str = "csv"
    allow_subcritical: bool = False
    include_background_self: bool = False

    def solver_config(self) -> SolverConfig:
        return SolverConfig(**{f.name: getattr(self, f.name) for f in fields(SolverConfig)})

    def resolved(self) -> dict:
        d = asdict(self)
        return {k: d[k] for k in sorted(d)}


_CONFIG_SECTIONS = {
    "background": {"z": float, "file": str},
    "grid": {"L": float, "N": int},
    "solver": {
        "method": str,
        "scf_damping": float,
        "tol_energy": float,
        "tol_residual": float,
        "max_iter": int,
        "seed": int,
    },
    "output": {"path": str, "format": str},
}
_KEY_MAP = {("background", "file"): "background_file", ("output", "path"): "output"}


def load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    read = parser.read(path)
    if not read:
        raise CoulombiumError(f"cannot read config file {path}")
    out = {}
    for section, keys in _CONFIG_SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key, value in parser.items(section):
            if key not in keys:
                raise CoulombiumError(f"unknown config key [{section}] {key}")
            field = _KEY_MAP.get((section, key), key)
            out[field] = keys[key](value)
    return out


def _add_common_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="INI config file")
    p.add_argument("--z", type=float, help="point background charge ratio")
    p.add_argument("--background-file", help="two-column (x, rho) text file")
    p.add_argument("--L", type=float, help="domain half-width")
    p.add_argument("--N", type=int, help="node count (odd)")
    p.add_argument("--method", choices=("scf", "gd", "both"))
    p.add_argument("--scf-damping", type=float)
    p.add_argument("--tol-energy", type=float)
    p.add_argument("--tol-residual", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="output path prefix")
    p.add_argument("--format", choices=("csv", "json"))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coulombium",
        description="Ground states of the 1-D Schrodinger-Coulomb system",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="compute one ground state")
    _add_common_args(ps)
    ps.add_argument("--allow-subcritical", action="store_true")
    ps.add_argument("--include-background-self", action="store_true")

    pc = sub.add_parser("scan", help="sweep the charge ratio")
    _add_common_args(pc)
    pc.add_argument("--z-list", required=True, help="comma-separated z values")

    pv = sub.add_parser("verify", help="run a property suite")
    pv.add_argument("suite", choices=sorted(SUITES))
    _add_common_args(pv)
    return p


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def _build_background(cfg: RunConfig, grid):
    if cfg.background_file:
        return load_background(cfg.background_file, grid)
    if cfg.z is None:
        raise CoulombiumError("need --z or --background-file")
    return PointCharge(cfg.z)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_lines(cfg: RunConfig):
    pairs = " ".join(f"{k}={_fmt(v)}" for k, v in cfg.resolved().items())
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
        "config": cfg.resolved(),
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _solve_one(cfg: RunConfig, bg, method: str):
    solver = scf_solve if method == "scf" else gradient_solve
    return solver(bg, cfg.solver_config())


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    grid = make_grid(cfg.L, cfg.N)
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
            states[method] = _solve_one(cfg, bg, method)
    except DivergingEnergyError as exc:
        print(f"subcritical divergence detected: {exc}", file=sys.stderr)
        return _EXIT_SUBCRITICAL
    except SolverError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE

    primary = states[methods[0]]
    V = effective_potential(primary.u, bg)
    residual = el_residual(primary.u, primary.epsilon, bg, potential=V)
    breakdown = primary.energy
    if cfg.include_background_self:
        breakdown = total_energy(primary.u, bg, include_background_self=True)
    summary = {
        "method": methods[0],
        "epsilon": primary.epsilon,
        "kinetic": breakdown.kinetic,
        "coulomb": breakdown.coulomb,
        "background_const": breakdown.background_const,
        "total_energy": breakdown.total,
        "objective": primary.objective,
        "residual": residual,
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


def _scan_row(cfg: RunConfig, z: float):
    try:
        state = _solve_one(cfg, PointCharge(z), cfg.method)
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
    if cfg.background_file:
        print("scan sweeps point charges; it takes no background file", file=sys.stderr)
        return _EXIT_USAGE
    if cfg.method not in ("scf", "gd"):
        print(f"scan runs one method, scf or gd, not {cfg.method!r}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        z_values = [float(tok) for tok in args.z_list.split(",") if tok.strip()]
    except ValueError:
        print(f"cannot parse z list {args.z_list!r}", file=sys.stderr)
        return _EXIT_USAGE
    if not z_values:
        print("empty z list", file=sys.stderr)
        return _EXIT_USAGE
    if any(z < 1.0 - 1e-9 for z in z_values):
        print("scan requires all z >= 1", file=sys.stderr)
        return _EXIT_USAGE

    rows = [_scan_row(cfg, z) for z in z_values]

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
    cfg = resolve_config(args)
    suite = SUITES[args.suite]
    kwargs = {}
    if args.suite in ("forms", "bnorm", "rearrange", "innerprod"):
        kwargs["seed"] = cfg.seed
    if args.suite == "counterexample" and cfg.z is not None:
        kwargs["z"] = cfg.z
    report = suite(**kwargs)
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
