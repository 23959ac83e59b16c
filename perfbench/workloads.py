"""The benchmark's three workloads: seeded inputs, timed ops and their checks.

An op is one solve or one ``coulombium.cli.main`` call.  ``run`` is the
timed part; ``check`` runs after the timed region on what ``run`` returned
(or raised) and gives the op's stop reason.  Inputs come only from the
workload seed; the package receives the generated z values, densities and
``--seed`` values, never the workload seed itself.

Why these workloads, and which layer each one stresses, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from measure import WRONG

REF_L = 30.0
GD_N = 6001  # reference grid of the gradient workload
SCF_N = 60001  # fine grid of the SCF workload
CLI_N = 2001
GD_DRAWS = 9
SCF_DRAWS = 12
# One pooled scan per pass: scans through the two-thread pool are slower
# than serial ones, and keeping them to about a third of the pass leaves
# room for several passes per run, whose median is reported.
SCAN_Z = 4
CLI_SOLVES = 3
VERIFY_ROUNDS = 4
VERIFY_SUITES = ("bnorm", "counterexample", "delta", "forms", "innerprod", "rearrange")


@dataclass
class Op:
    kind: str
    input: dict
    run: Callable[[str], Any]  # argument: a scratch directory for this pass
    check: Callable[[Any], tuple]  # outcome -> (stop_reason, details)


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable[[str], None]
    pass_s: float  # nominal seconds a pass takes; sets the pass count of a run


def stratified(rng, lo, hi, k, digits=4):
    """k draws in (lo, hi], one uniform draw in each of k equal strata.

    Stratifying keeps every run's draws spread over the whole range, so the
    run's total work varies less from seed to seed than with k free draws.
    """
    out = []
    for i in range(k):
        v = hi - (hi - lo) * (i + rng.random()) / k
        out.append(max(round(v, digits), lo + 10.0**-digits))
    return sorted(out)


def stop_reason(pkg, exc):
    """Map a solver exception onto the harness's stop reasons."""
    errors = pkg.errors
    for cls, reason in (
        (errors.MaxIterExceededError, "max_iter"),
        (errors.LineSearchStalledError, "stalled"),
        (errors.DivergingEnergyError, "diverged"),
        (errors.NoConvergenceError, "eigensolve"),
    ):
        if isinstance(exc, cls):
            return reason
    return WRONG


def _solver_outcome(pkg, outcome):
    """(stop_reason or None when a state came back, details)."""
    if isinstance(outcome, pkg.errors.SolverError):
        return stop_reason(pkg, outcome), {"error": type(outcome).__name__}
    if isinstance(outcome, BaseException):
        return WRONG, {"error": repr(outcome)}
    if not outcome.converged:
        return WRONG, {"error": "state returned with converged=False"}
    return None, {}


def scf_reference(pkg, cfg):
    """Cached SCF energy of PointCharge(z) on cfg's grid, the cross-check."""
    refs = {}

    def reference(z):
        if z not in refs:
            refs[z] = pkg.scf_solve(pkg.PointCharge(z), cfg).energy.total
        return refs[z]

    return reference


# -- gd-point ---------------------------------------------------------------


def gd_point(seed, pkg):
    # z=1 is a fixed anchor: it stops at max_iter.  Between 1 and 1.5 the
    # iteration count falls steeply from that limit (about 13000 at z=1.09,
    # 5000 at 1.35), so a seeded draw there would swing a pass by 8 s; the
    # seeded z are drawn from (1.5, 6] and the anchor stands for that regime.
    rng = np.random.default_rng([seed, 1])
    zs = [1.0] + stratified(rng, 1.5, 6.0, GD_DRAWS)
    cfg = pkg.SolverConfig(L=REF_L, N=GD_N)
    reference = scf_reference(pkg, cfg)

    def make(z):
        def run(_dir):
            return pkg.gradient_solve(pkg.PointCharge(z), cfg)

        def check(outcome):
            reason, details = _solver_outcome(pkg, outcome)
            if reason is not None:
                return reason, details
            x, u = outcome.u.grid.x, outcome.u.values
            gap = abs(outcome.energy.total - reference(z))
            recomputed = checks.energy(x, u, checks.point_background(x, z))
            details = {
                "scf_gap": gap,
                "energy_recompute_gap": checks.relative_gap(recomputed, outcome.energy.total),
                "mass_error": abs(checks.mass(x, u) - 1.0),
            }
            ok = (
                gap <= checks.CROSS_GAP_TOL
                and details["energy_recompute_gap"] <= checks.ENERGY_REL_TOL
                and details["mass_error"] <= checks.MASS_TOL
            )
            return ("converged" if ok else WRONG), details

        return Op("gradient_solve", {"z": z}, run, check)

    def warmup(_dir):
        with contextlib.suppress(pkg.errors.MaxIterExceededError):
            pkg.gradient_solve(pkg.PointCharge(2.0), pkg.SolverConfig(L=REF_L, N=GD_N, max_iter=100))

    return Workload("gd-point", [make(z) for z in zs], warmup, pass_s=30.0)


# -- scf-sampled-fine -------------------------------------------------------

# Near-critical double well (total charge 1.3).  Below a total charge of
# about 1.6, SCF iteration counts jump between ~20 and several hundred
# with tiny changes of the wells, so seeded draws there would make a run's
# time depend on luck; this fixed input keeps that regime in the workload
# with a count that repeats exactly.
SCF_ANCHOR = {"charge": 1.3, "wells": [[-1.0, 0.8, 1.0], [1.0, 0.8, 0.7]]}


def wells_density(x, w, wells, charge):
    vals = np.zeros_like(x)
    for c, width, amp in wells:
        vals += amp * np.exp(-0.5 * ((x - c) / width) ** 2)
    return vals * (-charge / float(np.dot(w, vals)))


def scf_inputs(seed):
    """Anchor plus SCF_DRAWS seeded backgrounds: 1-3 overlapping wells.

    Well counts cycle 1, 2, 3 and total charges are stratified over
    [1.6, 3]; centres lie in [-1.5, 1.5] so the wells overlap.
    """
    rng = np.random.default_rng([seed, 2])
    charges = stratified(rng, 1.6, 3.0, SCF_DRAWS)
    rng.shuffle(charges)
    inputs = [dict(SCF_ANCHOR, rho_seed=None)]
    for k in range(SCF_DRAWS):
        wr = np.random.default_rng([seed, 2, k])
        wells = [
            [round(float(wr.uniform(-1.5, 1.5)), 4), round(float(wr.uniform(0.5, 1.5)), 4),
             round(float(wr.uniform(0.5, 1.0)), 4)]
            for _ in range(1 + k % 3)
        ]
        inputs.append({"charge": charges[k], "wells": wells, "rho_seed": [seed, 2, k]})
    return inputs


def scf_sampled_fine(seed, pkg):
    cfg = pkg.SolverConfig(L=REF_L, N=SCF_N)
    grid = pkg.Grid(REF_L, SCF_N)

    def make(spec):
        rho = wells_density(grid.x, grid.weights, spec["wells"], spec["charge"])
        bg = pkg.SampledCharge(pkg.Samples(grid, rho))

        def run(_dir):
            return pkg.scf_solve(bg, cfg)

        def check(outcome):
            reason, details = _solver_outcome(pkg, outcome)
            if reason is not None:
                return reason, details
            x, u = grid.x, outcome.u.values
            vb = checks.sampled_background(x, rho)
            details = {
                "mass_error": abs(checks.mass(x, u) - 1.0),
                "residual": checks.el_residual(x, u, outcome.epsilon, vb),
                "energy_recompute_gap": checks.relative_gap(
                    checks.energy(x, u, vb), outcome.energy.total
                ),
            }
            ok = (
                details["mass_error"] <= checks.MASS_TOL
                and details["residual"] <= cfg.tol_residual
                and details["energy_recompute_gap"] <= checks.ENERGY_REL_TOL
            )
            return ("converged" if ok else WRONG), details

        return Op("scf_solve", spec, run, check)

    ops = [make(spec) for spec in scf_inputs(seed)]

    def warmup(_dir):
        rho = wells_density(grid.x, grid.weights, SCF_ANCHOR["wells"], SCF_ANCHOR["charge"])
        with contextlib.suppress(pkg.errors.MaxIterExceededError):
            pkg.scf_solve(
                pkg.SampledCharge(pkg.Samples(grid, rho)),
                pkg.SolverConfig(L=REF_L, N=SCF_N, max_iter=1),
            )

    return Workload("scf-sampled-fine", ops, warmup, pass_s=12.0)


# -- cli-sweep --------------------------------------------------------------


def call_cli(pkg, argv):
    """Run ``coulombium.cli.main`` in-process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)  # looked up per call so wrappers apply
    return code, out.getvalue(), err.getvalue()


def _fmt(z):
    return repr(float(z))


def cli_sweep(seed, pkg):
    rng = np.random.default_rng([seed, 3])
    scan_z = stratified(rng, 1.5, 6.0, SCAN_Z)
    solve_z = stratified(rng, 1.5, 6.0, CLI_SOLVES)
    verify_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=VERIFY_ROUNDS)]
    grid_args = ["--L", repr(REF_L), "--N", str(CLI_N)]
    reference = scf_reference(pkg, pkg.SolverConfig(L=REF_L, N=CLI_N))
    exact_slope = []

    def scan_op(zs):
        stem = "scan"
        argv = ["scan", "--method", "gd", *grid_args, "--z-list", ",".join(map(_fmt, zs))]

        def run(d):
            return call_cli(pkg, argv + ["--output", os.path.join(d, stem)]), d

        def check(outcome):
            (code, _out, err), d = outcome
            if code not in (0, 2):
                return WRONG, {"code": code, "stderr": err[-300:]}
            comments, header, rows = checks.read_cli_csv(os.path.join(d, stem + ".csv"))
            col = {name: i for i, name in enumerate(header)}
            status = [r[col["status"]] for r in rows]
            details = {"code": code, "status": status, "iterations": []}
            if (
                not comments[0].startswith("# schema_version=")
                or len(rows) != len(zs)
                or [float(r[col["z"]]) for r in rows] != zs
                or (code == 0) != all(s == "ok" for s in status)
            ):
                return WRONG, details
            gaps = []
            for r, z in zip(rows, zs):
                if r[col["status"]] == "ok":
                    gaps.append(abs(float(r[col["E"]]) - reference(z)))
                    details["iterations"].append(int(r[col["iterations"]]))
            details["max_scf_gap"] = max(gaps, default=0.0)
            if details["max_scf_gap"] > checks.CROSS_GAP_TOL:
                return WRONG, details
            return ("converged" if code == 0 else "no_convergence"), details

        return Op("cli.scan", {"argv": argv, "z": zs}, run, check)

    def solve_op(k, z):
        stem = f"solve{k}"
        argv = ["solve", "--method", "both", "--z", _fmt(z), *grid_args]

        def run(d):
            return call_cli(pkg, argv + ["--output", os.path.join(d, stem)]), d

        def check(outcome):
            (code, _out, err), d = outcome
            if code == 2 and "did not converge" in err:
                return "no_convergence", {"code": code}
            if code != 0:
                return WRONG, {"code": code, "stderr": err[-300:]}
            comments, header, rows = checks.read_cli_csv(os.path.join(d, stem + ".csv"))
            summary = checks.summary_fields(next(c for c in comments if c.startswith("# summary")))
            _, _, trace_rows = checks.read_cli_csv(os.path.join(d, stem + "_trace.csv"))
            table = np.array(rows, dtype=float)
            x, u = table[:, header.index("x")], table[:, header.index("u")]
            total = float(summary["total_energy"])
            details = {
                "cross_method_energy_gap": float(summary["cross_method_energy_gap"]),
                "energy_recompute_gap": checks.relative_gap(
                    checks.energy(x, u, checks.point_background(x, z)), total
                ),
                "mass_error": abs(checks.mass(x, u) - 1.0),
                "iterations": int(summary["iterations"]),
            }
            ok = (
                len(rows) == CLI_N
                and len(trace_rows) == details["iterations"]
                and details["cross_method_energy_gap"] <= checks.CROSS_GAP_TOL
                and details["energy_recompute_gap"] <= checks.ENERGY_REL_TOL
                and details["mass_error"] <= checks.MASS_TOL
            )
            return ("converged" if ok else WRONG), details

        return Op("cli.solve", {"argv": argv, "z": z}, run, check)

    def verify_op(suite, s):
        argv = ["verify", suite, "--seed", str(s)]

        def run(_dir):
            return call_cli(pkg, argv)

        def check(outcome):
            code, out, err = outcome
            lines = out.splitlines()
            if suite != "counterexample":
                ok = code == 0 and lines[:1] == [f"suite {suite}: PASS"]
                return ("expected_verdict" if ok else WRONG), {"code": code}
            # The known honest FAIL: the verdict must stay FAIL, with the
            # slope the family really has.
            if not exact_slope:
                exact_slope.append(checks.counterexample_slope())
            slope = next(
                (float(ln.split("=")[1]) for ln in lines if ln.strip().startswith("slope =")),
                float("nan"),
            )
            details = {"code": code, "slope": slope, "exact_slope": exact_slope[0]}
            ok = (
                code == 1
                and lines[:1] == ["suite counterexample: FAIL"]
                and abs(slope - exact_slope[0]) <= checks.SLOPE_TOL
            )
            return ("expected_verdict" if ok else WRONG), details

        return Op("cli.verify", {"argv": argv}, run, check)

    ops = [scan_op(scan_z)] + [solve_op(k, z) for k, z in enumerate(solve_z)]
    for s in verify_seeds:
        ops.extend(verify_op(suite, s) for suite in VERIFY_SUITES)

    def warmup(d):
        call_cli(pkg, ["verify", "delta"])
        call_cli(pkg, ["scan", "--method", "gd", "--L", "8", "--N", "201", "--z-list", "2",
                       "--max-iter", "50", "--output", os.path.join(d, "warmup")])

    return Workload("cli-sweep", ops, warmup, pass_s=6.0)


WORKLOADS = {
    "gd-point": gd_point,
    "scf-sampled-fine": scf_sampled_fine,
    "cli-sweep": cli_sweep,
}
