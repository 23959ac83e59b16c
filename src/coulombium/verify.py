"""Property suites behind the ``verify`` CLI subcommand.

Each suite draws seeded random data, measures the margins of the
inequalities it exercises and reports pass/fail against the declared
tolerances; trial counts and grids are fixed in the suite's body.  The
same generators are reused by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import delta_approximant
from .diagnostics import unboundedness_scan
from .grid import Grid, Samples, integrate, kinetic_energy
from .kernel import (
    CPlusForm,
    _b_norm_rows,
    _b_rows,
    c_functional,
    c_plus,
    coulomb_pair_energy,
    neg_kernel_inner_product,
    potential_from_density,
)
from .rearrange import hardy_littlewood_check, symmetric_decreasing_rearrangement


@dataclass
class SuiteReport:
    name: str
    metrics: dict
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self):
        out = [f"suite {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for k in sorted(self.metrics):
            out.append(f"  {k} = {self.metrics[k]:.6g}")
        out.extend(f"  FAIL: {msg}" for msg in self.failures)
        return out


def random_density(grid, rng, normalized=False) -> Samples:
    """Rough nonnegative nodewise-random density."""
    s = Samples(grid, rng.random(grid.N))
    return normalize_density(s) if normalized else s


def normalize_density(f: Samples) -> Samples:
    return f.with_values(f.values / integrate(f))


def random_smooth(grid, rng, bumps=3) -> Samples:
    """Mixture of random Gaussian bumps, compactly small near the ends."""
    vals = np.zeros(grid.N)
    for _ in range(bumps):
        c = rng.uniform(-0.5 * grid.L, 0.5 * grid.L)
        w = rng.uniform(0.4, 1.5)
        a = rng.uniform(0.2, 1.0)
        vals += a * np.exp(-0.5 * ((grid.x - c) / w) ** 2)
    return Samples(grid, vals)


def random_zero_mean_compact(grid, rng) -> Samples:
    """Random rough samples, zero outside a core and exactly zero-mean."""
    margin = max(2, grid.N // 8)
    vals = np.zeros(grid.N)
    core = slice(margin, grid.N - margin)
    vals[core] = rng.standard_normal(grid.N - 2 * margin)
    s = Samples(grid, vals)
    vals[core] -= integrate(s) / float(np.sum(grid.weights[core]))
    return Samples(grid, vals)


def forms_suite(seed=0) -> SuiteReport:
    """Agreement of the four half-axis forms on 100 random nonnegative densities."""
    rng = np.random.default_rng(seed)
    grid = Grid(10.0, 401)
    worst = 0.0
    for _ in range(100):
        f = random_density(grid, rng)
        vals = [c_plus(f, form) for form in CPlusForm]
        scale = max(abs(v) for v in vals)
        worst = max(worst, (max(vals) - min(vals)) / scale)
    fails = [] if worst <= 1e-9 else [f"four-form deviation {worst:.3e} > 1e-9"]
    return SuiteReport("forms", {"max_rel_deviation": worst}, fails)


_BNORM_BLOCK = 64  # pairs per kernel call: amortizes the call overhead, keeps the arrays small


def bnorm_suite(seed=0) -> SuiteReport:
    """Norm axioms for the quartic functional on 1000 random sample pairs.

    Each pair draws u, then v, then the scale lambda, in the same order as
    a pair-by-pair loop, so a seed always gives the same data.  The four
    axioms (homogeneity, triangle, Cauchy-Schwarz for b on squares, uniform
    convexity) are then tested on blocks of ``_BNORM_BLOCK`` pairs at once
    through the kernel's array-level form and norm, whose value for each
    row is that of :func:`b_form` and :func:`b_norm` on the row alone.
    """
    rng = np.random.default_rng(seed)
    pairs, N = 1000, 201
    grid = Grid(8.0, N)
    viol_h = viol_t = viol_cs = viol_uc = 0
    worst_t = worst_uc = -np.inf
    for start in range(0, pairs, _BNORM_BLOCK):
        n = min(_BNORM_BLOCK, pairs - start)
        u, v, lam = np.empty((n, N)), np.empty((n, N)), np.empty(n)
        for i in range(n):
            rng.standard_normal(out=u[i])
            rng.standard_normal(out=v[i])
            lam[i] = rng.uniform(-3.0, 3.0)
        bu, bv = _b_norm_rows(u, grid), _b_norm_rows(v, grid)
        scaled = np.abs(lam) * bu
        blam = _b_norm_rows(lam[:, None] * u, grid)
        viol_h += np.count_nonzero(np.abs(blam - scaled) > 1e-12 * (1.0 + scaled))
        bsum = _b_norm_rows(u + v, grid)
        worst_t = max(worst_t, float(np.max(bsum - bu - bv)))
        viol_t += np.count_nonzero(bsum > bu + bv + 1e-12)
        usq, vsq = u**2, v**2
        cs = _b_rows(usq, vsq, grid) - np.sqrt(_b_rows(usq, usq, grid) * _b_rows(vsq, vsq, grid))
        viol_cs += np.count_nonzero(cs > 1e-12)
        bdif = _b_norm_rows(u - v, grid)
        uc = bdif**4 + bsum**4 - 4.0 * (bu**2 + bv**2) ** 2
        worst_uc = max(worst_uc, float(np.max(uc)))
        viol_uc += np.count_nonzero(uc > 1e-10)
    total = viol_h + viol_t + viol_cs + viol_uc
    fails = [f"{total} axiom violations over {pairs} pairs"] if total else []
    return SuiteReport(
        "bnorm",
        {
            "homogeneity_violations": viol_h,
            "triangle_violations": viol_t,
            "cauchy_schwarz_violations": viol_cs,
            "uniform_convexity_violations": viol_uc,
            "worst_triangle_excess": worst_t,
            "worst_convexity_excess": worst_uc,
        },
        fails,
    )


def rearrange_suite(seed=0) -> SuiteReport:
    """Equimeasurability, Hardy-Littlewood and interaction monotonicity (z=1), 200 trials."""
    rng = np.random.default_rng(seed)
    grid = Grid(6.0, 241)
    worst_hl = worst_c = -np.inf
    equi_fail = 0
    for _ in range(200):
        f = random_density(grid, rng)
        fstar = symmetric_decreasing_rearrangement(f)
        if not np.array_equal(np.sort(f.values), np.sort(fstar.values)):
            equi_fail += 1
        lhs, rhs = hardy_littlewood_check(f, lambda a: a)
        worst_hl = max(worst_hl, rhs - lhs)
        dc = c_functional(fstar, 1.0, warn_unnormalized=False) - c_functional(
            f, 1.0, warn_unnormalized=False
        )
        worst_c = max(worst_c, dc)
    ok = equi_fail == 0 and worst_hl <= 1e-10 and worst_c <= 1e-10
    return SuiteReport(
        "rearrange",
        {
            "equimeasurability_failures": equi_fail,
            "worst_hardy_littlewood_excess": worst_hl,
            "worst_interaction_increase": worst_c,
        },
        [] if ok else ["rearrangement inequality violated"],
    )


def counterexample_suite(z=0.5) -> SuiteReport:
    """Slope of the widening-family interaction against log(n+1), n = 10, 20, 40, 80.

    The asymptotic prediction is slope z-1; the finite-n remainder drifts,
    so the measured slope is reported with the +-0.03 window verdict.
    """
    res = unboundedness_scan(z, (10, 20, 40, 80))
    slope_err = abs(res.slope - (z - 1.0))
    kin_last = res.metrics[-1].kinetic
    o1 = [
        mtr.c_value - (z - 1.0) * np.log(mtr.n + 1.0) for mtr in res.metrics
    ]
    fails = [] if slope_err <= 0.03 else [
        f"slope {res.slope:.4f} outside {z - 1.0} +- 0.03 at n <= {res.metrics[-1].n}"
    ]
    return SuiteReport(
        "counterexample",
        {
            "slope": res.slope,
            "target_slope": z - 1.0,
            "slope_error": slope_err,
            "kinetic_at_largest_n": kin_last,
            "o1_span": max(o1) - min(o1),
        },
        fails,
    )


def delta_suite() -> SuiteReport:
    """Log-log decay of the mollifier self-energy (target slope -1), n = 1, 2, 4, 8."""
    n_list = (1, 2, 4, 8)
    grid = Grid(1.25, 641)
    energies = []
    for n in n_list:
        d = delta_approximant(n, grid)
        energies.append(-coulomb_pair_energy(d, d))
    slope = float(np.polyfit(np.log(n_list), np.log(energies), 1)[0])
    ok = -1.1 <= slope <= -0.9
    fails = [] if ok else [f"self-energy slope {slope:.4f} outside [-1.1, -0.9]"]
    return SuiteReport("delta", {"loglog_slope": slope}, fails)


def innerprod_suite(seed=0) -> SuiteReport:
    """Positivity and the Dirichlet-form identity of the -|x-y| inner product, 500 trials."""
    rng = np.random.default_rng(seed)
    grid = Grid(10.0, 401)
    min_ip = np.inf
    worst_rel = 0.0
    for _ in range(500):
        f = random_zero_mean_compact(grid, rng)
        ip = neg_kernel_inner_product(f, f)
        min_ip = min(min_ip, ip)
        u = potential_from_density(f)
        ident = 2.0 * kinetic_energy(u)
        worst_rel = max(worst_rel, abs(ip - ident) / max(abs(ip), 1e-300))
    ok = min_ip > 0.0 and worst_rel <= 1e-6
    return SuiteReport(
        "innerprod",
        {"min_inner_product": min_ip, "worst_identity_rel_err": worst_rel},
        [] if ok else ["positivity or Dirichlet identity violated"],
    )


SUITES = {
    "forms": forms_suite,
    "bnorm": bnorm_suite,
    "rearrange": rearrange_suite,
    "counterexample": counterexample_suite,
    "delta": delta_suite,
    "innerprod": innerprod_suite,
}
