"""Property suites behind the ``verify`` CLI subcommand.

Each suite draws seeded random data, measures the margins of the
inequalities it exercises and reports pass/fail against the declared
tolerances.  The same generators are reused by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .background import delta_approximant
from .diagnostics import unboundedness_scan
from .grid import Grid, Samples, integrate, kinetic_energy
from .kernel import (
    CPlusForm,
    b_form,
    b_norm,
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
    passed: bool
    metrics: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

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


def forms_suite(seed=0, trials=100, N=401, L=10.0) -> SuiteReport:
    """Agreement of the four half-axis forms on random nonnegative densities."""
    rng = np.random.default_rng(seed)
    grid = Grid(L, N)
    worst = 0.0
    for _ in range(trials):
        f = random_density(grid, rng)
        vals = [c_plus(f, form) for form in CPlusForm]
        scale = max(abs(v) for v in vals)
        worst = max(worst, (max(vals) - min(vals)) / scale)
    rep = SuiteReport("forms", worst <= 1e-9, {"max_rel_deviation": worst})
    if not rep.passed:
        rep.failures.append(f"four-form deviation {worst:.3e} > 1e-9")
    return rep


def bnorm_suite(seed=0, pairs=1000, N=201, L=8.0) -> SuiteReport:
    """Norm axioms for the quartic functional on random sample pairs."""
    rng = np.random.default_rng(seed)
    grid = Grid(L, N)
    viol_h = viol_t = viol_cs = viol_uc = 0
    worst_t = worst_uc = worst_cs = -np.inf
    for _ in range(pairs):
        u = Samples(grid, rng.standard_normal(N))
        v = Samples(grid, rng.standard_normal(N))
        bu, bv = b_norm(u), b_norm(v)
        lam = rng.uniform(-3.0, 3.0)
        if abs(b_norm(u.with_values(lam * u.values)) - abs(lam) * bu) > 1e-12 * (
            1.0 + abs(lam) * bu
        ):
            viol_h += 1
        bsum = b_norm(u.with_values(u.values + v.values))
        worst_t = max(worst_t, bsum - bu - bv)
        if bsum > bu + bv + 1e-12:
            viol_t += 1
        usq = u.with_values(u.values**2)
        vsq = v.with_values(v.values**2)
        cs = b_form(usq, vsq) - np.sqrt(b_form(usq, usq) * b_form(vsq, vsq))
        worst_cs = max(worst_cs, cs)
        if cs > 1e-12:
            viol_cs += 1
        bdif = b_norm(u.with_values(u.values - v.values))
        uc = bdif**4 + bsum**4 - 4.0 * (bu**2 + bv**2) ** 2
        worst_uc = max(worst_uc, uc)
        if uc > 1e-10:
            viol_uc += 1
    total = viol_h + viol_t + viol_cs + viol_uc
    rep = SuiteReport(
        "bnorm",
        total == 0,
        {
            "homogeneity_violations": viol_h,
            "triangle_violations": viol_t,
            "cauchy_schwarz_violations": viol_cs,
            "uniform_convexity_violations": viol_uc,
            "worst_triangle_excess": worst_t,
            "worst_convexity_excess": worst_uc,
        },
    )
    if total:
        rep.failures.append(f"{total} axiom violations over {pairs} pairs")
    return rep


def rearrange_suite(seed=0, trials=200, N=241, L=6.0) -> SuiteReport:
    """Equimeasurability, Hardy-Littlewood and interaction monotonicity (z=1)."""
    rng = np.random.default_rng(seed)
    grid = Grid(L, N)
    worst_hl = worst_c = -np.inf
    equi_fail = 0
    for _ in range(trials):
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
    passed = equi_fail == 0 and worst_hl <= 1e-10 and worst_c <= 1e-10
    rep = SuiteReport(
        "rearrange",
        passed,
        {
            "equimeasurability_failures": equi_fail,
            "worst_hardy_littlewood_excess": worst_hl,
            "worst_interaction_increase": worst_c,
        },
    )
    if not passed:
        rep.failures.append("rearrangement inequality violated")
    return rep


def counterexample_suite(z=0.5, n_list=(10, 20, 40, 80)) -> SuiteReport:
    """Slope of the widening-family interaction against log(n+1).

    The asymptotic prediction is slope z-1; the finite-n remainder drifts,
    so the measured slope is reported with the +-0.03 window verdict.
    """
    res = unboundedness_scan(z, n_list)
    slope_err = abs(res.slope - (z - 1.0))
    kin_last = res.metrics[-1].kinetic
    o1 = [
        mtr.c_value - (z - 1.0) * np.log(mtr.n + 1.0) for mtr in res.metrics
    ]
    passed = slope_err <= 0.03
    rep = SuiteReport(
        "counterexample",
        passed,
        {
            "slope": res.slope,
            "target_slope": z - 1.0,
            "slope_error": slope_err,
            "kinetic_at_largest_n": kin_last,
            "o1_span": max(o1) - min(o1),
        },
    )
    if not passed:
        rep.failures.append(
            f"slope {res.slope:.4f} outside {z - 1.0} +- 0.03 at n <= {max(n_list)}"
        )
    return rep


def delta_suite(n_list=(1, 2, 4, 8), N=641, L=1.25) -> SuiteReport:
    """Log-log decay of the mollifier self-energy (target slope -1)."""
    grid = Grid(L, N)
    energies = []
    for n in n_list:
        d = delta_approximant(n, grid)
        energies.append(-coulomb_pair_energy(d, d))
    slope = float(np.polyfit(np.log(n_list), np.log(energies), 1)[0])
    passed = -1.1 <= slope <= -0.9
    rep = SuiteReport("delta", passed, {"loglog_slope": slope})
    if not passed:
        rep.failures.append(f"self-energy slope {slope:.4f} outside [-1.1, -0.9]")
    return rep


def innerprod_suite(seed=0, trials=500, N=401, L=10.0) -> SuiteReport:
    """Positivity and the Dirichlet-form identity of the -|x-y| inner product."""
    rng = np.random.default_rng(seed)
    grid = Grid(L, N)
    min_ip = np.inf
    worst_rel = 0.0
    for _ in range(trials):
        f = random_zero_mean_compact(grid, rng)
        ip = neg_kernel_inner_product(f, f)
        min_ip = min(min_ip, ip)
        u = potential_from_density(f)
        ident = 2.0 * kinetic_energy(u)
        worst_rel = max(worst_rel, abs(ip - ident) / max(abs(ip), 1e-300))
    passed = min_ip > 0.0 and worst_rel <= 1e-6
    rep = SuiteReport(
        "innerprod",
        passed,
        {"min_inner_product": min_ip, "worst_identity_rel_err": worst_rel},
    )
    if not passed:
        rep.failures.append("positivity or Dirichlet identity violated")
    return rep


SUITES = {
    "forms": forms_suite,
    "bnorm": bnorm_suite,
    "rearrange": rearrange_suite,
    "counterexample": counterexample_suite,
    "delta": delta_suite,
    "innerprod": innerprod_suite,
}
