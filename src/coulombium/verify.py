"""Property suites behind the ``verify`` CLI subcommand.

Each suite draws seeded random data, measures the margins of the
inequalities it exercises and reports pass/fail against the declared
tolerances; trial counts and grids are fixed in the suite's body.  The
tests draw their data from the same generators, and keep their own dense
references and smooth-bump draws in ``tests/oracles.py``.

The seeded suites evaluate their trials as blocks of rows through the
kernels' array-level forms (``_potential_rows``, ``_c_plus_rows``,
``_b_sums`` and ``_b_dot``, ``_g_form`` and ``rearrange._rearrange_rows``),
which give every row the bits of the one-row public call.  Each suite
draws its data as blocks: a ``(k, N)`` draw from a NumPy generator is the
same stream as k draws of N, so ``forms``, ``rearrange`` and
``innerprod`` give a seed the same data, and the same report, as a
trial-by-trial loop.  ``bnorm`` draws all u, then all v, then all scales,
and takes the half-axis suffix sums of each of a pair's five squares
once, sharing them among the forms and norms it reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import delta_approximant
from .diagnostics import unboundedness_scan
from .grid import Grid, Samples
from .kernel import (
    CPlusForm,
    _b_dot,
    _b_sums,
    _c_plus_rows,
    _g_form,
    _half_axis,
    _potential_rows,
    _quartic_root,
    _require_zero_mean,
    coulomb_pair_energy,
)
from .rearrange import _rearrange_rows


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


def random_density(grid, rng, rows=None):
    """Rough nonnegative nodewise-random density, or a ``(rows, N)`` block of them.

    One density comes back as :class:`Samples`, a block as an array whose
    rows are what ``rows`` successive one-density draws would give.
    """
    vals = rng.random(grid.N if rows is None else (rows, grid.N))
    return Samples(grid, vals) if rows is None else vals


def random_zero_mean_compact(grid, rng, rows=None):
    """Random rough samples, zero outside a core and exactly zero-mean.

    As :func:`random_density`: :class:`Samples`, or a ``(rows, N)`` block
    of successive draws.  Raises ValueError for N < 7, where the two-node
    margins leave at most one core node, which a zero mean sets to 0.
    """
    if grid.N < 7:
        raise ValueError(f"a zero-mean compact draw needs at least 7 nodes, got N = {grid.N}")
    margin = max(2, grid.N // 8)
    core = slice(margin, grid.N - margin)
    shape = () if rows is None else (rows,)
    vals = np.zeros(shape + (grid.N,))
    vals[..., core] = rng.standard_normal(shape + (grid.N - 2 * margin,))
    mean = np.vecdot(grid.weights, vals)
    vals[..., core] -= (mean / float(np.sum(grid.weights[core])))[..., None]
    return Samples(grid, vals) if rows is None else vals


def forms_suite(seed=0) -> SuiteReport:
    """Agreement of the four half-axis forms on 100 random nonnegative densities.

    The densities are drawn as one block and each form is evaluated on it
    in one kernel call, whose value for each row is that of :func:`c_plus`
    on the row alone.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(10.0, 401)
    t, m = _half_axis(random_density(grid, rng, rows=100), grid, +1)
    vals = np.array([_c_plus_rows(t, m, grid.h, form) for form in CPlusForm])
    scale = np.max(np.abs(vals), axis=0)
    worst = float(np.max((np.max(vals, axis=0) - np.min(vals, axis=0)) / scale))
    fails = [] if worst <= 1e-9 else [f"four-form deviation {worst:.3e} > 1e-9"]
    return SuiteReport("forms", {"max_rel_deviation": worst}, fails)


# pairs per kernel call: five (64, 201) squares amortize the call overhead and keep
# the arrays small
_BNORM_BLOCK = 64


def bnorm_suite(seed=0) -> SuiteReport:
    """Norm axioms for the quartic functional on 1000 random sample pairs.

    All u are drawn as one block, then all v, then all scales lambda.  Each
    block of ``_BNORM_BLOCK`` pairs stacks its five squares u^2, v^2,
    (lambda u)^2, (u+v)^2 and (u-v)^2 and takes their half-axis suffix sums
    once; b[u^2, u^2], b[v^2, v^2], b[u^2, v^2] and the five norms are dots
    of those sums, each row with the bits of :func:`b_form` and
    :func:`b_norm` on the row alone.  The four axioms (homogeneity,
    triangle, Cauchy-Schwarz for b on squares, uniform convexity) are then
    tested on all pairs at once.
    """
    rng = np.random.default_rng(seed)
    pairs, N = 1000, 201
    grid = Grid(8.0, N)
    u = rng.standard_normal((pairs, N))
    v = rng.standard_normal((pairs, N))
    lam = rng.uniform(-3.0, 3.0, pairs)
    b = np.empty((5, pairs))  # b[s, s] for the five squares s of each pair
    buv = np.empty(pairs)  # b[u^2, v^2]
    for start in range(0, pairs, _BNORM_BLOCK):
        blk = slice(start, start + _BNORM_BLOCK)
        ub, vb = u[blk], v[blk]
        sq = np.stack((ub, vb, lam[blk, None] * ub, ub + vb, ub - vb))
        sq *= sq
        S = _b_sums(sq, grid)
        b[:, blk] = _b_dot(S, S, grid.h)
        buv[blk] = _b_dot(S[0], S[1], grid.h)
    bu, bv, blam, bsum, bdif = _quartic_root(b)
    scaled = np.abs(lam) * bu
    viol_h = np.count_nonzero(np.abs(blam - scaled) > 1e-12 * (1.0 + scaled))
    worst_t = float(np.max(bsum - bu - bv))
    viol_t = np.count_nonzero(bsum > bu + bv + 1e-12)
    viol_cs = np.count_nonzero(buv - np.sqrt(b[0] * b[1]) > 1e-12)
    uc = bdif**4 + bsum**4 - 4.0 * (bu**2 + bv**2) ** 2
    worst_uc = float(np.max(uc))
    viol_uc = np.count_nonzero(uc > 1e-10)
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
    """Equimeasurability, Hardy-Littlewood and interaction monotonicity (z=1), 200 trials.

    The densities are drawn as one block and rearranged once; the
    Hardy-Littlewood sides (profile |x|, as :func:`hardy_littlewood_check`)
    and the interactions before and after are read from that block, each
    row with the bits of the one-density calls.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(6.0, 241)
    f = random_density(grid, rng, rows=200)
    fstar = _rearrange_rows(f, grid)
    equi_fail = np.count_nonzero(np.any(np.sort(f, axis=-1) != np.sort(fstar, axis=-1), axis=-1))
    gv = np.abs(grid.x)
    hl = np.vecdot(grid.weights, fstar * gv) - np.vecdot(grid.weights, f * gv)
    dc = _g_form(fstar, grid, 1.0) - _g_form(f, grid, 1.0)
    worst_hl, worst_c = float(np.max(hl)), float(np.max(dc))
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


def counterexample_suite() -> SuiteReport:
    """Slope of the widening-family interaction against log(n+1), z = 0.5, n = 10, 20, 40, 80.

    The asymptotic prediction is slope z-1; the finite-n remainder drifts,
    so the measured slope is reported with the +-0.03 window verdict.
    """
    z = 0.5
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
    """Positivity and the Dirichlet-form identity of the -|x-y| inner product, 500 trials.

    The zero-mean samples f are drawn as one block and their potentials V
    built once; <f, f> = int 2 V f and the Dirichlet form 2 int V'^2 are
    both read from V, each row with the bits of
    :func:`neg_kernel_inner_product` and of ``2 * kinetic_energy`` on the
    row alone.  A row that is not zero-mean raises
    :class:`NonZeroMeanError`, as the one-row inner product does.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(10.0, 401)
    f = random_zero_mean_compact(grid, rng, rows=500)
    _require_zero_mean(f, grid, "f")
    m = grid.weights * f
    v = _potential_rows(m.copy(), grid.x)
    ip = np.vecdot(m, 2.0 * v)
    dv = np.diff(v, axis=-1)
    ident = 2.0 * (np.vecdot(dv, dv) / grid.h)
    rel = np.abs(ip - ident) / np.maximum(np.abs(ip), 1e-300)
    min_ip, worst_rel = float(np.min(ip)), float(np.max(rel))
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
