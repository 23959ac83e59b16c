"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.

Criteria 1 and 2 test the limits of the widening family u_n at n large
enough for the family to reach them; the exact integrals of the family
(closed forms in ``tests/test_diagnostics.py``) fix both n-lists.  The
remainder C[u_n^2] - (z-1) log(n+1) tends to 11(1-z)/6 + 1/2 but only at
rate O(log(n)/n), so the slope against log(n+1) is tested on the doubling
ladder n = 1000..8000 (exactly -0.4909 at z = 0.5; over n <= 80 it is only
-0.316).  The kinetic term tends to 1/3, the Dirichlet integral of the
pointwise limit (1+|x|)^-1/sqrt(2), and is tested at n = 1000 (exactly
0.3343; 0.3437 at n = 100).
"""

import time

import numpy as np
import pytest

from coulombium import (
    Grid,
    PointCharge,
    SampledCharge,
    Samples,
    SolverConfig,
    background_potential,
    c_functional,
    coulomb_pair_energy,
    counterexample_un,
    el_residual,
    gradient_solve,
    grid_for_counterexample,
    ground_eigenpair,
    integrate,
    kinetic_energy,
    moment,
    neg_kernel_inner_product,
    normalize,
    potential_from_density,
    scf_solve,
    total_charge,
    total_energy,
    unboundedness_scan,
)
from coulombium.rearrange import symmetric_decreasing_rearrangement
from coulombium.verify import (
    bnorm_suite,
    forms_suite,
    random_density,
    random_zero_mean_compact,
)
from oracles import (dense_c_functional, dense_coulomb_pair_energy, dense_potential_from_density,
                     double_rearrangement_check, mirrored_wells, random_smooth,
                     random_unit_density, tightness_lower_bound)

AIRY_PRIME_ZERO = 1.0188


def check(num, name, ok, detail):
    line = f"[AC{num:02d}] {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def reference_states():
    """SCF and gradient solutions on the reference grid (L=30, N=6001)."""
    cfg = SolverConfig(L=30.0, N=6001, tol_residual=5e-7)
    t0 = time.monotonic()
    states = {}
    for z in (1.0, 1.5, 2.0, 5.0):
        bg = PointCharge(z)
        states[z] = (scf_solve(bg, cfg), gradient_solve(bg, cfg))
    return states, time.monotonic() - t0


def test_ac01_counterexample_slope():
    # The remainder C - (z-1) log(n+1) converges only at rate O(log(n)/n):
    # the closed form c_exact gives a slope of -0.316 over n in {10..80}
    # and -0.4909 on this ladder (test_diagnostics pins both).
    z = 0.5
    ns = [1000, 2000, 4000, 8000]
    t0 = time.monotonic()
    res = unboundedness_scan(z, ns)
    elapsed = time.monotonic() - t0
    logs = np.log(np.asarray(ns, dtype=float) + 1.0)
    local = np.diff(res.c_value) / np.diff(logs)
    approaching = bool(np.all(np.diff(np.abs(local - (z - 1.0))) < 0.0))
    ok = abs(res.slope - (z - 1.0)) <= 0.03 and approaching and elapsed < 30.0
    check(
        1,
        "counterexample slope",
        ok,
        f"slope(n={ns[0]}..{ns[-1]}) = {res.slope:.4f}, target -0.5 +- 0.03, "
        f"doubling slopes {np.array2string(local, precision=4)}, "
        f"runtime {elapsed:.1f}s",
    )


def test_ac02_counterexample_kinetic():
    # u_n tends pointwise to (1+|x|)^-1/sqrt(2), whose Dirichlet integral
    # int u'^2 over the line is 2 int_0^inf (1+x)^-4 / 2 dx = 1/3; the
    # closed form ke_exact gives 0.3437 at n = 100 and 0.3343 at n = 1000.
    ke = {
        n: kinetic_energy(counterexample_un(n, grid_for_counterexample(n)))
        for n in (100, 1000)
    }
    target = 1.0 / 3.0
    ok = abs(ke[1000] - target) <= 0.01 * target and ke[1000] < ke[100]
    check(
        2,
        "counterexample kinetic",
        ok,
        f"kinetic(n=1000) = {ke[1000]:.6f}, target 1/3 = {target:.6f} within 1%; "
        f"kinetic(n=100) = {ke[100]:.6f}",
    )


def test_ac03_delta_self_energy_decay():
    from coulombium import delta_approximant

    g = Grid(1.25, 641)
    ns = np.array([1, 2, 4, 8])
    se = [
        -coulomb_pair_energy(delta_approximant(n, g), delta_approximant(n, g))
        for n in ns
    ]
    slope = float(np.polyfit(np.log(ns), np.log(se), 1)[0])
    ok = abs(slope - (-1.0)) <= 0.1
    check(3, "delta self-energy decay", ok, f"log-log slope = {slope:.4f}")


def test_ac04_four_form_equivalence():
    rep = forms_suite(seed=0)
    ok = rep.passed
    check(
        4,
        "four-form equivalence",
        ok,
        f"max pairwise relative deviation = {rep.metrics['max_rel_deviation']:.2e}",
    )


def test_ac05_fast_vs_dense_oracles():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in (101, 251, 401):
        g = Grid(10.0, n)
        f = Samples(g, rng.standard_normal(n))
        s = Samples(g, rng.standard_normal(n))
        vf = potential_from_density(f).values
        vd = dense_potential_from_density(f).values
        worst = max(worst, np.max(np.abs(vf - vd)) / np.max(np.abs(vd)))
        pf = coulomb_pair_energy(f, s)
        pd = dense_coulomb_pair_energy(f, s)
        worst = max(worst, abs(pf - pd) / abs(pd))
        dens = random_unit_density(g, rng)
        cf = c_functional(dens, 2.0)
        cd = dense_c_functional(dens, 2.0)
        worst = max(worst, abs(cf - cd) / abs(cd))
    ok = worst <= 1e-12
    check(5, "fast-vs-dense oracle", ok, f"worst relative deviation = {worst:.2e}")


def test_ac06_quartic_norm_axioms():
    rep = bnorm_suite(seed=0)
    viol = sum(
        rep.metrics[k]
        for k in (
            "homogeneity_violations",
            "triangle_violations",
            "cauchy_schwarz_violations",
            "uniform_convexity_violations",
        )
    )
    ok = rep.passed and viol == 0
    check(6, "quartic norm axioms", ok, f"{int(viol)} violations over 1000 pairs")


def test_ac07_solver_cross_agreement(reference_states):
    states, elapsed = reference_states
    worst_gap = 0.0
    worst_res = 0.0
    for z, (scf, gd) in states.items():
        worst_gap = max(worst_gap, abs(scf.energy.total - gd.energy.total))
        bg = PointCharge(z)
        worst_res = max(worst_res, el_residual(scf.u, scf.epsilon, bg))
        worst_res = max(worst_res, el_residual(gd.u, gd.epsilon, bg))
    ok = worst_gap <= 1e-4 and worst_res <= 1e-6 and elapsed < 120.0
    check(
        7,
        "solver cross-agreement",
        ok,
        f"max |dE| = {worst_gap:.2e}, max residual = {worst_res:.2e}, "
        f"runtime {elapsed:.0f}s",
    )


def test_ac08_minimizer_symmetry(reference_states):
    # The point-charge states are even by construction (the solvers run them
    # on the half axis) and must not rise on x >= 0; the full-grid check of
    # symmetry runs on mirrored wells, which nothing makes even
    states, _ = reference_states
    cfg = SolverConfig(L=30.0, N=6001, tol_residual=5e-7)
    grid = Grid(cfg.L, cfg.N)
    worst = 0.0
    for z in (1.0, 2.0):
        scf = scf_solve(mirrored_wells(grid, z, 0.4, 0.8), cfg)
        sq = scf.u.with_values(scf.u.values**2)
        star = symmetric_decreasing_rearrangement(sq)
        worst = max(worst, float(np.max(np.abs(np.sqrt(star.values) - scf.u.values))))
    rise = 0.0
    for pair in states.values():
        for state in pair:
            right = state.u.values[grid.center_index:]
            rise = max(rise, float(np.max(np.diff(right))) / float(np.max(right)))
    sym_ok = worst <= 1e-5 and rise <= 1e-12

    # strict energy drop for asymmetric trials at the neutral charge ratio
    g = Grid(12.0, 961)
    rng = np.random.default_rng(8)
    trials = []
    for shift in (1.0, 2.0, 3.5):
        trials.append(np.exp(-0.5 * (g.x - shift) ** 2))
    trials.append(np.exp(-2.0 * (g.x - 3.0) ** 2) + np.exp(-2.0 * (g.x + 3.0) ** 2))
    for _ in range(16):
        vals = random_smooth(g, rng).values
        vals += 1.5 * np.exp(-2.0 * (g.x - 0.25 * g.L) ** 2)  # forced asymmetry
        trials.append(vals)
    min_margin = np.inf
    for vals in trials:
        u = normalize(Samples(g, vals))
        (kb, cb), (ka, ca), symmetric = double_rearrangement_check(u.with_values(u.values**2), 1.0)
        if symmetric:
            continue
        min_margin = min(min_margin, (kb + cb) - (ka + ca))
    strict_ok = min_margin > 0.0
    check(
        8,
        "minimizer symmetry",
        sym_ok and strict_ok,
        f"max |u - u*| = {worst:.2e} (mirrored wells); max rise on x >= 0 = {rise:.1e} "
        f"(point charges); min E[u]-E[u*] margin = {min_margin:.2e}",
    )


def test_ac09_nonnegativity_and_coercivity():
    rng = np.random.default_rng(9)
    g = Grid(8.0, 321)
    min_e1 = np.inf
    worst_gap = np.inf
    for _ in range(500):
        u = normalize(Samples(g, rng.random(g.N)))
        e1 = total_energy(u, PointCharge(1.0)).total
        min_e1 = min(min_e1, e1)
        sq = u.with_values(u.values**2)
        m1 = float(np.dot(g.weights, np.abs(g.x) * sq.values))
        e2 = total_energy(u, PointCharge(2.0)).total
        worst_gap = min(worst_gap, e2 - (2.0 - 1.0) * m1)
    ok = min_e1 >= 0.0 and worst_gap >= -1e-8
    check(
        9,
        "nonnegativity and coercivity",
        ok,
        f"min E(z=1) = {min_e1:.3e}, min E - (z-1)m1 (z=2) = {worst_gap:.3e}",
    )


def test_ac10_tightness_bound():
    rng = np.random.default_rng(10)
    g = Grid(20.0, 2001)
    worst = np.inf
    for _ in range(500):
        f = random_density(g, rng)
        f = f.with_values(f.values / integrate(f))
        c = c_functional(f, 1.0)
        for r in (1.0, 5.0, 10.0):
            worst = min(worst, c - tightness_lower_bound(f, r))
    ok = worst >= -1e-8
    check(10, "tightness bound", ok, f"min C - bound = {worst:.3e}")


def test_ac11_linear_operator_sanity():
    eps = {}
    for n in (1001, 2001, 4001):
        g = Grid(20.0, n)
        eps[n], _ = ground_eigenpair(Samples(g, np.abs(g.x)))
    extrap = (4.0 * eps[2001] - eps[1001]) / 3.0
    airy_ok = abs(eps[4001] - AIRY_PRIME_ZERO) <= 1e-3 and abs(
        extrap - AIRY_PRIME_ZERO
    ) <= 1e-3

    # independent dense oracle at small N
    g = Grid(20.0, 401)
    v = np.abs(g.x)
    m = (
        np.diag(2.0 / g.h**2 + v[1:-1])
        + np.diag(np.full(g.N - 3, -1.0 / g.h**2), 1)
        + np.diag(np.full(g.N - 3, -1.0 / g.h**2), -1)
    )
    dense = np.linalg.eigvalsh(m)[0]
    fast, _ = ground_eigenpair(Samples(g, v))
    oracle_ok = abs(dense - fast) <= 1e-10

    gb = Grid(10.0, 2001)
    box, _ = ground_eigenpair(Samples(gb, np.zeros(gb.N)))
    continuum = (np.pi / (2.0 * gb.L)) ** 2
    box_bound = continuum * (np.pi * gb.h / (2.0 * gb.L)) ** 2 / 6.0 + 1e-12
    box_ok = abs(box - continuum) <= box_bound

    ok = airy_ok and oracle_ok and box_ok
    check(
        11,
        "linear-operator sanity",
        ok,
        f"eps(h->0) = {extrap:.6f} (target {AIRY_PRIME_ZERO}), "
        f"|dense - fast| = {abs(dense - fast):.1e}, "
        f"|box - (pi/2L)^2| = {abs(box - continuum):.2e}",
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ac12_general_background_reduction():
    L, n_nodes = 18.0, 18001
    grid = Grid(L, n_nodes)
    width = 0.05
    raw = np.exp(-0.5 * (grid.x / width) ** 2)
    raw /= np.dot(grid.weights, raw)
    bg = SampledCharge(Samples(grid, -raw))
    cfg = SolverConfig(L=L, N=n_nodes, tol_residual=5e-7)
    e_rho = scf_solve(bg, cfg).energy.total
    e_pt = scf_solve(PointCharge(1.0), cfg).energy.total
    m = moment(bg.rho.with_values(np.abs(bg.rho.values)), 1.0)
    gap = abs(e_rho - e_pt)
    energy_ok = gap < 0.5 * m + 1e-3

    z = -total_charge(bg)
    v = background_potential(bg, grid)
    dev = float(np.max(np.abs(v.values - 0.5 * z * np.abs(grid.x))))
    bound_ok = dev <= 0.5 * m + 1e-12
    check(
        12,
        "general background reduction",
        energy_ok and bound_ok,
        f"|dE| = {gap:.2e} vs M/2 + 1e-3 = {0.5 * m + 1e-3:.2e}; "
        f"sup deviation = {dev:.4e} <= M/2 = {0.5 * m:.4e}",
    )


def test_ac13_inner_product_positivity():
    rng = np.random.default_rng(13)
    g = Grid(10.0, 401)
    min_ip = np.inf
    worst_rel = 0.0
    for _ in range(500):
        f = random_zero_mean_compact(g, rng)
        ip = neg_kernel_inner_product(f, f)
        min_ip = min(min_ip, ip)
        u = potential_from_density(f)
        worst_rel = max(worst_rel, abs(ip - 2.0 * kinetic_energy(u)) / abs(ip))
    zero = Samples(g, np.zeros(g.N))
    zero_ok = neg_kernel_inner_product(zero, zero) == 0.0
    ok = min_ip > 0.0 and worst_rel <= 1e-6 and zero_ok
    check(
        13,
        "inner-product positivity",
        ok,
        f"min <f,f> = {min_ip:.3e}, worst identity rel err = {worst_rel:.2e}",
    )


def test_ac14_scan_determinism(tmp_path):
    from coulombium.cli import main

    args = [
        "scan", "--z-list", "1.5,2", "--L", "16", "--N", "1601",
        "--output", str(tmp_path / "det"),
    ]
    assert main(args) == 0
    first = (tmp_path / "det.csv").read_bytes()
    assert main(args) == 0
    second = (tmp_path / "det.csv").read_bytes()
    ok = first == second
    check(14, "scan determinism", ok, f"{len(first)} bytes, byte-identical = {ok}")
