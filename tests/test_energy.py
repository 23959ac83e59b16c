import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, lapack

from coulombium import (
    Grid,
    NotNormalizedError,
    PointCharge,
    SampledCharge,
    Samples,
    background_potential,
    boundary_flux_diagnostic,
    c_functional,
    coulomb_pair_energy,
    effective_potential,
    el_residual,
    from_function,
    ground_eigenpair,
    kinetic_energy,
    normalize,
    potential_from_density,
    solver_objective,
    total_energy,
)
from coulombium import energy, solver
from coulombium.energy import _hamiltonian_factor, _residual_norm, _shifted_hamiltonian
from oracles import dense_coulomb_pair_energy, dense_potential_from_density, random_smooth


def _normalized_wave(grid, rng):
    return normalize(random_smooth(grid, rng))


def test_rejects_unnormalized():
    g = Grid(5.0, 201)
    u = from_function(g, lambda x: np.exp(-x * x))
    with pytest.raises(NotNormalizedError):
        total_energy(u, PointCharge(1.0))


def test_nonnegative_at_unit_charge():
    rng = np.random.default_rng(0)
    g = Grid(8.0, 321)
    for _ in range(50):
        u = normalize(Samples(g, rng.random(g.N)))
        assert total_energy(u, PointCharge(1.0)).total >= 0.0


def test_coercivity_above_unit_charge():
    rng = np.random.default_rng(1)
    g = Grid(8.0, 321)
    z = 2.0
    for _ in range(50):
        u = _normalized_wave(g, rng)
        sq = u.with_values(u.values**2)
        m1 = float(np.dot(g.weights, np.abs(g.x) * sq.values))
        e = total_energy(u, PointCharge(z))
        assert e.total >= e.kinetic + (z - 1.0) * m1 - 1e-8


def test_gaussian_against_dense_quadrature():
    # dense evaluation of the full double integral for the point background
    g = Grid(20.0, 2001)
    u = normalize(from_function(g, lambda x: np.exp(-0.5 * x * x)))
    z = 2.0
    e = total_energy(u, PointCharge(z))
    sq = u.with_values(u.values**2)
    m1 = float(np.dot(g.weights, np.abs(g.x) * sq.values))
    dense = e.kinetic + z * m1 + 0.5 * dense_coulomb_pair_energy(sq, sq)
    assert e.total == pytest.approx(dense, rel=1e-8)


@settings(max_examples=60, deadline=None, database=None)
@given(
    half=st.integers(2, 400),
    L=st.floats(1.0, 40.0),
    z=st.floats(1.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_coulomb_two_routes_agree(half, L, z, seed):
    # The solvers read the Coulomb term from V; the g-kernel form must stay
    # equal to it, and the prefix-sum V to its dense twin, on any grid.
    g = Grid(L, 2 * half + 1)
    u = normalize(Samples(g, np.random.default_rng(seed).random(g.N)))
    sq = u.with_values(u.values**2)
    c = solver_objective(u, background_potential(PointCharge(z), g))
    assert c.coulomb == pytest.approx(c_functional(sq, z), rel=1e-9, abs=1e-12 * z * L)
    fast = potential_from_density(sq).values
    dense = dense_potential_from_density(sq).values
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_sampled_background_energy_terms():
    g = Grid(10.0, 801)
    raw = np.exp(-2.0 * g.x**2)
    raw /= np.dot(g.weights, raw)
    bg = SampledCharge(Samples(g, -raw))
    u = normalize(from_function(g, lambda x: np.exp(-0.4 * x * x)))
    e = total_energy(u, bg)
    # int rho V_bg, read from the built V_bg, is the pair form to the bit
    assert e.background_const == 0.5 * coulomb_pair_energy(bg.rho, bg.rho)
    assert e.background_const < 0.0
    assert e.total == e.kinetic + e.coulomb  # reported, never added


def test_reflection_invariance():
    rng = np.random.default_rng(3)
    g = Grid(8.0, 321)
    u = _normalized_wave(g, rng)
    a = total_energy(u, PointCharge(1.5))
    b = total_energy(u.with_values(u.values[::-1]), PointCharge(1.5))
    assert a.total == pytest.approx(b.total, rel=1e-12)


def test_solver_objective_is_half_coulomb():
    rng = np.random.default_rng(4)
    g = Grid(8.0, 321)
    u = _normalized_wave(g, rng)
    e = total_energy(u, PointCharge(2.0))
    c = solver_objective(u, background_potential(PointCharge(2.0), g))
    assert c.objective == c.kinetic + 0.5 * c.coulomb
    assert c.objective == pytest.approx(e.kinetic + 0.5 * e.coulomb, rel=1e-13)


def test_effective_potential_background_only():
    # with u = 0 samples the potential reduces to the point cone
    g = Grid(6.0, 241)
    u = Samples(g, np.zeros(g.N))
    v = effective_potential(u, PointCharge(2.0))
    assert np.array_equal(v.values, np.abs(g.x))


def test_effective_potential_neutral_far_field():
    # total charge zero: V approaches a constant toward the boundary
    g = Grid(12.0, 961)
    u = normalize(from_function(g, lambda x: np.exp(-x * x)))
    v = effective_potential(u, PointCharge(1.0)).values
    assert abs(v[-1] - v[-40]) < 1e-10
    assert abs(v[0] - v[39]) < 1e-10


def test_effective_potential_poisson_identity():
    # second difference of V recovers -(u^2 + rho) at interior nodes
    rng = np.random.default_rng(5)
    g = Grid(6.0, 241)
    u = normalize(Samples(g, rng.random(g.N)))
    v = effective_potential(u, PointCharge(1.2)).values
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / g.h**2
    sq = (u.values**2)[1:-1]
    c = g.center_index - 1
    interior = np.delete(-d2 - sq, c)  # away from the origin rho = 0
    assert np.max(np.abs(interior)) < 1e-8


def test_el_residual_exact_eigenvector():
    # the solvers' residual path: the one stencil and norm, on a given V
    g = Grid(10.0, 801)
    v = Samples(g, np.abs(g.x))
    eps, u = ground_eigenpair(v)
    assert _residual_norm(_shifted_hamiltonian(u.values, v.values, g.h, eps), g.h) <= 1e-10


def test_el_residual_epsilon_perturbation():
    from coulombium import SolverConfig, scf_solve

    cfg = SolverConfig(L=16.0, N=1601, tol_residual=1e-7)
    state = scf_solve(PointCharge(2.0), cfg)
    r0 = el_residual(state.u, state.epsilon, PointCharge(2.0))
    r1 = el_residual(state.u, state.epsilon + 0.1, PointCharge(2.0))
    assert r0 <= cfg.tol_residual
    assert r1 == pytest.approx(0.1, abs=1e-3)


def test_boundary_flux_diagnostic_small_for_neutral():
    g = Grid(12.0, 961)
    u = normalize(from_function(g, lambda x: np.exp(-x * x)))
    left, right = boundary_flux_diagnostic(u, PointCharge(1.0))
    assert abs(left) < 1e-8 and abs(right) < 1e-8


@settings(max_examples=100, deadline=None, database=None)
@given(half=st.integers(1, 400), L=st.floats(0.5, 40.0), seed=st.integers(0, 2**32 - 1))
def test_rayleigh_quotient_is_the_stencils_quadratic_form(half, L, seed):
    # the objective's ray = kinetic + (int V_bg u^2 + int V_el u^2) is
    # <u, H u> = h sum u (H u) by summation by parts for zero-ended u
    g = Grid(L, 2 * half + 1)
    rng = np.random.default_rng(seed)
    u = Samples(g, rng.standard_normal(g.N))
    u.values[0] = u.values[-1] = 0.0
    c = solver_objective(u, Samples(g, rng.standard_normal(g.N)))
    hu = _shifted_hamiltonian(u.values, c.V.values, g.h, 0.0)
    # V changes sign, so the error is measured against kinetic + int |V| u^2
    scale = c.kinetic + float(np.dot(g.weights, np.abs(c.V.values) * u.values**2))
    assert abs(c.ray - g.h * float(np.dot(u.values, hu))) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, database=None)
@given(half=st.integers(2, 400), L=st.floats(0.5, 40.0), seed=st.integers(0, 2**32 - 1))
def test_in_place_kernels_keep_the_bits_of_their_expression_forms(half, L, seed):
    # the stencil, the factor's diagonal and the objective run their
    # expressions' operations in order, so any reordering changes a bit
    g = Grid(L, 2 * half + 1)
    h, w = g.h, g.weights
    rng = np.random.default_rng(seed)
    uv = rng.standard_normal(g.N)
    uv[0] = uv[-1] = 0.0
    vv = 10.0 * rng.standard_normal(g.N)
    eps = float(rng.standard_normal())
    stencil = np.zeros_like(uv)
    stencil[1:-1] = -(uv[2:] - 2.0 * uv[1:-1] + uv[:-2]) / h**2 + (vv[1:-1] - eps) * uv[1:-1]
    assert np.array_equal(_shifted_hamiltonian(uv, vv, h, eps), stencil)
    sigma = float(np.min(vv)) - 1.0  # below lambda_1 by Gershgorin
    d, e = _hamiltonian_factor(vv, h, sigma)
    d_ref, e_ref, _ = lapack.dpttrf(2.0 / h**2 + vv[1:-1] - sigma, np.full(g.N - 3, -1.0 / h**2))
    assert np.array_equal(d, d_ref) and np.array_equal(e, e_ref)
    u = normalize(Samples(g, uv))
    v_bg = Samples(g, vv)
    sq = u.values * u.values
    v_el = potential_from_density(u.with_values(sq)).values
    c = solver_objective(u, v_bg)
    bg, pair = float(np.dot(w, v_bg.values * sq)), float(np.dot(w * sq, v_el))
    coul = 2.0 * bg + pair
    assert np.array_equal(c.V.values, v_el + v_bg.values)
    assert not any(isinstance(v, np.ndarray) for v in vars(c).values())  # u and V, no u^2
    assert (c.kinetic, c.coulomb) == (kinetic_energy(u), coul)
    assert c.objective == c.kinetic + 0.5 * coul
    assert c.ray == c.kinetic + (bg + pair)


@settings(max_examples=100, deadline=None, database=None)
@given(half=st.integers(2, 400), L=st.floats(0.5, 40.0), depth=st.floats(0.0, 50.0),
       seed=st.integers(0, 2**32 - 1))
def test_hamiltonian_factor_exists_exactly_below_the_ground_eigenvalue(half, L, depth, seed):
    # dpttrf factors H - sigma exactly when it is positive definite, so a
    # shift just below lambda_1 is factored and one just above is refused
    g = Grid(L, 2 * half + 1)
    rng = np.random.default_rng(seed)
    v = depth * rng.standard_normal(g.N)
    diag, off = 2.0 / g.h**2 + v[1:-1], np.full(g.N - 3, -1.0 / g.h**2)
    lam1 = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0]
    margin = 1e-10 * (4.0 / g.h**2 + np.max(np.abs(v)))
    d, e = _hamiltonian_factor(v, g.h, lam1 - margin)
    assert np.all(d > 0.0)
    # L D L^T with unit lower bidiagonal L (subdiagonal e) rebuilds H - sigma
    assert np.allclose(d[1:] + e**2 * d[:-1], diag[1:] - (lam1 - margin), rtol=1e-12)
    assert np.allclose(e * d[:-1], off, rtol=1e-12)
    assert _hamiltonian_factor(v, g.h, lam1 + margin) is None


def test_cli_import_loads_lapack_from_the_flapack_extension_alone():
    # a SciPy that moves _flapack would send every command through the
    # scipy.linalg import again: same results, twice the start-up
    src = os.path.dirname(os.path.dirname(energy.__file__))
    child = ("import json, sys, coulombium.cli, coulombium.energy as e; "
             "f = sys.modules['scipy.linalg._flapack']; "
             "loaded = sorted(m for m in ('scipy.linalg', 'scipy._lib') if m in sys.modules); "
             "print(json.dumps([loaded, e.dpttrf is f.dpttrf and e.dpttrs is f.dpttrs]))")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out) == [[], True]


def test_lapack_fallback_binds_scipy_linalg_lapack_with_the_same_bits(monkeypatch):
    def missing():
        raise ImportError("no _flapack file")

    coarse, fine = Grid(30.0, 61), Grid(30.0, 601)
    gauss = np.exp(-0.5 * ((coarse.x - 0.3) / 0.9) ** 2)
    gauss[0] = gauss[-1] = 0.0
    vv = -2.0 / (1.0 + fine.x**2)
    rhs = np.linspace(-1.0, 1.0, fine.N - 2)

    def outputs():
        d, e = _hamiltonian_factor(vv, fine.h, -3.0)
        prolonged = solver._prolong(Samples(coarse, gauss), fine).values
        return d, e, energy.dpttrs(d, e, rhs)[0], prolonged

    direct = outputs()
    monkeypatch.setattr(energy, "_load_flapack", missing)
    bound = energy._bind_lapack()
    assert bound == (lapack.dpttrf, lapack.dpttrs)
    for module in (energy, solver):
        monkeypatch.setattr(module, "dpttrf", bound[0])
        monkeypatch.setattr(module, "dpttrs", bound[1])
    assert all(np.array_equal(a, b) for a, b in zip(outputs(), direct, strict=True))
