import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    reflect,
    solver_objective,
    total_energy,
)
from coulombium.energy import Candidate, _rayleigh_quotient, _shifted_hamiltonian
from coulombium.kernel import dense_coulomb_pair_energy, dense_potential_from_density
from coulombium.verify import random_smooth


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
    e0 = total_energy(u, bg)
    assert e0.background_const == 0.0
    e1 = total_energy(u, bg, include_background_self=True)
    expected_const = 0.5 * coulomb_pair_energy(bg.rho, bg.rho)
    assert e1.background_const == pytest.approx(expected_const, rel=1e-12)
    assert e1.total == pytest.approx(e0.total + expected_const, rel=1e-12)


def test_reflection_invariance():
    rng = np.random.default_rng(3)
    g = Grid(8.0, 321)
    u = _normalized_wave(g, rng)
    a = total_energy(u, PointCharge(1.5))
    b = total_energy(reflect(u), PointCharge(1.5))
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
    g = Grid(10.0, 801)
    v = Samples(g, np.abs(g.x))
    eps, u = ground_eigenpair(v)
    assert el_residual(u, eps, PointCharge(1.0), potential=v) <= 1e-10


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
    # <u, H u> = kinetic + int V u^2 holds by summation by parts for zero-ended u
    g = Grid(L, 2 * half + 1)
    rng = np.random.default_rng(seed)
    u = Samples(g, rng.standard_normal(g.N))
    u.values[0] = u.values[-1] = 0.0
    V = Samples(g, rng.standard_normal(g.N))
    kin = kinetic_energy(u)
    rq = _rayleigh_quotient(Candidate(u, V, kin, 0.0, 0.0))
    hu = _shifted_hamiltonian(u.values, V.values, g.h, 0.0)
    # V changes sign, so the error is measured against kinetic + int |V| u^2
    scale = kin + float(np.dot(g.weights, np.abs(V.values) * u.values**2))
    assert abs(rq - float(np.dot(g.weights * u.values, hu))) <= 1e-12 * scale
