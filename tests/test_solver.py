import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from coulombium import (
    DivergingEnergyError,
    Grid,
    LineSearchStalledError,
    MaxIterExceededError,
    PointCharge,
    SampledCharge,
    Samples,
    SolverConfig,
    background_potential,
    default_initial_guess,
    effective_potential,
    el_residual,
    gradient_solve,
    ground_eigenpair,
    integrate,
    normalize,
    scf_solve,
    solver_objective,
)
from coulombium.energy import _rayleigh_quotient
from coulombium.rearrange import symmetric_decreasing_rearrangement
from coulombium.solver import _descend

AIRY_PRIME_ZERO = 1.0187929716  # ground value of -u'' + |x| u = eps u


def test_ground_eigenpair_box_spectrum():
    g = Grid(10.0, 2001)
    eps, u = ground_eigenpair(Samples(g, np.zeros(g.N)))
    continuum = (np.pi / (2.0 * g.L)) ** 2
    exact_discrete = (2.0 / g.h**2) * (1.0 - np.cos(np.pi * g.h / (2.0 * g.L)))
    assert eps == pytest.approx(exact_discrete, abs=1e-11)
    assert eps == pytest.approx(continuum, abs=1e-8)  # O(h^2)
    assert integrate(Samples(g, u.values**2)) == pytest.approx(1.0, abs=1e-12)


def test_ground_eigenpair_airy_value():
    g = Grid(20.0, 4001)
    eps, _ = ground_eigenpair(Samples(g, np.abs(g.x)))
    assert eps == pytest.approx(AIRY_PRIME_ZERO, abs=1e-3)


def test_ground_eigenpair_richardson_extrapolation():
    eps = {}
    for n in (1001, 2001):
        g = Grid(20.0, n)
        eps[n], _ = ground_eigenpair(Samples(g, np.abs(g.x)))
    extrap = (4.0 * eps[2001] - eps[1001]) / 3.0
    assert extrap == pytest.approx(AIRY_PRIME_ZERO, abs=1e-5)


def test_ground_eigenpair_matches_dense_oracle():
    # independent dense symmetric eigensolve at small N
    g = Grid(20.0, 401)
    v = np.abs(g.x)
    h = g.h
    m = (
        np.diag(2.0 / h**2 + v[1:-1])
        + np.diag(np.full(g.N - 3, -1.0 / h**2), 1)
        + np.diag(np.full(g.N - 3, -1.0 / h**2), -1)
    )
    dense = np.linalg.eigvalsh(m)[0]
    eps, _ = ground_eigenpair(Samples(g, v))
    assert eps == pytest.approx(dense, abs=1e-10)


def test_ground_eigenpair_spectral_shift():
    g = Grid(8.0, 801)
    base = Samples(g, np.abs(g.x))
    e0, u0 = ground_eigenpair(base)
    e1, u1 = ground_eigenpair(Samples(g, base.values + 3.7))
    assert e1 - e0 == pytest.approx(3.7, abs=1e-10)
    assert np.max(np.abs(u0.values - u1.values)) < 1e-10


def test_ground_eigenpair_sign_convention():
    g = Grid(8.0, 801)
    _, u = ground_eigenpair(Samples(g, np.abs(g.x)))
    assert u.values[g.center_index] > 0


def _lowest_two(v: Samples) -> np.ndarray:
    # LAPACK bisection + inverse iteration (stebz/stein) as the reference
    g = v.grid
    diag = 2.0 / g.h**2 + v.values[1:-1]
    off = np.full(g.N - 3, -1.0 / g.h**2)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))[0]


def test_a_three_node_grid_is_refused_with_its_node_count():
    # one interior node leaves H no off-diagonal, which LAPACK's wrapper rejects
    with pytest.raises(ValueError, match="at least 5 nodes, got N = 3"):
        ground_eigenpair(Samples(Grid(1.0, 3), np.zeros(3)))
    for solve in (scf_solve, gradient_solve):
        with pytest.raises(ValueError, match="at least 5 nodes, got N = 3"):
            solve(PointCharge(2.0), SolverConfig(L=1.0, N=3))
    g = Grid(1.0, 5)
    eps, _ = ground_eigenpair(Samples(g, np.zeros(g.N)))
    assert eps == pytest.approx((2.0 / g.h**2) * (1.0 - np.cos(np.pi * g.h / (2.0 * g.L))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ground_eigenpair_rejects_a_non_finite_potential(bad):
    g = Grid(8.0, 201)
    v = np.abs(g.x)
    v[57] = bad
    with pytest.raises(ValueError, match="finite"):
        ground_eigenpair(Samples(g, v))
    with pytest.raises(ValueError, match="finite"):
        ground_eigenpair(Samples(g, np.abs(g.x)), start=Samples(g, v))


def test_ground_eigenpair_leaves_a_start_held_in_a_shallower_well():
    # The start sits in the shallower of two far-apart wells, where the ground
    # state is ~1e-19: inverse iteration reaches the excited state there with
    # a tiny residual, and only the shift certificate sends it on to lambda_1.
    g = Grid(20.0, 801)

    def well(c):
        return np.exp(-0.5 * ((g.x - c) / 0.5) ** 2)

    v = Samples(g, -20.0 * well(-5.0) - 19.9 * well(5.0))
    lam = _lowest_two(v)
    eps, u = ground_eigenpair(v, start=Samples(g, well(5.0)))
    assert lam[1] - lam[0] > 0.08
    assert eps == pytest.approx(lam[0], abs=1e-10)
    assert u.values[np.argmin(np.abs(g.x + 5.0))] > 0.5


@st.composite
def eigen_problems(draw):
    """A Dirichlet potential of 0-3 Gaussian wells and a start for its eigensolve."""
    g = Grid(draw(st.floats(5.0, 25.0)), 2 * draw(st.integers(50, 400)) + 1)
    x = g.x
    if draw(st.booleans()):
        # symmetric double well: its gap falls like exp(-2 sqrt(depth) c)
        depth = draw(st.floats(2.0, 10.0))
        c = draw(st.floats(0.5, 14.0 / np.sqrt(depth)))
        v = -depth * (np.exp(-0.5 * ((x - c) / 0.5) ** 2) + np.exp(-0.5 * ((x + c) / 0.5) ** 2))
    else:
        v = np.zeros(g.N)
        for c, w, depth in draw(
            st.lists(st.tuples(st.floats(-0.6, 0.6), st.floats(0.3, 1.5), st.floats(0.5, 20.0)),
                     max_size=3)
        ):
            v -= depth * np.exp(-0.5 * ((x - c * g.L) / w) ** 2)
    kind = draw(st.sampled_from(["box", "sign-changing", "bump", "noise"]))
    shift = draw(st.floats(-0.8, 0.8)) * g.L
    if kind == "box":
        start = None
    elif kind == "sign-changing":
        start = Samples(g, np.tanh(x - shift) * np.exp(-(x**2) / 10.0))
    elif kind == "bump":
        start = Samples(g, np.exp(-0.5 * (x - shift) ** 2))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        start = Samples(g, rng.standard_normal(g.N))
    return Samples(g, v), start


@settings(max_examples=150, deadline=None, database=None)
@given(eigen_problems())
def test_ground_eigenpair_finds_the_lowest_pair_from_any_start(problem):
    v, start = problem
    lam = _lowest_two(v)
    gap = lam[1] - lam[0]
    assume(gap >= 1e-8)  # below this the two are not told apart
    eps, u = ground_eigenpair(v, start)
    assert abs(eps - lam[0]) <= 1e-9
    assert abs(eps - lam[0]) < abs(eps - lam[1])
    assert np.all(u.values >= 0.0)
    assert integrate(Samples(v.grid, u.values**2)) == pytest.approx(1.0, abs=1e-12)
    warm_eps, warm_u = ground_eigenpair(v, u)
    assert abs(warm_eps - eps) <= 1e-10
    # Both solves stop at an eigen-residual of at most 64 eps_mach (4/h^2 +
    # max |V|) on unit vectors (u sqrt(h)), which fixes the eigenvector only
    # to residual / gap (Davis-Kahan).
    h = v.grid.h
    resid = 64.0 * np.finfo(float).eps * (4.0 / h**2 + np.max(np.abs(v.values)))
    assert np.max(np.abs(warm_u.values - u.values)) <= 1e-10 + 2.0 * resid / (gap * np.sqrt(h))


@pytest.fixture(scope="module")
def z2_states():
    cfg = SolverConfig(L=20.0, N=2001, tol_residual=5e-7)
    bg = PointCharge(2.0)
    return scf_solve(bg, cfg), gradient_solve(bg, cfg), cfg, bg


def test_cross_method_agreement(z2_states):
    scf, gd, cfg, bg = z2_states
    assert scf.converged and gd.converged
    assert abs(scf.energy.total - gd.energy.total) <= 1e-4
    # the energy gap above measures tol_residual; the objective, which both
    # minimize, shows whether the two methods reach the same fixed point
    assert abs(scf.candidate.objective - gd.candidate.objective) <= 1e-12
    assert el_residual(scf.u, scf.epsilon, bg) <= 1e-6
    assert el_residual(gd.u, gd.epsilon, bg) <= 1e-6


def test_unit_mass_preserved(z2_states):
    scf, gd, _, _ = z2_states
    for state in (scf, gd):
        sq = state.u.with_values(state.u.values**2)
        assert integrate(sq) == pytest.approx(1.0, abs=1e-10)


def _rises_within_rounding(objs):
    # the one Armijo step accepts a flat step of 4e-16 max(1, |obj|), no more
    return all(b <= a + 4e-16 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))


def test_objective_trace_monotone(z2_states):
    scf, gd, _, _ = z2_states
    for state in (scf, gd):
        assert _rises_within_rounding([e for e, _ in state.history])


@st.composite
def wells_backgrounds(draw, g, charges):
    """1-3 Gaussian wells on g whose total charge is drawn from ``charges``."""
    wells = np.zeros(g.N)
    for c, w, a in draw(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.5, 1.5),
                                           st.floats(0.5, 1.0)), min_size=1, max_size=3)):
        wells += a * np.exp(-0.5 * ((g.x - c) / w) ** 2)
    charge = draw(charges)
    return SampledCharge(Samples(g, wells * (-charge / np.dot(g.weights, wells))))


@st.composite
def descent_problems(draw):
    """A point charge z in [1, 6] or 1-3 wells of total charge in [1.2, 3]."""
    cfg = SolverConfig(L=draw(st.floats(12.0, 24.0)), N=2 * draw(st.integers(100, 400)) + 1)
    if draw(st.booleans()):
        return PointCharge(draw(st.floats(1.0, 6.0))), cfg
    return draw(wells_backgrounds(Grid(cfg.L, cfg.N), st.floats(1.2, 3.0))), cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # tail mass near charge 1
@settings(max_examples=20, deadline=None, database=None)
@given(bg=wells_backgrounds(Grid(30.0, 1201), st.floats(1.0, 3.0, exclude_min=True)))
def test_gradient_solve_is_fast_and_agrees_with_scf_on_random_wells(bg):
    # The start's potential in the metric keeps the count flat in the charge,
    # down to the critical one, and both methods stop at one fixed point.
    # Anderson mixing keeps SCF's count as flat, and its accepted trace as monotone.
    cfg = SolverConfig(L=30.0, N=1201)
    gd = gradient_solve(bg, cfg)
    scf = scf_solve(bg, cfg)
    assert gd.iterations <= 30
    assert scf.iterations <= 40
    assert _rises_within_rounding([e for e, _ in scf.history])
    assert abs(gd.candidate.objective - scf.candidate.objective) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # tail mass near charge 1
@pytest.mark.parametrize("charge,wells", [
    (1.1, [(4.9102, 0.4813, 0.9467), (-5.9379, 1.2036, 0.8484)]),
    (1.05, [(5.9443, 1.3664, 0.9331), (-3.0411, 0.7729, 0.3817)]),
])
def test_scf_solves_separated_near_critical_wells(charge, wells):
    # Damped mixing alone ran 20000 iterations on each of these without converging.
    g = Grid(30.0, 1201)
    rho = sum(a * np.exp(-0.5 * ((g.x - c) / w) ** 2) for c, w, a in wells)
    bg = SampledCharge(Samples(g, rho * (-charge / np.dot(g.weights, rho))))
    cfg = SolverConfig(L=30.0, N=1201)
    scf = scf_solve(bg, cfg)
    assert scf.iterations <= 40
    assert abs(scf.candidate.objective - gradient_solve(bg, cfg).candidate.objective) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@settings(max_examples=25, deadline=None, database=None)
@given(problem=descent_problems())
def test_accepted_objectives_never_rise_beyond_rounding(solve, problem):
    # From the start on, no accepted step raises the descent objective by
    # more than the line search's rounding allowance.
    bg, cfg = problem
    g = Grid(cfg.L, cfg.N)
    start = solver_objective(default_initial_guess(bg, g), background_potential(bg, g))
    state = solve(bg, cfg)
    assert _rises_within_rounding([start.objective] + [e for e, _ in state.history])


def test_descent_step_stalls_on_a_path_that_only_rises():
    g = Grid(12.0, 241)
    v_bg = background_potential(PointCharge(2.0), g)
    cur = solver_objective(normalize(Samples(g, np.exp(-0.5 * g.x**2))), v_bg)
    # a wiggle multiplies the kinetic term far beyond any allowance
    wiggly = cur.u.values * (1.0 + 0.5 * np.sin(20.0 * g.x))
    steps = []

    def path(s):
        steps.append(s)
        return wiggly + s * cur.u.values

    with pytest.raises(LineSearchStalledError, match="no descent step"):
        _descend(cur, v_bg, path, 1.0, -1.0)
    assert steps[0] == 1.0 and steps[-1] >= 1e-20 > 0.5 * steps[-1]


def test_epsilon_matches_rayleigh_quotient(z2_states):
    # both solvers report the multiplier of the state they return, SCF too,
    # not the eigenvalue of the previous iterate's potential
    scf, gd, _, bg = z2_states
    for state in (scf, gd):
        assert state.epsilon == _rayleigh_quotient(state.candidate)
        u = state.u
        v = effective_potential(u, bg)
        h = u.grid.h
        uv = u.values
        hu = np.zeros_like(uv)
        hu[1:-1] = -(uv[2:] - 2 * uv[1:-1] + uv[:-2]) / h**2 + v.values[1:-1] * uv[1:-1]
        rayleigh = float(np.dot(u.grid.weights * uv, hu))
        assert rayleigh == pytest.approx(state.epsilon, rel=1e-12, abs=0.0)


def test_gradient_starts_at_scf_solution_terminates(z2_states):
    scf, _, cfg, bg = z2_states
    warm = gradient_solve(bg, cfg, u0=scf.u)
    assert warm.converged and warm.iterations <= 2


def test_scf_deterministic(z2_states):
    scf, _, cfg, bg = z2_states
    again = scf_solve(bg, cfg)
    assert np.array_equal(scf.u.values, again.u.values)
    assert scf.energy.total == again.energy.total


def test_virial_stationarity(z2_states):
    # the converged state is stationary for the solver objective under the
    # mass-preserving scaling u -> sqrt(lam) u(lam x)
    scf, _, _, bg = z2_states
    g = scf.u.grid
    v_bg = background_potential(bg, g)

    def scaled_objective(lam):
        vals = np.interp(lam * g.x, g.x, scf.u.values, left=0.0, right=0.0)
        vals = vals * np.sqrt(lam)
        return solver_objective(normalize(Samples(g, vals)), v_bg).objective

    d = 0.01
    fd = (scaled_objective(1.0 + d) - scaled_objective(1.0 - d)) / (2.0 * d)
    assert abs(fd) <= 1e-4


def test_gradient_line_search_does_not_stall():
    # Armijo must judge descent with the objective whose gradient it steps
    # along: rounding gaps between two Coulomb routes stall the search here.
    cfg = SolverConfig(L=30.0, N=2001)
    bg = PointCharge(5.0)
    gd = gradient_solve(bg, cfg)
    assert gd.converged
    assert abs(gd.energy.total - scf_solve(bg, cfg).energy.total) <= 1e-6


def test_grid_refinement_second_order():
    bg = PointCharge(2.0)
    energies = {}
    for n in (751, 1501, 3001):  # h, h/2, h/4 on L = 15
        cfg = SolverConfig(L=15.0, N=n, tol_residual=1e-8, tol_energy=1e-12)
        energies[n] = scf_solve(bg, cfg).energy.total
    r = (energies[751] - energies[1501]) / (energies[1501] - energies[3001])
    assert r == pytest.approx(4.0, abs=1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_neutral_minimizer_symmetric_decreasing():
    cfg = SolverConfig(L=24.0, N=2401, tol_residual=5e-7)
    state = scf_solve(PointCharge(1.0), cfg)
    assert state.energy.total >= 0.0
    sq = state.u.with_values(state.u.values**2)
    star = symmetric_decreasing_rearrangement(sq)
    assert np.max(np.abs(np.sqrt(star.values) - state.u.values)) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@settings(max_examples=60, deadline=None, database=None)
@given(
    z=st.floats(1.0, 8.0),
    half=st.integers(100, 600),
    L=st.floats(12.0, 30.0),
    shift=st.floats(-3.0, 3.0),
)
# a draw on which damped SCF used to settle into a two-cycle (residual 0.038)
@example(z=1.0448621786501713, half=372, L=29.608782849122623, shift=0.5392201699257031)
def test_minimizer_is_symmetric_decreasing(solve, z, half, L, shift):
    # From any shifted start either solver's point-charge minimizer is its own
    # symmetric decreasing rearrangement, with unit mass and a trace that
    # never rises.
    g = Grid(L, 2 * half + 1)
    vals = np.exp(-0.5 * (g.x - shift) ** 2)
    vals[0] = vals[-1] = 0.0
    u0 = normalize(Samples(g, vals))
    state = solve(PointCharge(z), SolverConfig(L=L, N=g.N), u0=u0)
    sq = state.u.with_values(state.u.values**2)
    star = symmetric_decreasing_rearrangement(sq)
    assert np.max(np.abs(np.sqrt(star.values) - state.u.values)) <= 1e-6
    assert integrate(sq) == pytest.approx(1.0, abs=1e-12)
    assert _rises_within_rounding([e for e, _ in state.history])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_from_asymmetric_start_symmetrizes():
    g = Grid(24.0, 2401)
    vals = np.exp(-0.5 * (g.x - 2.5) ** 2)
    vals[0] = vals[-1] = 0.0
    u0 = normalize(Samples(g, vals))
    cfg = SolverConfig(L=24.0, N=2401, tol_residual=5e-7)
    state = gradient_solve(PointCharge(1.0), cfg, u0=u0)
    sq = state.u.with_values(state.u.values**2)
    star = symmetric_decreasing_rearrangement(sq)
    assert np.max(np.abs(np.sqrt(star.values) - state.u.values)) < 1e-5


def test_subcritical_charge_flagged():
    # below z = 1 mass leaves for the boundary: both solvers stop on the first
    # iterate with tail mass beyond 0.9 L, long before the iteration cap
    for solve, z, n in [(scf_solve, 0.5, 3001), (gradient_solve, 0.5, 3001),
                        (scf_solve, 0.9, 1201), (gradient_solve, 0.9, 1201)]:
        with pytest.raises(DivergingEnergyError, match="tail mass") as excinfo:
            solve(PointCharge(z), SolverConfig(L=30.0, N=n, max_iter=300))
        assert 0 < len(excinfo.value.history) < 50  # trace attached


def test_subcritical_solve_refuses_a_box_held_state_without_tail_mass():
    # At z just below 1 the net charge is too small for the tail-mass test
    # to see at this L; no bound state exists, so the stopping rule refuses it.
    with pytest.raises(DivergingEnergyError, match="box-held state") as excinfo:
        gradient_solve(PointCharge(0.999999), SolverConfig(L=30.0, N=1201))
    assert excinfo.value.history


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
def test_a_non_finite_start_is_rejected(solve):
    cfg = SolverConfig(L=12.0, N=241)
    u0 = Samples(Grid(cfg.L, cfg.N), np.full(cfg.N, np.nan))
    with pytest.raises(ValueError, match="cannot normalize"):
        solve(PointCharge(2.0), cfg, u0=u0)


@pytest.mark.parametrize("z", [0.8, 0.9])
def test_subcritical_gradient_solve_refuses_a_box_held_state(z):
    # Below z = 1 there is no ground state: the solve settles on a state the
    # domain's edge holds, and the driver refuses it instead of returning it.
    with pytest.raises(DivergingEnergyError, match="tail mass") as excinfo:
        gradient_solve(PointCharge(z), SolverConfig(L=30.0, N=3001))
    assert excinfo.value.history


@pytest.mark.parametrize("z", [1.0, 2.0, 6.0])
def test_scf_iterations_at_point_charges(z):
    # Anderson mixing takes 5-12 passes here, damped mixing alone 16-21
    state = scf_solve(PointCharge(z), SolverConfig(L=30.0, N=6001))
    assert state.iterations <= 14


def test_gradient_iterations_at_the_neutral_charge():
    state = gradient_solve(PointCharge(1.0), SolverConfig(L=30.0, N=6001))
    assert state.converged and state.iterations <= 25


@pytest.mark.parametrize("z", [1.0, 1.2, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0])
def test_gradient_iterations_do_not_grow_with_the_charge(z):
    # the metric holds the start's potential, which grows like (z - 1)|x| / 2
    state = gradient_solve(PointCharge(z), SolverConfig(L=30.0, N=3001))
    assert state.iterations <= 25


def test_gradient_iterations_do_not_grow_with_the_mesh():
    # The metric removes the 1/h^2 conditioning of the Laplacian, so
    # refining the mesh fourfold leaves the iteration count as it is.
    # max_iter stops a mesh-bound iteration in seconds instead of minutes.
    iterations = {}
    for n in (3001, 12001):
        g = Grid(30.0, n)
        wells = np.exp(-0.5 * ((g.x + 1.0) / 0.8) ** 2) + 0.7 * np.exp(
            -0.5 * ((g.x - 1.0) / 0.8) ** 2
        )
        rho = Samples(g, wells * (-1.6 / np.dot(g.weights, wells)))
        cfg = SolverConfig(L=30.0, N=n, max_iter=500)
        iterations[n] = gradient_solve(SampledCharge(rho), cfg).iterations
    assert abs(iterations[12001] - iterations[3001]) <= 1
    assert max(iterations.values()) <= 15


def test_truncation_warning_for_small_domain():
    cfg = SolverConfig(L=14.0, N=1401, tol_residual=1e-6)
    with pytest.warns(RuntimeWarning, match="tail mass"):
        scf_solve(PointCharge(1.0), cfg)


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
def test_truncation_warning_names_the_caller(solve):
    with pytest.warns(RuntimeWarning, match="tail mass") as record:
        solve(PointCharge(1.0), SolverConfig(L=8.0, N=401, tol_residual=1e-6))
    assert [w.filename for w in record] == [__file__]


def test_state_residual_is_the_el_residual():
    # the residual the stopping rule read, not one rebuilt after the solve;
    # at z = 3 half the weighted norm of g_t, the same number rounded
    # another way, would miss el_residual in the last bit
    cfg = SolverConfig(L=12.0, N=241)
    for z in (2.0, 3.0):
        bg = PointCharge(z)
        scf = scf_solve(bg, cfg)
        assert scf.residual == el_residual(scf.u, scf.epsilon, bg)
        gd = gradient_solve(bg, cfg)
        assert gd.residual == el_residual(gd.u, gd.epsilon, bg)
        assert gd.residual <= cfg.tol_residual


def test_both_solvers_converge_from_a_start_nonzero_at_the_ends():
    # the gradient step is zero at the Dirichlet ends, so the ends of a
    # supplied start are zeroed before it is normalized
    cfg = SolverConfig(L=12.0, N=241)
    g = Grid(cfg.L, cfg.N)
    u0 = Samples(g, np.exp(-0.02 * g.x**2))
    bg = PointCharge(2.0)
    ref = scf_solve(bg, cfg).energy.total
    for solve in (scf_solve, gradient_solve):
        state = solve(bg, cfg, u0=u0)
        assert state.u.values[0] == state.u.values[-1] == 0.0
        assert state.energy.total == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
def test_max_iter_error_carries_one_float_entry_per_iteration(solve):
    with pytest.raises(MaxIterExceededError) as excinfo:
        solve(PointCharge(2.0), SolverConfig(L=12.0, N=241, max_iter=3))
    history = excinfo.value.history
    assert len(history) == 3
    assert all(type(v) is float for entry in history for v in entry)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_energy=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


@pytest.mark.parametrize("name", ["tol_energy", "tol_residual", "L"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_solver_config_rejects_non_finite_values(name, value):
    # NaN compares false with every bound, so a test of the sign alone lets it in
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SolverConfig(**{name: value})


def test_initial_guess_recentered():
    from coulombium import default_initial_guess

    g = Grid(12.0, 601)
    raw = np.exp(-8.0 * (g.x - 3.0) ** 2)
    raw /= np.dot(g.weights, raw)
    bg = SampledCharge(Samples(g, -raw))
    u0 = default_initial_guess(bg, g)
    peak = g.x[np.argmax(u0.values)]
    assert peak == pytest.approx(3.0, abs=0.1)
