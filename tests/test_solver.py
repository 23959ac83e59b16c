import contextlib
import dataclasses
import inspect
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from coulombium import (
    DivergingEnergyError,
    Grid,
    GridMismatchError,
    LineSearchStalledError,
    MaxIterExceededError,
    NoConvergenceError,
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
    moment,
    normalize,
    scf_solve,
    solver_objective,
    total_charge,
)
from coulombium import solver
from coulombium.energy import _shifted_hamiltonian
from coulombium.rearrange import symmetric_decreasing_rearrangement
from coulombium.solver import _descend
from oracles import mirrored_wells

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


def test_ground_eigenpair_takes_a_start_of_any_finite_scale():
    # squares of 1e-200 underflow and of 1e200 overflow; only the direction counts
    g = Grid(10.0, 201)
    v = Samples(g, 0.5 * np.abs(g.x))
    pairs = [ground_eigenpair(v, start=Samples(g, c * np.ones(g.N))) for c in (1e-200, 1.0, 1e200)]
    for eps, u in pairs[::2]:
        assert eps == pairs[1][0]
        assert np.array_equal(u.values, pairs[1][1].values)
    for bad in (np.full(g.N, np.nan), np.zeros(g.N)):
        with pytest.raises(ValueError, match="start must be finite and nonzero"):
            ground_eigenpair(v, start=Samples(g, bad))


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


def _spy_on_factors(monkeypatch) -> list:
    """(shift, accepted) of every factor of H - sigma ``solver`` asks for, in call order."""
    shifts = []
    factor = solver._hamiltonian_factor

    def spy(vv, h, sigma):
        fac = factor(vv, h, sigma)
        shifts.append((sigma, fac is not None))
        return fac

    monkeypatch.setattr(solver, "_hamiltonian_factor", spy)
    return shifts


def _certified(v: Samples, eps: float, u: Samples) -> bool:
    """The stencil's residual of (eps, u) and its quotient are within the certificate's tol."""
    g = v.grid
    tol = 64.0 * np.finfo(float).eps * (4.0 / g.h**2 + np.max(np.abs(v.values[1:-1])))
    y = u.values / np.linalg.norm(u.values)
    hy = _shifted_hamiltonian(y, v.values, g, 0.0)
    return np.linalg.norm(hy - eps * y) <= 2.0 * tol and abs(float(np.dot(y, hy)) - eps) <= tol


def test_a_warm_eigensolve_factors_once(monkeypatch):
    # The start is the ground state SCF returned, so its residual is far
    # below sqrt(tol): the shift rho - tol - r^2 is accepted, and one solve
    # from it certifies the pair.  The rule's shift rho - 2r alone needed a
    # second factor, at rho - 2 tol, only to certify.
    cfg = SolverConfig(L=30.0, N=60001)
    bg = _seeded_two_wells(Grid(cfg.L, cfg.N), 101)
    state = scf_solve(bg, cfg)
    v = effective_potential(state.u, bg)  # the accepted iterate's V, bit for bit
    shifts = _spy_on_factors(monkeypatch)
    eps, u = ground_eigenpair(v, state.u)
    assert [accepted for _, accepted in shifts] == [True]
    assert _certified(v, eps, u)
    assert eps == pytest.approx(_lowest_two(v)[0], abs=1e-9)


def test_a_refused_certificate_shift_still_reaches_the_ground_state(monkeypatch):
    # The start is the excited eigenvector held in the shallower of two
    # far-apart wells: its residual is at rounding level, so the first shift
    # tried, rho - tol - r^2, lies just below lambda_2 and far above
    # lambda_1, and dpttrf refuses it.  That refusal bounds lambda_1 from
    # above, and the rule's own shifts go on down to the ground state.
    g = Grid(20.0, 801)

    def well(c):
        return np.exp(-0.5 * ((g.x - c) / 0.5) ** 2)

    v = Samples(g, -20.0 * well(-5.0) - 19.9 * well(5.0))
    lam = _lowest_two(v)
    excited = np.zeros(g.N)
    excited[1:-1] = eigh_tridiagonal(2.0 / g.h**2 + v.values[1:-1], np.full(g.N - 3, -1.0 / g.h**2),
                                     select="i", select_range=(1, 1))[1][:, 0]
    shifts = _spy_on_factors(monkeypatch)
    eps, u = ground_eigenpair(v, start=Samples(g, excited))
    first, accepted = shifts[0]
    assert not accepted and lam[0] < first < lam[1]
    assert eps == pytest.approx(lam[0], abs=1e-10)
    assert np.all(u.values >= 0.0) and u.values[np.argmin(np.abs(g.x + 5.0))] > 0.5
    assert _certified(v, eps, u)


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


@settings(max_examples=60, deadline=None, database=None)
@given(half=st.integers(2, 300), L=st.floats(0.5, 40.0), slope=st.floats(0.0, 5.0),
       depth=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1))
@example(half=3000, L=30.0, slope=1.0, depth=0.0, seed=0)  # z = 2's V_bg on the default mesh
def test_the_half_grid_eigenvalue_is_the_full_grids(half, L, slope, depth, seed):
    # An even V's ground state is even, so the lowest eigenvalue of H on the
    # half grid (the even sector, in the symmetrized coordinates y_0 / sqrt 2)
    # is the full grid's.  Each eigensolve certifies lambda_1 within 2 tol of
    # its rho; below N = 601 a dense LAPACK solve of both matrices checks it.
    g = Grid(L, 2 * half + 1)
    c = g.center_index
    rng = np.random.default_rng(seed)
    v = slope * np.abs(g.x)
    wells = rng.uniform(-0.5, 0.5, 2) * g.L, rng.uniform(0.02, 0.3, 2) * g.L
    for centre, width in zip(*wells):
        v -= depth * (np.exp(-0.5 * ((g.x - centre) / width) ** 2)
                      + np.exp(-0.5 * ((g.x + centre) / width) ** 2))
    assert np.array_equal(v, v[::-1])
    full_eps, full_u = ground_eigenpair(Samples(g, v))
    half_eps, half_u = ground_eigenpair(Samples(solver._HalfGrid(g), v[c:].copy()))
    tol = 64.0 * np.finfo(float).eps * (4.0 / g.h**2 + np.max(np.abs(v[1:-1])))
    assert abs(half_eps - full_eps) <= 2.0 * tol
    assert np.all(half_u.values >= 0.0) and half_u.values[-1] == 0.0
    assert np.dot(half_u.grid.weights, half_u.values**2) == pytest.approx(1.0, abs=1e-12)
    if g.N <= 601:
        h2 = g.h**2
        off = np.full(c - 1, -1.0 / h2)
        off[0] *= np.sqrt(2.0)
        even = eigh_tridiagonal(2.0 / h2 + v[c:-1], off, eigvals_only=True,
                                select="i", select_range=(0, 0))[0]
        assert abs(half_eps - even) <= 2.0 * tol
        assert abs(half_eps - _lowest_two(Samples(g, v))[0]) <= 2.0 * tol


@st.composite
def fine_eigen_problems(draw):
    """A random potential on a grid of up to 60001 nodes, and a start for its eigensolve."""
    # half the draws from the fine grids, which plain integers(2, 30000) rarely reach
    half = draw(st.one_of(st.integers(2, 400), st.integers(20000, 30000)))
    g = Grid(draw(st.floats(0.5, 40.0)), 2 * half + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = g.x
    v = draw(st.floats(0.0, 5.0)) * np.abs(x)
    v += draw(st.floats(0.0, 2.0)) * rng.standard_normal(g.N)
    for _ in range(draw(st.integers(0, 3))):
        c, w = rng.uniform(-0.8, 0.8) * g.L, rng.uniform(0.02, 0.3) * g.L
        v -= rng.uniform(0.0, 50.0) * np.exp(-0.5 * ((x - c) / w) ** 2)
    kind = draw(st.sampled_from(["box", "noise", "bump"]))
    if kind == "box":
        start = None
    elif kind == "noise":
        start = Samples(g, rng.standard_normal(g.N))
    else:
        start = Samples(g, np.exp(-0.5 * ((x - rng.uniform(-0.5, 0.5) * g.L) / (0.1 * g.L)) ** 2))
    return Samples(g, v), start


@settings(max_examples=40, deadline=None, database=None)
@given(fine_eigen_problems())
def test_ground_eigenpair_certificate_holds_for_the_stencil(problem):
    # The steps read their quotient and residual from their own solves; the
    # stencil's own residual of the returned pair and its own quotient must
    # still be within the tolerance the certificate states.
    v, start = problem
    eps, u = ground_eigenpair(v, start)
    assert _certified(v, eps, u)


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
    assert abs(scf.objective - gd.objective) <= 1e-12
    assert el_residual(scf.u, scf.epsilon, bg) <= 1e-6
    assert el_residual(gd.u, gd.epsilon, bg) <= 1e-6


def test_unit_mass_preserved(z2_states):
    scf, gd, _, _ = z2_states
    for state in (scf, gd):
        sq = state.u.with_values(state.u.values**2)
        assert integrate(sq) == pytest.approx(1.0, abs=1e-10)


@contextlib.contextmanager
def _allowances():
    """objective -> rounding allowance of each candidate the solvers evaluate meanwhile."""
    seen = {}
    evaluate = solver.solver_objective

    def record(u, v_bg):
        c = evaluate(u, v_bg)
        seen[c.objective] = c.rounding
        return c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solver_objective", record)
        yield seen


def _rises_within_rounding(objs, allowance):
    # the one Armijo test lets a rise through when it lies within the two
    # objectives' rounding allowances, read from the sums each evaluation formed
    return all(b <= a + allowance[a] + allowance[b] for a, b in zip(objs, objs[1:]))


def test_objective_trace_monotone(z2_states):
    _, _, cfg, bg = z2_states
    for solve in (scf_solve, gradient_solve):
        with _allowances() as allowance:
            state = solve(bg, cfg)
        assert _rises_within_rounding([e for e, _ in state.history], allowance)


def test_the_rounding_allowance_is_a_few_ulps_of_the_objectives_sums():
    g = Grid(20.0, 2001)
    v_bg = background_potential(PointCharge(2.0), g)
    c = solver_objective(default_initial_guess(PointCharge(2.0), g), v_bg)
    w, sq = g.weights, c.u.values**2
    bg = float(np.dot(w, v_bg.values * sq))
    pair = c.coulomb - 2.0 * bg
    magnitude = c.kinetic + abs(bg) + 0.5 * abs(pair)
    assert c.rounding == pytest.approx(4.0 * np.finfo(float).eps * magnitude, rel=1e-12)


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
    with _allowances() as allowance:
        scf = scf_solve(bg, cfg)
    assert gd.iterations <= 30
    assert scf.iterations <= 40
    assert _rises_within_rounding([e for e, _ in scf.history], allowance)
    assert abs(gd.objective - scf.objective) <= 1e-12


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
    assert abs(scf.objective - gradient_solve(bg, cfg).objective) <= 1e-12


@pytest.mark.parametrize("charge,centre,width", [(2.2892, 1.1124, 0.834),
                                                  (1.8071, 0.9589, 1.1833)])
def test_scf_from_a_warm_start_near_the_minimizer_converges(charge, centre, width):
    # Near the minimizer two objectives differ by their rounding (up to
    # 2e-15 here), and the slope eps - <u, H u> by the eigenvalue's
    # (up to 1e-10).  Under a fixed Armijo allowance of 4e-16 max(1, |obj|)
    # noise in the last bits refused good Anderson candidates: the first
    # input took 8 to 12 passes as the start's last bits changed.  Scaling
    # u0 by 1 + k eps_mach changes those bits; the allowance read from the
    # objective's own sums and the slope clipped at 0 within the
    # eigenvalue's rounding take 2 passes on every start, with one BLAS
    # thread and with two.
    cfg = SolverConfig(L=30.0, N=60001, max_iter=60)
    fine, coarse = Grid(cfg.L, cfg.N), Grid(cfg.L, 6001)
    g = np.exp(-0.5 * ((fine.x - centre) / width) ** 2)
    bg = SampledCharge(Samples(fine, -charge * g / np.dot(fine.weights, g)))
    state = scf_solve(SampledCharge(Samples(coarse, bg.rho.values[::10])),
                      SolverConfig(L=cfg.L, N=6001))
    u0 = np.interp(fine.x, coarse.x, state.u.values)
    for k in (0, 1, 3, 7):
        start = Samples(fine, u0 * (1.0 + k * np.finfo(float).eps))
        assert scf_solve(bg, cfg, u0=start).iterations <= 8, k


def test_every_scf_fallback_starts_at_the_full_weight(monkeypatch):
    # A fallback can accept a small weight.  Here the first pass, whose
    # search starts from the whole step, is made to accept 0.0625 and the
    # second pass's Anderson candidate is refused, both by force: the second
    # fallback must start again from 0.6, not from a weight carried over.
    starts, accepted, refused = [], [], []

    def descend(cur, v_bg, path, step, slope):
        starts.append(step)
        trial, taken = _descend(cur, v_bg, path, step, slope)
        accepted.append(taken)
        return trial, taken

    def descends(cur, trial, step, slope):
        if not accepted:  # the first pass's search refuses weights above 0.1
            return step < 0.1 and real_descends(cur, trial, step, slope)
        if len(starts) == len(accepted):  # outside a search: an Anderson candidate
            refused.append(step)
            return False
        return real_descends(cur, trial, step, slope)

    real_descends = solver._descends
    monkeypatch.setattr(solver, "_descend", descend)
    monkeypatch.setattr(solver, "_descends", descends)
    with pytest.raises(MaxIterExceededError):
        scf_solve(PointCharge(2.0), SolverConfig(L=12.0, N=241, max_iter=2))
    assert accepted[0] == 0.0625 and refused == [0.6]
    assert starts == [1.0, 0.6]


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
    with _allowances() as allowance:
        state = solve(bg, cfg)
    allowance[start.objective] = start.rounding
    assert _rises_within_rounding([start.objective] + [e for e, _ in state.history], allowance)


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
        u = state.u
        v = effective_potential(u, bg)
        # kinetic + int V u^2, summed in another order than the objective's sums
        w, kin, sq = u.grid.weights, state.energy.kinetic, u.values**2
        quotient = kin + float(np.dot(w, v.values * sq))
        scale = kin + float(np.dot(w, np.abs(v.values) * sq))
        assert abs(state.epsilon - quotient) <= 1e-14 * scale
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


_CURVE_Z = (1.0, 1.25, 1.5, 2.0, 3.0, 4.5, 6.0)
_HF_Z, _HF_DELTA = (1.5, 2.0, 4.0), 1e-3


@pytest.fixture(scope="module")
def objective_curve():
    """(objective, m1) of each solver's state per point charge z, at L = 30, N = 6001."""
    cfg = SolverConfig(L=30.0, N=6001)
    zs = set(_CURVE_Z) | {z + s * _HF_DELTA for z in _HF_Z for s in (-1, 0, 1)}
    curve = {}
    for solve in (scf_solve, gradient_solve):
        for z in zs:
            state = solve(PointCharge(z), cfg)
            curve[solve, z] = state.objective, moment(state.u.with_values(state.u.values**2), 1.0)
    return curve


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@pytest.mark.parametrize("z", _HF_Z)
def test_objective_slope_in_z_is_half_the_first_moment(objective_curve, solve, z):
    # Hellmann-Feynman: V_bg = z|x|/2 is the only z in the objective, so at the
    # minimizer d objective / dz = int |x| u^2 / 2 (the reported total, whose
    # Coulomb term counts V_bg twice, does not obey it)
    up, down = (objective_curve[solve, z + s * _HF_DELTA][0] for s in (1, -1))
    assert abs((up - down) / (2 * _HF_DELTA) - objective_curve[solve, z][1] / 2) <= 1e-6


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
def test_minimum_objective_is_concave_in_z(objective_curve, solve):
    # a minimum over u of functions affine in z is concave, so each chord's
    # slope lies between the Hellmann-Feynman slopes m1/2 at its two ends
    for z1, z2 in zip(_CURVE_Z, _CURVE_Z[1:]):
        (o1, m1), (o2, m2) = objective_curve[solve, z1], objective_curve[solve, z2]
        assert m2 / 2 <= (o2 - o1) / (z2 - z1) <= m1 / 2


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


def _symmetric_decreasing_gap(u: Samples) -> float:
    """max |u - sqrt((u^2)*)|: 0 exactly when u is its own symmetric decreasing rearrangement."""
    star = symmetric_decreasing_rearrangement(u.with_values(u.values**2))
    return float(np.max(np.abs(np.sqrt(star.values) - u.values)))


def _rise_on_the_half_axis(u: Samples) -> float:
    """The largest step up of u on x >= 0, in units of max u."""
    right = u.values[u.grid.center_index:]
    return float(np.max(np.diff(right))) / float(np.max(right))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_neutral_minimizer_symmetric_decreasing():
    # The full grid imposes no symmetry: SCF finds the neutral minimizer of
    # mirrored wells symmetric decreasing.  A point charge solves on the
    # half axis, where u is even by construction but is not made decreasing
    cfg = SolverConfig(L=24.0, N=2401, tol_residual=5e-7)
    wells = scf_solve(mirrored_wells(Grid(cfg.L, cfg.N), 1.0, 0.4, 0.8), cfg)
    assert _symmetric_decreasing_gap(wells.u) < 1e-6
    state = scf_solve(PointCharge(1.0), cfg)
    assert state.energy.total >= 0.0
    assert np.array_equal(state.u.values, state.u.values[::-1])
    assert _rise_on_the_half_axis(state.u) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@settings(max_examples=60, deadline=None, database=None)
@given(
    z=st.floats(1.0, 8.0),
    centre=st.floats(0.0, 1.0),
    width=st.floats(0.5, 1.5),
    half=st.integers(100, 600),
    L=st.floats(12.0, 30.0),
    shift=st.floats(-3.0, 3.0),
)
def test_minimizer_is_symmetric_decreasing(solve, z, centre, width, half, L, shift):
    # From any shifted start either solver's minimizer for mirrored wells
    # whose density is symmetric decreasing (centre <= width) is its own
    # symmetric decreasing rearrangement on the full grid, with unit mass
    # and a trace that never rises.
    g = Grid(L, 2 * half + 1)
    vals = np.exp(-0.5 * (g.x - shift) ** 2)
    vals[0] = vals[-1] = 0.0
    u0 = normalize(Samples(g, vals))
    with _allowances() as allowance:
        state = solve(mirrored_wells(g, z, centre * width, width), SolverConfig(L=L, N=g.N), u0=u0)
    assert _symmetric_decreasing_gap(state.u) <= 1e-6
    assert integrate(state.u.with_values(state.u.values**2)) == pytest.approx(1.0, abs=1e-12)
    assert _rises_within_rounding([e for e, _ in state.history], allowance)


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
def test_a_point_charge_minimizer_decreases_on_the_half_axis(solve, z, half, L, shift):
    # A point charge's state is the mirror image of its half-axis state, so
    # it is even bit for bit.  Nothing makes it decreasing: on x >= 0 it
    # never rises by more than 1e-12 max u.  A shifted start enters as the
    # root mean square of u(x) and u(-x); the trace never rises.
    g = Grid(L, 2 * half + 1)
    vals = np.exp(-0.5 * (g.x - shift) ** 2)
    vals[0] = vals[-1] = 0.0
    u0 = normalize(Samples(g, vals))
    with _allowances() as allowance:
        state = solve(PointCharge(z), SolverConfig(L=L, N=g.N), u0=u0)
    assert np.array_equal(state.u.values, state.u.values[::-1])
    assert _rise_on_the_half_axis(state.u) <= 1e-12
    assert integrate(state.u.with_values(state.u.values**2)) == pytest.approx(1.0, abs=1e-12)
    assert _rises_within_rounding([e for e, _ in state.history], allowance)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_from_asymmetric_start_symmetrizes():
    # on the full grid of neutral mirrored wells, from a start shifted off centre
    g = Grid(24.0, 2401)
    vals = np.exp(-0.5 * (g.x - 2.5) ** 2)
    vals[0] = vals[-1] = 0.0
    u0 = normalize(Samples(g, vals))
    cfg = SolverConfig(L=24.0, N=2401, tol_residual=5e-7)
    state = gradient_solve(mirrored_wells(g, 1.0, 0.4, 0.8), cfg, u0=u0)
    assert _symmetric_decreasing_gap(state.u) < 1e-5


def _charge_just_below_the_critical_ratio() -> SampledCharge:
    # trapezoid charge a hair below 1 - 1e-9, the largest ratio the solvers refuse
    g = Grid(30.0, 1201)
    wells = np.exp(-0.5 * (g.x / 0.8) ** 2)
    rho = Samples(g, wells * (-(1.0 - 1.001e-9) / integrate(Samples(g, wells))))
    assert 1.0 - 1.01e-9 < -integrate(rho) < 1.0 - 1e-9
    return SampledCharge(rho)


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@pytest.mark.parametrize("bg", [PointCharge(0.5), PointCharge(0.9), PointCharge(0.999999),
                                _charge_just_below_the_critical_ratio()],
                         ids=["z0.5", "z0.9", "z0.999999", "sampled"])
def test_subcritical_background_is_refused_before_any_iterate(solve, bg, monkeypatch):
    # Below z = 1 there is no bound state, whatever the iterates would show:
    # the solve raises before it evaluates a single objective.
    calls = []
    monkeypatch.setattr(solver, "solver_objective",
                        lambda *a: calls.append(a) or solver_objective(*a))
    with pytest.raises(DivergingEnergyError, match="subcritical charge ratio") as excinfo:
        solve(bg, SolverConfig(L=30.0, N=1201, max_iter=50))
    assert excinfo.value.history == []
    assert calls == []


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
def test_a_non_finite_start_is_rejected(solve):
    cfg = SolverConfig(L=12.0, N=241)
    u0 = Samples(Grid(cfg.L, cfg.N), np.full(cfg.N, np.nan))
    with pytest.raises(ValueError, match="cannot normalize"):
        solve(PointCharge(2.0), cfg, u0=u0)


@pytest.mark.parametrize("z", [1.0, 2.0, 6.0])
def test_scf_iterations_at_point_charges(z):
    # Anderson mixing takes 5-12 passes here, damped mixing alone 16-21
    state = scf_solve(PointCharge(z), SolverConfig(L=30.0, N=6001))
    assert state.iterations <= 14


def test_gradient_iterations_at_the_neutral_charge():
    # 9 iterations with the metric's shift a quarter below lambda_1 (12 with it at min V0 - 1/4)
    state = gradient_solve(PointCharge(1.0), SolverConfig(L=30.0, N=6001))
    assert state.converged and state.iterations <= 10


@pytest.mark.parametrize("z", [1.0, 1.2, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0])
def test_gradient_iterations_do_not_grow_with_the_charge(z):
    # the metric holds the start's potential, which grows like (z - 1)|x| / 2:
    # 9, 7, 6, 6, 6, 6, 5 and 5 iterations from z = 1 to 6
    state = gradient_solve(PointCharge(z), SolverConfig(L=30.0, N=3001))
    assert state.iterations <= 10


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


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("the gradient solver called ground_eigenpair")


def _spy_on_metric_grids(monkeypatch) -> list:
    """The node count of the grid of every factor of H - sigma ``solver`` asks for."""
    grids = []
    factor = solver._hamiltonian_factor

    def spy(vv, grid, sigma):
        grids.append(grid.N)
        return factor(vv, grid, sigma)

    monkeypatch.setattr(solver, "_hamiltonian_factor", spy)
    return grids


@pytest.mark.parametrize("z", [1.0, 2.0, 6.0])
def test_a_cold_gradient_solve_factors_its_metric_a_few_times(z, monkeypatch):
    # The bracket (min V0, ray_0] is 0.7-2.1 wide from the default start, and
    # bisecting it to width 1/8 takes 3-5 factors, the metric's own one more
    # (4-6 on the gd-point inputs); no eigenpair is computed.
    monkeypatch.setattr(solver, "ground_eigenpair", _no_eigensolve)
    grids = _spy_on_metric_grids(monkeypatch)
    gradient_solve(PointCharge(z), SolverConfig(L=30.0, N=6001))
    assert 1 <= len(grids) <= 6


@pytest.mark.parametrize("background", ["point", "wells"])
def test_a_nested_start_factors_the_fine_metric_once(background, monkeypatch):
    # The extrapolated start's residual is far below s / 2, so its quotient
    # less that residual bounds lambda_1 from below, and the fine metric
    # needs no bisection; the coarse levels bisect on their own grids.
    cfg = SolverConfig(L=30.0, N=60001)
    bg = PointCharge(2.0) if background == "point" else _two_wells(Grid(cfg.L, cfg.N), 1.8)
    fine = 30001 if background == "point" else 60001  # a point charge's half grid
    monkeypatch.setattr(solver, "ground_eigenpair", _no_eigensolve)
    grids = _spy_on_metric_grids(monkeypatch)
    gradient_solve(bg, cfg)
    assert grids.count(fine) == 1 and grids[-1] == fine


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # tail mass on the huge grid
@pytest.mark.parametrize("L", [1e-100, 1e100])
def test_the_metric_takes_a_bounded_number_of_factors_on_any_grid(L, monkeypatch):
    # Where s = 1/4 is below sqrt(eps_mach) of the bracket, 1/h^2 ~ 1e204
    # at L = 1e-100, the shift's distance is that fraction of the bracket:
    # at most 28 bisection steps, a refused try from a good start and the
    # metric's own factor
    grids = _spy_on_metric_grids(monkeypatch)
    with contextlib.suppress(MaxIterExceededError):
        gradient_solve(PointCharge(2.0), SolverConfig(L=L, N=243, max_iter=50))
    assert 1 <= len(grids) <= 30


@settings(max_examples=40, deadline=None, database=None)
@given(descent_problems())
def test_the_metric_shift_lies_a_quarter_to_three_eighths_below_lambda_1(problem):
    # sigma = lambda_lower - s with lambda_1 - lambda_lower in [0, s / 2]; the
    # reference lambda_1 is the certified eigensolve of the start's V0,
    # whose 2 tol is below 1e-10 here
    bg, cfg = problem
    metric = []
    factor = solver._hamiltonian_factor

    def spy(vv, grid, sigma):
        metric[:] = [vv, grid, sigma]  # the last factor a solve asks for is P's
        return factor(vv, grid, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_hamiltonian_factor", spy)
        with pytest.raises(MaxIterExceededError):  # the metric is factored before the first iterate
            gradient_solve(bg, dataclasses.replace(cfg, max_iter=1))
    vv, grid, sigma = metric
    lam = ground_eigenpair(Samples(grid, vv))[0]
    s = solver._SOBOLEV_SHIFT
    assert s - 1e-9 <= lam - sigma <= 1.5 * s + 1e-9


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
    # the residual the stopping rule read, not one rebuilt after the solve:
    # on a sampled background's grid el_residual rebuilds the same V and
    # the same bits.  A point charge's residual was read on the half grid,
    # whose V and sums round differently: within 4 eps_mach (4/h^2 + max |V|)
    cfg = SolverConfig(L=12.0, N=241)
    g = Grid(cfg.L, cfg.N)
    for z in (2.0, 3.0):
        for solve in (scf_solve, gradient_solve):
            bg = mirrored_wells(g, z, 0.4, 0.8)
            state = solve(bg, cfg)
            assert state.residual == el_residual(state.u, state.epsilon, bg)
            assert state.residual <= cfg.tol_residual
            bg = PointCharge(z)
            state = solve(bg, cfg)
            v = effective_potential(state.u, bg).values
            bound = 4.0 * np.finfo(float).eps * (4.0 / g.h**2 + np.max(np.abs(v)))
            assert abs(state.residual - el_residual(state.u, state.epsilon, bg)) <= bound
            assert state.residual <= cfg.tol_residual


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # tail mass at z = 1, L = 12
@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@pytest.mark.parametrize("z", [1.0, 2.0])
@pytest.mark.parametrize("start", ["odd", "negative"])
def test_a_start_of_any_sign_reaches_the_ground_state(solve, z, start):
    # Symmetry would keep the gradient flow from an odd start odd, on the
    # excited state at objective 1.81910 for z = 2 (the ground state's is
    # 0.757834), and a negative start would end at u <= 0: both start from |u0|
    cfg = SolverConfig(L=12.0, N=241)
    g = Grid(cfg.L, cfg.N)
    bg = PointCharge(z)
    ref = solve(bg, cfg)
    u0 = g.x * np.exp(-g.x**2) if start == "odd" else -np.exp(-0.5 * g.x**2)
    state = solve(bg, cfg, u0=Samples(g, u0))
    assert abs(state.objective - ref.objective) <= 1e-14
    assert np.all(state.u.values >= 0.0)
    assert state.residual <= cfg.tol_residual


def test_a_stalled_line_search_carries_the_iterates_accepted_before_it(monkeypatch):
    # the gradient solver's start is its first iterate, and each later one
    # comes from one _descend: a stall at the third call follows three
    with pytest.raises(MaxIterExceededError) as ref:
        gradient_solve(PointCharge(2.0), SolverConfig(L=12.0, N=241, max_iter=3))
    calls = []

    def descend(*args):
        calls.append(args)
        if len(calls) == 3:
            raise LineSearchStalledError("stalled on purpose")
        return _descend(*args)

    monkeypatch.setattr(solver, "_descend", descend)
    with pytest.raises(LineSearchStalledError, match="stalled on purpose") as excinfo:
        gradient_solve(PointCharge(2.0), SolverConfig(L=12.0, N=241))
    assert len(excinfo.value.history) == 3 and excinfo.value.history == ref.value.history
    assert all(type(v) is float for entry in excinfo.value.history for v in entry)


def test_an_uncertified_eigensolve_stops_the_scf_solve(monkeypatch):
    # one inverse-iteration step cannot certify the first pass's eigenpair
    with monkeypatch.context() as m:
        m.setattr(solver, "_EIGEN_MAX_STEPS", 1)
        with pytest.raises(NoConvergenceError, match="uncertified after 1 steps") as excinfo:
            scf_solve(PointCharge(2.0), SolverConfig(L=12.0, N=241))
    assert excinfo.value.history == []
    # each SCF pass makes one eigensolve: a failure in the third follows two iterates
    with pytest.raises(MaxIterExceededError) as ref:
        scf_solve(PointCharge(2.0), SolverConfig(L=12.0, N=241, max_iter=2))
    calls = []

    def eigenpair(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise NoConvergenceError("uncertified on purpose")
        return ground_eigenpair(*args, **kwargs)

    monkeypatch.setattr(solver, "ground_eigenpair", eigenpair)
    with pytest.raises(NoConvergenceError, match="uncertified on purpose") as excinfo:
        scf_solve(PointCharge(2.0), SolverConfig(L=12.0, N=241))
    assert len(excinfo.value.history) == 2 and excinfo.value.history == ref.value.history
    assert all(type(v) is float for entry in excinfo.value.history for v in entry)


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
    # a float or NaN count once passed here and failed in the solve, inside islice
    # True is an Integral, and ran a one-iteration solve
    for value in (0, 2.5, np.nan, True, False):
        with pytest.raises(ValueError, match=rf"^max_iter must be an integer of at least 1, got {value!r}$"):
            SolverConfig(max_iter=value)
    with pytest.raises(MaxIterExceededError, match="in 3 iterations"):
        scf_solve(PointCharge(2.0), SolverConfig(L=12.0, N=241, max_iter=np.int64(3)))


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


# -- the coarse start --------------------------------------------------------


def test_prolongation_keeps_the_coarse_values_and_fits_a_smooth_gaussian():
    coarse, fine = Grid(30.0, 6001), Grid(30.0, 60001)
    gauss = np.exp(-0.5 * ((coarse.x - 0.3) / 0.9) ** 2)
    gauss[0] = gauss[-1] = 0.0
    fine_values = solver._prolong(Samples(coarse, gauss), fine).values
    assert np.array_equal(fine_values[::10], gauss)
    assert fine_values[0] == fine_values[-1] == 0.0
    assert np.max(np.abs(fine_values - np.exp(-0.5 * ((fine.x - 0.3) / 0.9) ** 2))) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(cells=st.integers(2, 40), L=st.floats(0.5, 40.0), stride=st.sampled_from([4, 10, 40]),
       seed=st.integers(0, 2**32 - 1))
def test_prolongation_keeps_any_coarse_values_bit_for_bit(cells, L, stride, seed):
    # the strides of the nested start: far to near, near to fine, far to fine
    coarse, fine = Grid(L, 2 * cells + 1), Grid(L, 2 * stride * cells + 1)
    values = np.random.default_rng(seed).normal(size=coarse.N)
    values[0] = values[-1] = 0.0
    fine_values = solver._prolong(Samples(coarse, values), fine).values
    assert np.array_equal(fine_values[::stride], values)
    assert fine_values[0] == fine_values[-1] == 0.0


@settings(max_examples=30, deadline=None)
@given(cells=st.integers(2, 40), L=st.floats(0.5, 40.0),
       strides=st.tuples(st.integers(2, 12), st.integers(2, 12)), seed=st.integers(0, 2**32 - 1))
@example(cells=150, L=30.0, strides=(4, 10), seed=0)  # the nested start at N = 60001
def test_prolongation_composes_on_nested_grids(cells, L, strides, seed):
    # The coarse spline is a natural cubic spline on every grid nested in its
    # own, so prolonging through a middle grid gives the same spline: the
    # nested start extrapolates on the tenth-node grid and prolongs once
    first, second = strides
    coarse, mid = Grid(L, 2 * cells + 1), Grid(L, 2 * first * cells + 1)
    fine = Grid(L, 2 * first * second * cells + 1)
    values = np.random.default_rng(seed).normal(size=coarse.N)
    values[0] = values[-1] = 0.0
    u = Samples(coarse, values)
    twice = solver._prolong(solver._prolong(u, mid), fine).values
    assert np.max(np.abs(twice - solver._prolong(u, fine).values)) <= 1e-15 * np.max(np.abs(values))


def _two_wells(g: Grid, charge: float) -> SampledCharge:
    wells = np.exp(-0.5 * ((g.x + 1.0) / 0.8) ** 2) + 0.7 * np.exp(-0.5 * ((g.x - 1.2) / 0.6) ** 2)
    return SampledCharge(Samples(g, wells * (-charge / np.dot(g.weights, wells))))


def _spy_on_grids(monkeypatch) -> list:
    """The node count of every grid ``solver._converge`` iterates on, in call order."""
    grids = []
    converge = solver._converge

    def spy(name, iterates, bg, cfg, u0):
        grids.append(cfg.N)
        return converge(name, iterates, bg, cfg, u0)

    monkeypatch.setattr(solver, "_converge", spy)
    return grids


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@pytest.mark.parametrize("background", ["point", "wells"])
def test_a_coarse_start_reaches_the_cold_start_objective(solve, background, monkeypatch):
    # From the extrapolated pair of coarse states SCF takes 1 fine pass where
    # the cold start takes 6 (point) and 8 (wells), the gradient solver 2
    # where it takes 10 and 8, to the same minimizer
    cfg = SolverConfig(L=30.0, N=60001)
    g = Grid(cfg.L, cfg.N)
    bg = PointCharge(2.0) if background == "point" else _two_wells(g, 1.8)
    cold = solve(bg, cfg, u0=default_initial_guess(bg, g))
    grids = _spy_on_grids(monkeypatch)
    state = solve(bg, cfg)
    assert grids == [60001, 1501, 6001]
    assert abs(state.objective - cold.objective) <= 1e-13
    assert state.iterations == len(state.history) < cold.iterations
    assert state.residual <= cfg.tol_residual


@pytest.mark.parametrize("solve,passes", [(scf_solve, 1), (gradient_solve, 2)])
@pytest.mark.parametrize("background", ["seeded", "wells", "z1", "z2"])
def test_a_nested_warm_start_needs_one_fine_scf_pass(solve, passes, background):
    # Richardson's extrapolation of the 40th-node and tenth-node states
    # removes the tenth-node state's O(H^2) error, and SCF's first pass takes
    # the whole step to the eigenvector: its residual is then below
    # tol_residual.  The same counts hold with one BLAS thread and with two.
    cfg = SolverConfig(L=30.0, N=60001)
    g = Grid(cfg.L, cfg.N)
    bg = {"seeded": _seeded_two_wells(g, 101), "wells": _two_wells(g, 1.8),
          "z1": PointCharge(1.0), "z2": PointCharge(2.0)}[background]
    state = solve(bg, cfg)
    assert state.iterations <= passes
    assert state.residual <= cfg.tol_residual
    cold = solve(bg, cfg, u0=default_initial_guess(bg, g))
    assert abs(state.objective - cold.objective) <= 1e-13


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
def test_a_coarse_start_takes_tails_at_the_positive_limit(solve, monkeypatch):
    # SampledCharge admits values up to 1e-12, and the coarse background's
    # hat-weighted averages of such a tail round to 1.0000000000000002e-12
    cfg = SolverConfig(L=30.0, N=60001)
    g = Grid(cfg.L, cfg.N)
    rho = -2.0 * np.exp(-0.5 * g.x**2) / np.sqrt(2.0 * np.pi)
    rho[np.abs(g.x) > 20.0] = 1e-12
    bg = SampledCharge(Samples(g, rho))
    cold = solve(bg, cfg, u0=default_initial_guess(bg, g))
    grids = _spy_on_grids(monkeypatch)
    state = solve(bg, cfg)
    assert grids == [60001, 1501, 6001]
    assert abs(state.objective - cold.objective) <= 1e-13


@pytest.mark.parametrize("background", ["wells", "z2"])
def test_the_nested_start_is_the_extrapolation_of_the_two_coarse_states(background, monkeypatch):
    # taken on the tenth-node grid and prolonged once, it equals the
    # fine-grid form |P u_near + c (P u_near - P u_far)| to rounding
    cfg = SolverConfig(L=30.0, N=60001)
    g = Grid(cfg.L, cfg.N)
    bg = _two_wells(g, 1.8) if background == "wells" else PointCharge(2.0)
    states, starts = {}, []
    converge, coarse_start = solver._converge, solver._coarse_start

    def spy(name, iterates, bg, cfg, u0):
        state = converge(name, iterates, bg, cfg, u0)
        states[cfg.N] = Samples(state.u.grid, state.u.values.copy())  # before the extrapolation
        return state

    monkeypatch.setattr(solver, "_converge", spy)
    monkeypatch.setattr(solver, "_coarse_start",
                        lambda *args: starts.append(coarse_start(*args)) or starts[-1])
    scf_solve(bg, cfg)
    start, = (s for s in starts if s is not None)
    far, near = states[1501].grid, states[6001].grid
    c = (near.h**2 - g.h**2) / (far.h**2 - near.h**2)
    p_near, p_far = (solver._prolong(states[n], g).values for n in (6001, 1501))
    assert np.max(np.abs(np.abs(start.values) - np.abs(p_near + c * (p_near - p_far)))) <= 1e-15


def _reachable_arrays(obj) -> dict:
    """id -> array for every array reachable from obj through dataclass
    fields, lists and tuples, bases of views included."""
    found = {}
    if isinstance(obj, np.ndarray):
        while obj is not None:
            found[id(obj)] = obj
            obj = obj.base
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            found.update(_reachable_arrays(getattr(obj, f.name)))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            found.update(_reachable_arrays(item))
    else:
        assert isinstance(obj, (float, int)), type(obj)
    return found


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@pytest.mark.parametrize("N", [6001, 60001])
@pytest.mark.parametrize("background", ["point", "wells"])
def test_a_returned_state_holds_only_u_and_v_on_one_grid(solve, N, background):
    # N = 60001 takes the coarse start; a sampled background's state lives
    # on the background's own grid, a point charge's on one grid of its own.
    # V is not held: effective_potential(state.u, bg) rebuilds it
    cfg = SolverConfig(L=30.0, N=N)
    bg = PointCharge(2.0) if background == "point" else _two_wells(Grid(cfg.L, cfg.N), 1.8)
    state = solve(bg, cfg)
    g = state.u.grid
    if background == "wells":
        assert g is bg.rho.grid
    kept = {id(a) for a in (state.u.values, g.x, g.weights)}
    assert set(_reachable_arrays(state)) == kept


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@pytest.mark.parametrize("N", [6001, 60001])
def test_the_returned_u_is_the_accepted_candidates_and_rebuilds_its_v(solve, N, monkeypatch):
    # The accepted candidate is the one whose energy the driver reports,
    # just before its u moves into its V buffer; at N = 60001 the accepted
    # candidates of the two coarse levels come first
    accepted = []
    energy = solver.candidate_energy

    def spy(c, background_const):
        accepted.append((c.u.values.copy(), c.V.values.copy(), c))
        return energy(c, background_const)

    monkeypatch.setattr(solver, "candidate_energy", spy)
    cfg = SolverConfig(L=30.0, N=N)
    bg = _two_wells(Grid(cfg.L, cfg.N), 1.8)
    state = solve(bg, cfg)
    assert len(accepted) == (3 if N == 60001 else 1)
    u, v, c = accepted[-1]
    assert state.u.values.tobytes() == u.tobytes()
    assert effective_potential(state.u, bg).values.tobytes() == v.tobytes()
    # and its numbers, bit for bit
    assert (state.objective, state.epsilon, state.energy.kinetic, state.energy.coulomb) == (
        c.objective, c.ray, c.kinetic, c.coulomb)


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@pytest.mark.parametrize("N", [6001, 60001])
@pytest.mark.parametrize("z", [1.0, 2.0, 6.0])
def test_a_point_charge_state_is_its_half_axis_iterate_mirrored(solve, N, z, monkeypatch):
    # The accepted candidate lives on the half grid x >= 0; the state's u is
    # it mirrored, even bit for bit, with its numbers.  V rebuilt on the full
    # grid rounds otherwise: within 1e-12, where V's electron part reaches 15
    accepted = []
    energy = solver.candidate_energy

    def spy(c, background_const):
        accepted.append((c.u.values.copy(), c.V.values.copy(), c))
        return energy(c, background_const)

    monkeypatch.setattr(solver, "candidate_energy", spy)
    bg = PointCharge(z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # tail mass at z = 1
        state = solve(bg, SolverConfig(L=30.0, N=N))
    u, v, c = accepted[-1]
    mid = state.u.grid.center_index
    assert c.u.grid.N == mid + 1 and np.array_equal(c.u.grid.x, state.u.grid.x[mid:])
    assert state.u.values[mid:].tobytes() == u.tobytes()
    assert np.array_equal(state.u.values, state.u.values[::-1])
    assert np.max(np.abs(effective_potential(state.u, bg).values[mid:] - v)) <= 1e-12
    assert (state.objective, state.epsilon, state.energy.kinetic, state.energy.coulomb) == (
        c.objective, c.ray, c.kinetic, c.coulomb)


def _traced_peak(solve, bg, cfg: SolverConfig) -> float:
    """One solve's traced peak above its inputs, in N-vectors of 8 N bytes."""
    solve(bg, SolverConfig(L=cfg.L, N=241) if isinstance(bg, PointCharge) else cfg)  # warm
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        solve(bg, cfg)
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * cfg.N)
    finally:
        tracemalloc.stop()


def _seeded_two_wells(g: Grid, seed: int) -> SampledCharge:
    rng = np.random.default_rng(seed)
    wells = sum(rng.uniform(0.5, 1.0) * np.exp(-0.5 * ((g.x - rng.uniform(-1.5, 1.5))
                                                      / rng.uniform(0.5, 1.5)) ** 2)
                for _ in range(2))
    return SampledCharge(Samples(g, wells * (-rng.uniform(1.6, 3.0) / np.dot(g.weights, wells))))


@pytest.mark.parametrize("solve,background,budget", [
    (scf_solve, "wells", 9), (scf_solve, "point", 7), (gradient_solve, "point", 9.5)])
def test_a_fine_solve_holds_a_bounded_working_set(solve, background, budget):
    # Each budget is the measured peak in N-vectors (0.48 MB each here), and
    # the bound one vector more.  From the nested start SCF makes one fine
    # pass, whose peak is its eigensolve: the iterate's u and V, V_bg and the
    # eigensolve's six; it forms the iterate's u^2 after the eigensolve.  The
    # gradient solver holds the iterate and the trial (u and V each), V_bg,
    # the factor of its metric, both gradients and directions, and the
    # step's three: 14.  A point charge's solve holds them on its half grid,
    # whose vectors are half as long (9 and 14 of them make 4.5 and 7),
    # beside the full grid's x and weights and the half grid's weights.  On
    # the wells a candidate that keeps its u^2 peaks at 10, a solve that
    # keeps its start candidate at 10, and an SCF history allocated at full
    # depth at 19.
    cfg = SolverConfig(L=30.0, N=60001)
    g = Grid(cfg.L, cfg.N)
    bg = PointCharge(2.0) if background == "point" else _seeded_two_wells(g, 101)
    assert _traced_peak(solve, bg, cfg) <= budget + 1


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
@pytest.mark.parametrize("L,N", [(30.0, 6001), (30.0, 20001), (15.0, 3001), (30.0, 60003),
                                 (30.0, 60021)])
def test_no_coarse_solve_where_the_rule_does_not_hold(solve, L, N, monkeypatch):
    # a tenth-node spacing above 0.01 (the first three) or N - 1 not a
    # multiple of 20 (the fourth) keeps the default start, so the default
    # mesh's outputs are unchanged; N - 1 not a multiple of 80 (the last)
    # has no 40th-node level and starts from the tenth-node solve alone,
    # prolonged once
    grids = _spy_on_grids(monkeypatch)
    prolonged = []
    prolong = solver._prolong
    monkeypatch.setattr(solver, "_prolong",
                        lambda u, fine: prolonged.append(u.grid.N) or prolong(u, fine))
    solve(PointCharge(2.0), SolverConfig(L=L, N=N))
    assert grids == ([N, 6003] if N == 60021 else [N])
    assert prolonged == ([6003] if N == 60021 else [])


def test_a_well_narrower_than_the_coarse_spacing_keeps_its_charge(monkeypatch):
    # Width 0.002 between two coarse nodes: sampling every tenth node would
    # keep about a third of its charge, and the coarse solve would meet a
    # subcritical background; the hat weights keep z = 1 to rounding on
    # both coarse levels
    cfg = SolverConfig(L=30.0, N=60001)
    g = Grid(cfg.L, cfg.N)
    well = np.exp(-0.5 * ((g.x - 0.0048) / 0.002) ** 2)
    bg = SampledCharge(Samples(g, -well / np.dot(g.weights, well)))
    assert integrate(Samples(Grid(cfg.L, 6001), bg.rho.values[::10])) > -0.5
    for coarse in (Grid(cfg.L, 6001), Grid(cfg.L, 1501)):
        assert abs(total_charge(solver._restrict(bg, coarse)) - total_charge(bg)) <= 1e-15
    prolonged = []
    prolong = solver._prolong
    monkeypatch.setattr(solver, "_prolong", lambda u, fine: prolonged.append(u) or prolong(u, fine))
    state = scf_solve(bg, cfg)
    # both coarse solves converged: far to near, then the extrapolated near state to the fine grid
    assert [u.grid.N for u in prolonged] == [1501, 6001]
    assert state.residual <= cfg.tol_residual


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
def test_a_failed_coarse_solve_falls_back_to_the_default_start(solve, monkeypatch):
    cfg = SolverConfig(L=30.0, N=60001, max_iter=1)
    g = Grid(cfg.L, cfg.N)
    bg = _two_wells(g, 1.8)
    with pytest.raises(MaxIterExceededError) as cold:
        solve(bg, cfg, u0=default_initial_guess(bg, g))
    grids = _spy_on_grids(monkeypatch)
    with pytest.raises(MaxIterExceededError, match="in 1 iterations") as excinfo:
        solve(bg, cfg)
    assert grids == [60001, 1501]
    # a supplied start is normalized once more, so the bits may differ
    assert len(excinfo.value.history) == 1
    assert excinfo.value.history[0] == pytest.approx(cold.value.history[0], rel=1e-13)


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
def test_only_the_returned_state_warns_of_tail_mass(solve, monkeypatch):
    # every grid carries tail mass at z = 1 on L = 8; the coarse ones (N = 401
    # and 1601) stay silent, and the one warning names the line that called
    # the solver
    grids = _spy_on_grids(monkeypatch)
    with pytest.warns(RuntimeWarning, match="tail mass") as record:
        line = inspect.currentframe().f_lineno + 1
        solve(PointCharge(1.0), SolverConfig(L=8.0, N=16001, tol_residual=1e-6))
    assert grids == [16001, 401, 1601]
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]


def test_every_scf_eigensolve_starts_from_the_iterate_it_diagonalizes(monkeypatch):
    # one start rule on every grid: the first fine pass after the coarse
    # start starts from the extrapolated state, not from the box ground state
    live = weakref.WeakValueDictionary()  # id(candidate.V) -> candidate
    calls = []
    objective, eigenpair = solver.solver_objective, solver.ground_eigenpair

    def record(u, v_bg):
        c = objective(u, v_bg)
        live[id(c.V)] = c
        return c

    def spy(V, start=None, **known):
        c = live[id(V)]
        assert c.V is V
        calls.append((V.grid.N, start is not None and np.array_equal(start.values, c.u.values)))
        return eigenpair(V, start, **known)

    monkeypatch.setattr(solver, "solver_objective", record)
    monkeypatch.setattr(solver, "ground_eigenpair", spy)
    cfg = SolverConfig(L=30.0, N=60001)
    scf_solve(_two_wells(Grid(cfg.L, cfg.N), 1.8), cfg)
    assert [n for n, _ in calls].index(60001) > 0  # the coarse solve ran first
    assert all(same for _, same in calls)


@pytest.mark.parametrize("solve", [scf_solve, gradient_solve])
def test_a_start_on_another_mesh_is_refused(solve):
    # the rule every other mesh mismatch follows (the background, the eigensolve's start)
    with pytest.raises(GridMismatchError, match="mesh mismatch"):
        solve(PointCharge(2.0), SolverConfig(L=12.0, N=241),
              u0=default_initial_guess(PointCharge(2.0), Grid(12.0, 243)))


def test_a_background_on_another_mesh_is_refused_before_a_coarse_solve(monkeypatch):
    grids = _spy_on_grids(monkeypatch)
    with pytest.raises(GridMismatchError):
        scf_solve(_two_wells(Grid(30.0, 6001), 1.8), SolverConfig(L=30.0, N=60001))
    assert grids == [60001]
