import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulombium import (
    Grid,
    NegativeInputError,
    NonZeroMeanError,
    NormalizationWarning,
    NotNormalizedError,
    PointCharge,
    SampledCharge,
    Samples,
    SolverConfig,
    b_form,
    b_norm,
    c_functional,
    c_plus,
    coulomb_pair_energy,
    integrate,
    kinetic_energy,
    neg_kernel_inner_product,
    potential_from_density,
    scf_solve,
    symmetric_decreasing_rearrangement,
    total_energy,
)
from coulombium import kernel, verify
from coulombium.verify import random_density, random_zero_mean_compact
from oracles import (c_plus_by_dots, dense_c_functional, dense_c_plus, dense_coulomb_pair_energy,
                     dense_potential_from_density, g_kernel, min_kernel, random_unit_density)


def _rel(a, b, scale=None):
    return abs(a - b) / max(abs(b) if scale is None else scale, 1e-300)


# odd N in [3, 801], L in [0.5, 40] and a seed for the random samples
_ODD_GRIDS = dict(half=st.integers(1, 400), L=st.floats(0.5, 40.0),
                  seed=st.integers(0, 2**32 - 1))


# --- potential -------------------------------------------------------------

def test_potential_of_point_mass_is_cone():
    # a single-node mass -z/w at the origin generates exactly (z/2)|x|
    g = Grid(5.0, 201)
    z = 1.7
    vals = np.zeros(g.N)
    vals[g.center_index] = -z / g.weights[g.center_index]
    v = potential_from_density(Samples(g, vals))
    assert np.max(np.abs(v.values - 0.5 * z * np.abs(g.x))) < 1e-13


def test_potential_of_zero_density():
    g = Grid(3.0, 101)
    v = potential_from_density(Samples(g, np.zeros(g.N)))
    assert np.all(v.values == 0.0)


def test_potential_matches_dense():
    rng = np.random.default_rng(0)
    g = Grid(7.0, 201)
    f = Samples(g, rng.standard_normal(g.N))
    fast = potential_from_density(f).values
    dense = dense_potential_from_density(f).values
    assert np.max(np.abs(fast - dense)) / np.max(np.abs(dense)) < 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS, rows=st.integers(1, 4))
def test_potential_keeps_the_bits_of_its_expression_form(half, L, seed, rows):
    # the in-place evaluation folds the -1/2 into the two prefix-sum terms,
    # which halving keeps bit for bit on normal-range rows, so any other
    # reordering shows as a changed bit on random samples
    rng = np.random.default_rng(seed)
    g = Grid(L, 2 * half + 1)
    f = rng.standard_normal((rows, g.N)) * 10.0 ** rng.uniform(-3, 3, (rows, g.N))
    x, m = g.x, g.weights * f
    c0, c1 = np.cumsum(m, axis=-1), np.cumsum(m * x, axis=-1)
    expected = -0.5 * (x * (2.0 * c0 - c0[:, -1:]) + (c1[:, -1:] - 2.0 * c1))
    assert np.array_equal(kernel._potential_rows(m.copy(), x), expected)
    assert np.array_equal(potential_from_density(Samples(g, f[0])).values, expected[0])


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS, rows=st.integers(1, 9))
def test_potential_rows_match_one_row_results(half, L, seed, rows):
    # a block of rows gives each row the bits of the one-row call
    grid = Grid(L, 2 * half + 1)
    f = np.random.default_rng(seed).standard_normal((rows, grid.N))
    block = kernel._potential_rows(grid.weights * f, grid.x)
    for i in range(rows):
        assert np.array_equal(block[i], potential_from_density(Samples(grid, f[i])).values)
    dense = dense_potential_from_density(Samples(grid, f[0])).values
    assert np.max(np.abs(block[0] - dense)) <= 1e-12 * np.max(np.abs(dense))


# --- pair energy -----------------------------------------------------------

def test_pair_energy_zero_argument():
    g = Grid(4.0, 81)
    z = Samples(g, np.zeros(g.N))
    f = Samples(g, np.ones(g.N))
    assert coulomb_pair_energy(f, z) == 0.0
    assert coulomb_pair_energy(z, f) == 0.0


def test_pair_energy_symmetric():
    rng = np.random.default_rng(1)
    g = Grid(4.0, 161)
    f = Samples(g, rng.random(g.N))
    s = Samples(g, rng.random(g.N))
    assert coulomb_pair_energy(f, s) == pytest.approx(
        coulomb_pair_energy(s, f), rel=1e-13
    )


def test_pair_energy_matches_dense():
    rng = np.random.default_rng(2)
    g = Grid(6.0, 201)
    f = Samples(g, rng.standard_normal(g.N))
    s = Samples(g, rng.standard_normal(g.N))
    assert _rel(coulomb_pair_energy(f, s), dense_coulomb_pair_energy(f, s)) < 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS)
def test_pair_energy_matches_dense_on_odd_grids(half, L, seed):
    rng = np.random.default_rng(seed)
    g = Grid(L, 2 * half + 1)
    f = Samples(g, rng.standard_normal(g.N))
    s = Samples(g, rng.standard_normal(g.N))
    # signed samples cancel, so the error is measured against the absolute sum
    scale = -dense_coulomb_pair_energy(Samples(g, np.abs(f.values)), Samples(g, np.abs(s.values)))
    assert _rel(coulomb_pair_energy(f, s), dense_coulomb_pair_energy(f, s), scale) < 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS, shift=st.floats(-3.0, 3.0))
@example(half=200, L=8.0, seed=7, shift=0.0)
def test_pair_energy_is_the_field_energy_less_the_boundary_term(half, L, seed, shift):
    # int int -|x-y| n n = 2 int V'^2 - L (int n)^2 for V = potential_from_density(n):
    # summation by parts with V' = -+(int n)/2 at x = +-L, exact on the grid
    g = Grid(L, 2 * half + 1)
    n = Samples(g, np.random.default_rng(seed).standard_normal(g.N) + shift)
    pair, field = coulomb_pair_energy(n, n), 2.0 * kinetic_energy(potential_from_density(n))
    boundary = g.L * integrate(n) ** 2
    assert abs(pair - (field - boundary)) <= 1e-13 * max(abs(pair), field, boundary)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # tail mass at the neutral charge
def test_a_neutral_state_has_pair_energy_equal_to_its_field_energy():
    # free charge u^2 equals the fixed charge -rho, so the boundary term is 0
    g = Grid(30.0, 1201)
    rho = np.exp(-0.5 * ((g.x + 2.0) / 0.7) ** 2) + 0.6 * np.exp(-0.5 * (g.x - 3.0) ** 2)
    bg = SampledCharge(Samples(g, -rho / np.dot(g.weights, rho)))
    state = scf_solve(bg, SolverConfig(L=30.0, N=1201))
    n = Samples(g, state.u.values**2 + bg.rho.values)
    pair = coulomb_pair_energy(n, n)
    assert abs(pair - 2.0 * kinetic_energy(potential_from_density(n))) <= 1e-14
    assert pair > 0.1


# --- kernels ---------------------------------------------------------------

def test_min_kernel_branches():
    assert min_kernel(1.0, -2.0) == 0.0
    assert min_kernel(3.0, 2.0) == 2.0
    assert min_kernel(-3.0, -0.5) == 0.5
    assert min_kernel(0.0, 4.0) == 0.0


def test_g_kernel_reduces_to_min_kernel_at_unit_charge():
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, 200)
    y = rng.uniform(-5, 5, 200)
    assert np.max(np.abs(g_kernel(x, y, 1.0) - min_kernel(x, y))) < 1e-14


# --- c_plus ----------------------------------------------------------------

def _orders(f: Samples):
    """C+'s four orders of one density, through the ``verify forms`` kernel."""
    t, m = kernel._half_axis(f.values, f.grid)
    return [float(v) for v in verify._c_plus_forms(t, m, f.grid.h)]


def test_c_plus_zero_for_all_forms():
    g = Grid(2.0, 41)
    f = Samples(g, np.zeros(g.N))
    assert c_plus(f) == 0.0
    assert _orders(f) == [0.0] * 4


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS)
def test_four_forms_agree(half, L, seed):
    f = random_density(Grid(L, 2 * half + 1), np.random.default_rng(seed))
    vals = _orders(f)
    assert vals[2] == c_plus(f)  # order C is the production one
    assert (max(vals) - min(vals)) / max(abs(v) for v in vals) < 1e-9


def test_form_c_indicator_third():
    # int_0^1 (1 - z)^2 dz = 1/3 for the unit-height indicator of [0, 1];
    # the jump at 1 limits quadrature accuracy to O(h)
    g = Grid(2.0, 801)
    f = Samples(g, np.where((g.x >= 0) & (g.x <= 1.0), 1.0, 0.0))
    assert c_plus(f) == pytest.approx(1.0 / 3.0, abs=2 * g.h)


def test_c_plus_positivity_and_nondegeneracy():
    g = Grid(3.0, 121)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = Samples(g, rng.standard_normal(g.N))  # positivity holds for signed f too
        assert c_plus(f) >= 0.0
    # zero iff no mass at nodes with positive |x|
    origin_only = np.zeros(g.N)
    origin_only[g.center_index] = 4.0
    assert c_plus(Samples(g, origin_only)) == 0.0
    one_node = np.zeros(g.N)
    one_node[g.center_index + 5] = 1e-3
    assert c_plus(Samples(g, one_node)) > 0.0


def test_c_plus_ignores_negative_axis():
    rng = np.random.default_rng(6)
    g = Grid(4.0, 161)
    f = random_density(g, rng)
    modified = f.values.copy()
    modified[: g.center_index] = 9.9
    assert c_plus(Samples(g, modified)) == c_plus(f)


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS)
@example(half=200, L=8.0, seed=7)
def test_c_plus_matches_dense(half, L, seed):
    # the dense reference spans the closed half-axis with the origin's
    # weight halved, so it also holds that the origin adds nothing
    f = random_density(Grid(L, 2 * half + 1), np.random.default_rng(seed))
    dense = dense_c_plus(f)
    assert _rel(c_plus(f), dense) < 1e-12
    for value in _orders(f):
        assert _rel(value, dense) < 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS, rows=st.integers(1, 9))
def test_c_plus_rows_match_one_row_results(half, L, seed, rows):
    # every order gives each row of a block the bits of the loop reference,
    # and order C the bits of the one-row c_plus
    grid = Grid(L, 2 * half + 1)
    f = random_density(grid, np.random.default_rng(seed), rows=rows)
    t, m = kernel._half_axis(f, grid)
    block = verify._c_plus_forms(t, m, grid.h)
    for i in range(rows):
        assert [float(v[i]) for v in block] == c_plus_by_dots(f[i], grid)
        assert block[2][i] == c_plus(Samples(grid, f[i]))
    dense = dense_c_plus(Samples(grid, f[0]))
    for v in block:
        assert _rel(v[0], dense) < 1e-12


# --- c_functional ----------------------------------------------------------

def test_c_functional_zero():
    g = Grid(2.0, 41)
    with pytest.warns(NormalizationWarning):
        assert c_functional(Samples(g, np.zeros(g.N)), 2.0) == 0.0


def test_c_functional_warns_off_unit_mass():
    g = Grid(2.0, 81)
    f = Samples(g, np.full(g.N, 0.075))  # integral = 0.3
    with pytest.warns(NormalizationWarning):
        c_functional(f, 1.0)


def test_decoupling_one_sided_density():
    # at z=1 a density supported on x>0 interacts only through C+
    g = Grid(6.0, 241)
    vals = np.where(g.x > 0.5, np.exp(-((g.x - 2.0) ** 2)), 0.0)
    f = Samples(g, vals / integrate(Samples(g, vals)))
    assert c_functional(f, 1.0) == pytest.approx(c_plus(f), rel=1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS)
@example(half=100, L=5.0, seed=8)
def test_decoupling_identity_general(half, L, seed):
    # C+ and each half of the min-kernel form are one expression, so the
    # two half-axes add up to b[f, f], and at z = 1 to C[f], bit for bit
    g = Grid(L, 2 * half + 1)
    rng = np.random.default_rng(seed)
    f = Samples(g, rng.standard_normal(g.N))
    assert c_plus(f) + c_plus(f.with_values(f.values[::-1])) == b_form(f, f)
    u = random_unit_density(g, rng)
    assert c_plus(u) + c_plus(u.with_values(u.values[::-1])) == c_functional(u, 1.0)


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS)
def test_c_functional_matches_dense(half, L, seed):
    f = random_unit_density(Grid(L, 2 * half + 1), np.random.default_rng(seed))
    assert _rel(c_functional(f, 2.0), dense_c_functional(f, 2.0)) < 1e-10


def test_c_functional_upper_bound_by_first_moment():
    rng = np.random.default_rng(10)
    g = Grid(6.0, 241)
    for _ in range(20):
        f = random_unit_density(g, rng)
        m1 = float(np.dot(g.weights, np.abs(g.x) * f.values))
        assert c_functional(f, 1.0) <= m1 + 1e-10


# --- quartic norm ----------------------------------------------------------

def test_b_norm_zero():
    g = Grid(2.0, 41)
    assert b_norm(Samples(g, np.zeros(g.N))) == 0.0


def test_b_norm_homogeneity():
    rng = np.random.default_rng(11)
    g = Grid(5.0, 201)
    u = Samples(g, rng.standard_normal(g.N))
    bu = b_norm(u)
    for lam in (-2.0, 0.5, 3.0):
        assert b_norm(Samples(g, lam * u.values)) == pytest.approx(
            abs(lam) * bu, rel=1e-13
        )


def test_b_norm_triangle_inequality():
    rng = np.random.default_rng(12)
    g = Grid(5.0, 201)
    for _ in range(100):
        u = Samples(g, rng.standard_normal(g.N))
        v = Samples(g, rng.standard_normal(g.N))
        assert b_norm(Samples(g, u.values + v.values)) <= b_norm(u) + b_norm(v) + 1e-12


def test_bilinear_cauchy_schwarz():
    rng = np.random.default_rng(13)
    g = Grid(5.0, 201)
    for _ in range(100):
        usq = random_density(g, rng)
        vsq = random_density(g, rng)
        lhs = b_form(usq, vsq)
        assert lhs <= np.sqrt(b_form(usq, usq) * b_form(vsq, vsq)) + 1e-12


def test_uniform_convexity_inequality():
    rng = np.random.default_rng(14)
    g = Grid(5.0, 201)
    for _ in range(100):
        u = Samples(g, rng.standard_normal(g.N))
        v = Samples(g, rng.standard_normal(g.N))
        lhs = b_norm(Samples(g, u.values + v.values)) ** 4
        lhs += b_norm(Samples(g, u.values - v.values)) ** 4
        rhs = 4.0 * (b_norm(u) ** 2 + b_norm(v) ** 2) ** 2
        assert lhs <= rhs + 1e-10


def _b_form_by_dots(f, g, grid):
    """b[f, g] by one np.dot of suffix-sum views per half-axis: the loop reference."""
    acc = 0.0
    for a, b in ((f, g), (f[::-1], g[::-1])):  # x >= 0, then x <= 0 mirrored onto it
        sf, sg = (np.cumsum(kernel._half_axis(v, grid)[1][::-1])[::-1] for v in (a, b))
        acc += grid.h * float(np.dot(sf, sg))
    return acc


@settings(max_examples=60, deadline=None, database=None)
@given(**_ODD_GRIDS, rows=st.integers(1, 9))
def test_block_rows_match_one_row_results(half, L, seed, rows):
    # the suite's blocks must give each row the bits of the one-row calls,
    # and those the bits of the reference
    grid = Grid(L, 2 * half + 1)
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal((rows, grid.N)), rng.standard_normal((rows, grid.N))
    forms, self_forms = kernel._b_rows(f, g, grid), kernel._b_rows(f, f, grid)
    norms = kernel._quartic_root(kernel._b_rows(f * f, f * f, grid))
    for i in range(rows):
        fi, gi = Samples(grid, f[i]), Samples(grid, g[i])
        assert forms[i] == b_form(fi, gi) == _b_form_by_dots(f[i], g[i], grid)
        assert self_forms[i] == b_form(fi, fi)
        assert norms[i] == b_norm(fi)
    # and the fast form is the dense min-kernel double sum
    mf, mg = f[0] * grid.weights, g[0] * grid.weights
    kern = min_kernel(grid.x[:, None], grid.x[None, :])
    scale = np.abs(mf) @ kern @ np.abs(mg)
    assert abs(b_form(Samples(grid, f[0]), Samples(grid, g[0])) - mf @ kern @ mg) <= 1e-12 * scale


def test_bnorm_suite_fails_a_non_norm(monkeypatch):
    # the squared quartic norm is homogeneous of degree 2, not 1
    root = verify._quartic_root
    monkeypatch.setattr(verify, "_quartic_root", lambda b: root(b) ** 2)
    rep = verify.bnorm_suite(seed=0)
    assert not rep.passed
    assert rep.metrics["homogeneity_violations"] > 0
    assert rep.failures


# --- inner product ---------------------------------------------------------

def test_inner_product_dipole_positive():
    g = Grid(4.0, 161)
    vals = np.zeros(g.N)
    vals[40] = 1.0
    vals[120] = -1.0  # equal interior weights, zero mean
    f = Samples(g, vals)
    assert abs(integrate(f)) < 1e-15
    assert neg_kernel_inner_product(f, f) > 0.0


def test_inner_product_rejects_nonzero_mean():
    g = Grid(2.0, 81)
    f = Samples(g, np.full(g.N, 0.075))
    with pytest.raises(NonZeroMeanError):
        neg_kernel_inner_product(f, f)


@pytest.mark.parametrize("call, expect, kind, match", [
    (symmetric_decreasing_rearrangement, pytest.raises, NegativeInputError, "sample nan"),
    (lambda f: neg_kernel_inner_product(f, f), pytest.raises, NonZeroMeanError, "f is nan"),
    (lambda f: total_energy(f, PointCharge(1.0)), pytest.raises, NotNormalizedError, "is nan"),
    (lambda f: c_functional(f, 1.0), pytest.warns, NormalizationWarning, "= nan"),
], ids=["rearrangement", "zero_mean", "unit_mass", "c_functional_mass"])
def test_a_nan_sample_is_caught(call, expect, kind, match):
    # NaN compares false with every tolerance, so each guard is written "not (... <= tol)"
    f = random_unit_density(Grid(2.0, 81), np.random.default_rng(0))
    f.values[17] = np.nan
    with expect(kind, match=match):
        call(f)


def test_inner_product_equals_dirichlet_form():
    # <f, f> = 2 int u'^2 with -u'' = f; exact discretely for compact f
    rng = np.random.default_rng(15)
    g = Grid(10.0, 401)
    for _ in range(20):
        f = random_zero_mean_compact(g, rng)
        ip = neg_kernel_inner_product(f, f)
        u = potential_from_density(f)
        assert _rel(ip, 2.0 * kinetic_energy(u)) < 1e-13
