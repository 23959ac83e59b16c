import numpy as np
import pytest

from coulombium import (
    CPlusForm,
    Grid,
    NonZeroMeanError,
    NormalizationWarning,
    Samples,
    b_form,
    b_norm,
    c_functional,
    c_plus,
    coulomb_pair_energy,
    dense_c_functional,
    dense_c_plus,
    dense_coulomb_pair_energy,
    dense_potential_from_density,
    g_kernel,
    integrate,
    kinetic_energy,
    min_kernel,
    neg_kernel_inner_product,
    potential_from_density,
    reflect,
    reflected_half_sum,
)
from coulombium.verify import random_density, random_zero_mean_compact


def _rel(a, b, scale=None):
    return abs(a - b) / max(abs(b) if scale is None else scale, 1e-300)


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

def test_c_plus_zero_for_all_forms():
    g = Grid(2.0, 41)
    f = Samples(g, np.zeros(g.N))
    for form in CPlusForm:
        assert c_plus(f, form) == 0.0


def test_c_plus_accepts_form_names():
    g = Grid(2.0, 41)
    f = Samples(g, np.ones(g.N))
    assert c_plus(f, "A") == pytest.approx(c_plus(f, CPlusForm.A), abs=0)


def test_four_forms_agree():
    rng = np.random.default_rng(4)
    g = Grid(10.0, 401)
    for _ in range(25):
        f = random_density(g, rng)
        vals = [c_plus(f, form) for form in CPlusForm]
        assert (max(vals) - min(vals)) / max(abs(v) for v in vals) < 1e-9


def test_form_c_indicator_third():
    # int_0^1 (1 - z)^2 dz = 1/3 for the unit-height indicator of [0, 1];
    # the jump at 1 limits quadrature accuracy to O(h)
    g = Grid(2.0, 801)
    f = Samples(g, np.where((g.x >= 0) & (g.x <= 1.0), 1.0, 0.0))
    assert c_plus(f, CPlusForm.C) == pytest.approx(1.0 / 3.0, abs=2 * g.h)


def test_c_plus_positivity_and_nondegeneracy():
    g = Grid(3.0, 121)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = Samples(g, rng.standard_normal(g.N))  # positivity holds for signed f too
        assert c_plus(f, CPlusForm.C) >= 0.0
    # zero iff no mass at nodes with positive |x|
    origin_only = np.zeros(g.N)
    origin_only[g.center_index] = 4.0
    assert c_plus(Samples(g, origin_only), CPlusForm.C) == 0.0
    one_node = np.zeros(g.N)
    one_node[g.center_index + 5] = 1e-3
    assert c_plus(Samples(g, one_node), CPlusForm.C) > 0.0


def test_c_plus_ignores_negative_axis():
    rng = np.random.default_rng(6)
    g = Grid(4.0, 161)
    f = random_density(g, rng)
    modified = f.values.copy()
    modified[: g.center_index] = 9.9
    assert c_plus(Samples(g, modified)) == c_plus(f)


def test_c_plus_matches_dense():
    rng = np.random.default_rng(7)
    g = Grid(8.0, 401)
    f = random_density(g, rng)
    assert _rel(c_plus(f, CPlusForm.C), dense_c_plus(f)) < 1e-12


# --- c_functional ----------------------------------------------------------

def test_c_functional_zero():
    g = Grid(2.0, 41)
    assert c_functional(Samples(g, np.zeros(g.N)), 2.0, warn_unnormalized=False) == 0.0


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


def test_decoupling_identity_general():
    rng = np.random.default_rng(8)
    g = Grid(5.0, 201)
    f = random_density(g, rng, normalized=True)
    total = c_plus(f) + c_plus(reflect(f))
    assert reflected_half_sum(f) == pytest.approx(total, abs=0)
    assert c_functional(f, 1.0) == pytest.approx(total, rel=1e-12)


def test_c_functional_matches_dense():
    rng = np.random.default_rng(9)
    g = Grid(7.0, 201)
    f = random_density(g, rng, normalized=True)
    assert _rel(c_functional(f, 2.0), dense_c_functional(f, 2.0)) < 1e-10


def test_c_functional_upper_bound_by_first_moment():
    rng = np.random.default_rng(10)
    g = Grid(6.0, 241)
    for _ in range(20):
        f = random_density(g, rng, normalized=True)
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


def test_inner_product_equals_dirichlet_form():
    # <f, f> = 2 int u'^2 with -u'' = f; exact discretely for compact f
    rng = np.random.default_rng(15)
    g = Grid(10.0, 401)
    for _ in range(20):
        f = random_zero_mean_compact(g, rng)
        ip = neg_kernel_inner_product(f, f)
        u = potential_from_density(f)
        assert _rel(ip, 2.0 * kinetic_energy(u)) < 1e-6
