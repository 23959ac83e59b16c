import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulombium import (
    Grid,
    NegativeInputError,
    Samples,
    c_functional,
    from_function,
    integrate,
    kinetic_energy,
    moment,
    normalize,
    symmetric_decreasing_rearrangement,
)
from coulombium.rearrange import _rearrange_rows
from coulombium.verify import random_density
from oracles import double_rearrangement_check, hardy_littlewood_check, random_smooth


def test_fixed_point_exact():
    g = Grid(6.0, 241)
    f = from_function(g, lambda x: np.exp(-np.abs(x)))
    star = symmetric_decreasing_rearrangement(f)
    assert np.array_equal(star.values, f.values)


def test_indicator_block_recentered():
    g = Grid(4.0, 161)
    f = Samples(g, np.where((g.x >= 1.0) & (g.x <= 2.0), 1.0, 0.0))
    star = symmetric_decreasing_rearrangement(f)
    k = int(np.sum(f.values))  # number of unit samples
    # the block moves to the nodes of smallest |x|
    occupied = np.sort(np.argsort(np.abs(g.x), kind="stable")[:k])
    expect = np.zeros(g.N)
    expect[occupied] = 1.0
    assert np.array_equal(star.values, expect)


def test_equimeasurable():
    rng = np.random.default_rng(0)
    g = Grid(5.0, 201)
    for _ in range(50):
        f = random_density(g, rng)
        star = symmetric_decreasing_rearrangement(f)
        assert np.array_equal(np.sort(f.values), np.sort(star.values))


def test_shape_even_and_decreasing():
    rng = np.random.default_rng(1)
    g = Grid(5.0, 201)
    f = random_density(g, rng)
    star = symmetric_decreasing_rearrangement(f).values
    c = g.center_index
    right = star[c:]
    assert np.all(np.diff(right) <= 0)
    left = star[c::-1]
    assert np.all(np.diff(left) <= 0)
    # ties at paired nodes favour the nonnegative side
    assert np.all(star[c + 1 :] >= star[c - 1 :: -1])


def test_rejects_negative_input():
    g = Grid(2.0, 41)
    vals = np.zeros(g.N)
    vals[3] = -1e-3
    with pytest.raises(NegativeInputError):
        symmetric_decreasing_rearrangement(Samples(g, vals))


@settings(max_examples=60, deadline=None, database=None)
@given(half=st.integers(1, 400), L=st.floats(0.5, 40.0), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 9))
def test_rearrange_rows_match_one_row_results(half, L, seed, rows):
    g = Grid(L, 2 * half + 1)
    f = random_density(g, np.random.default_rng(seed), rows=rows)
    block = _rearrange_rows(f, g)
    for i in range(rows):
        assert np.array_equal(block[i], symmetric_decreasing_rearrangement(Samples(g, f[i])).values)


def test_rearrange_rows_reject_a_negative_row():
    g = Grid(2.0, 41)
    f = np.ones((3, g.N))
    f[2, 7] = -1e-3
    with pytest.raises(NegativeInputError):
        _rearrange_rows(f, g)


def test_mass_preserved_with_endpoint_correction():
    rng = np.random.default_rng(2)
    g = Grid(5.0, 201)
    f = random_density(g, rng)
    star = symmetric_decreasing_rearrangement(f)
    # equal-weight part is an exact permutation; only the half-weight ends differ
    correction = 0.5 * g.h * (
        f.values[0] + f.values[-1] - star.values[0] - star.values[-1]
    )
    assert integrate(star) == pytest.approx(integrate(f) + correction, abs=1e-12)
    # densities vanishing at the ends preserve mass outright
    f.values[0] = f.values[-1] = 0.0
    star = symmetric_decreasing_rearrangement(f)
    assert integrate(star) == pytest.approx(integrate(f), abs=1e-12)


def test_hardy_littlewood_inequality():
    rng = np.random.default_rng(3)
    g = Grid(5.0, 201)
    for _ in range(100):
        f = random_density(g, rng)
        lhs, rhs = hardy_littlewood_check(f, lambda a: a)
        assert lhs >= rhs - 1e-10


def test_hardy_littlewood_equality_at_fixed_point():
    g = Grid(6.0, 241)
    f = from_function(g, lambda x: 1.0 / (1.0 + x * x))
    lhs, rhs = hardy_littlewood_check(f, lambda a: a)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_hardy_littlewood_strict_for_asymmetric():
    rng = np.random.default_rng(4)
    g = Grid(5.0, 201)
    for _ in range(20):
        f = random_density(g, rng)
        lhs, rhs = hardy_littlewood_check(f, lambda a: a)  # strictly increasing g
        assert lhs - rhs > 1e-10


def test_moment_never_increases():
    # the |x| weight is the nondecreasing-profile case, any z > 1 moment term
    rng = np.random.default_rng(5)
    g = Grid(5.0, 201)
    for _ in range(50):
        f = random_density(g, rng)
        star = symmetric_decreasing_rearrangement(f)
        assert moment(star, 1.0) <= moment(f, 1.0) + 1e-10


@pytest.mark.filterwarnings("ignore::coulombium.errors.NormalizationWarning")  # random mass
def test_interaction_never_increases_at_unit_charge():
    rng = np.random.default_rng(6)
    g = Grid(5.0, 201)
    for _ in range(200):
        f = random_density(g, rng)
        star = symmetric_decreasing_rearrangement(f)
        dc = c_functional(star, 1.0) - c_functional(f, 1.0)
        assert dc <= 1e-10


def test_report_symmetric_density():
    g = Grid(8.0, 321)
    u = normalize(from_function(g, lambda x: np.exp(-0.5 * x * x)))
    (kb, cb), (ka, ca), symmetric = double_rearrangement_check(u.with_values(u.values**2), 1.0)
    assert symmetric
    assert ka + ca == pytest.approx(kb + cb, abs=1e-10)


def test_report_shifted_gaussian():
    g = Grid(10.0, 801)
    u = normalize(from_function(g, lambda x: np.exp(-0.5 * (x - 2.0) ** 2)))
    (kb, cb), (ka, ca), symmetric = double_rearrangement_check(u.with_values(u.values**2), 1.0)
    assert not symmetric
    assert ca < cb
    assert ka <= kb + 1e-10


def test_report_two_bump_density():
    g = Grid(10.0, 801)
    vals = np.exp(-2.0 * (g.x - 3.0) ** 2) + np.exp(-2.0 * (g.x + 3.0) ** 2)
    u = normalize(Samples(g, vals))
    (kb, cb), (ka, ca), _ = double_rearrangement_check(u.with_values(u.values**2), 1.0)
    assert ka + ca < kb + cb


def test_kinetic_polya_szego_on_smooth_densities():
    rng = np.random.default_rng(7)
    g = Grid(8.0, 641)
    for _ in range(25):
        s = random_smooth(g, rng)
        f = s.with_values(s.values / integrate(s))
        star = symmetric_decreasing_rearrangement(f)
        k_before = kinetic_energy(f.with_values(np.sqrt(f.values)))
        k_after = kinetic_energy(f.with_values(np.sqrt(star.values)))
        assert k_after <= k_before + 1e-8
