from math import log

import numpy as np
import pytest

from coulombium import (
    Grid,
    GridTooSmallError,
    PointCharge,
    Samples,
    SolverConfig,
    b_norm,
    c_functional,
    counterexample_un,
    from_function,
    grid_for_counterexample,
    integrate,
    moment,
    normalize,
    scf_solve,
    unboundedness_scan,
)
from coulombium.verify import random_density
from oracles import tightness_lower_bound


# Closed forms for the widening family, obtained by integrating the profile
# exactly (m = n + 1): the first absolute moment, the min-kernel part and the
# kinetic energy of the square root.
def m1_exact(n):
    m = n + 1.0
    return (m**3 / n**3) * (log(m) + 1 / m - 1 - n**2 / (2 * m**2) - n**3 / (3 * m**3))


def cg_exact(n):
    m = n + 1.0
    s = (
        m**5 * (m - 1)
        - 6 * m**5 * log(m)
        + 15 * m**4 * (m - 1)
        - 10 * m**3 * (m**2 - 1)
        + 5 * m**2 * (m**3 - 1)
        - 1.5 * m * (m**4 - 1)
        + (m**5 - 1) / 5
    )
    return s / (2 * (m - 1) ** 6)


def ke_exact(n):
    m = n + 1.0
    integral = (m**3 - 1) / 3 + 3 * (m - 1) - 4 * log(m) + 4.5 * log(3 * m / (m + 2))
    return integral / (m - 1) ** 3


def c_exact(n, z):
    return (z - 1.0) * m1_exact(n) + cg_exact(n)


# --- tightness bound --------------------------------------------------------

def test_tightness_bound_zero_inside():
    g = Grid(10.0, 801)
    u = normalize(from_function(g, lambda x: np.where(np.abs(x) < 2.0, 1.0, 0.0)))
    f = u.with_values(u.values**2)
    assert tightness_lower_bound(f, 5.0) == 0.0


def test_tightness_bound_two_bumps():
    # half of the mass at +-2R puts max(P+, P-) = 1/2, so the bound is R/4
    g = Grid(20.0, 4001)
    R = 4.0
    vals = np.exp(-4.0 * (g.x - 2 * R) ** 2) + np.exp(-4.0 * (g.x + 2 * R) ** 2)
    f = Samples(g, vals / integrate(Samples(g, vals)))
    assert tightness_lower_bound(f, R) == pytest.approx(R / 4.0, abs=1e-6)


def test_tightness_chain_inequality():
    rng = np.random.default_rng(1)
    g = Grid(20.0, 2001)  # h = 0.02 divides the radii
    for _ in range(100):
        f = random_density(g, rng)
        f = f.with_values(f.values / integrate(f))
        c = c_functional(f, 1.0)
        for R in (1.0, 5.0, 10.0):
            assert c >= tightness_lower_bound(f, R) - 1e-8


# --- widening family ---------------------------------------------------------

def test_counterexample_requires_large_grid():
    with pytest.raises(GridTooSmallError):
        counterexample_un(10, Grid(10.0, 2001))


def test_counterexample_normalization():
    for n in (5, 10, 20):
        g = grid_for_counterexample(n)
        u = counterexample_un(n, g)
        mass = integrate(u.with_values(u.values**2))
        assert mass == pytest.approx(1.0, abs=1e-4)
        assert abs(mass - 1.0) < 1e-6  # metrics-level tolerance


def test_counterexample_center_value():
    n = 10
    g = grid_for_counterexample(n)
    u = counterexample_un(n, g)
    m = n + 1.0
    expect = (m**3 / (2 * n**3)) * (1.0 - 1.0 / m**2 - 2.0 * n / m**3)
    assert u.values[g.center_index] ** 2 == pytest.approx(expect, rel=1e-12)


def test_counterexample_quadratic_touch():
    n = 10
    g = grid_for_counterexample(n)
    u = counterexample_un(n, g)
    sq = u.values**2
    j = np.argmin(np.abs(g.x - n))
    assert sq[j] <= 1e-9
    assert abs(sq[j] - sq[j - 1]) / g.h <= 1e-5  # one-sided slope ~ 0
    assert np.all(sq[np.abs(g.x) > n] == 0.0)


def test_counterexample_matches_closed_forms():
    res = unboundedness_scan(0.5, [10, 20, 40])
    for mtr in res.metrics:
        assert mtr.kinetic == pytest.approx(ke_exact(mtr.n), rel=1e-5)
        assert mtr.c_value == pytest.approx(c_exact(mtr.n, 0.5), abs=2e-6)
        assert abs(mtr.norm - 1.0) < 1e-6


def test_scan_slope_matches_closed_form_prediction():
    ns = [10, 20, 40, 80]
    res = unboundedness_scan(0.5, ns)
    logs = np.log(np.array(ns) + 1.0)
    pred = np.polyfit(logs, [c_exact(n, 0.5) for n in ns], 1)[0]
    assert res.slope == pytest.approx(pred, abs=1e-3)
    # the finite-n remainder keeps the measured slope well above the
    # asymptotic z - 1 = -0.5 on this range
    assert res.slope == pytest.approx(-0.3158, abs=5e-3)


def test_closed_forms_reach_the_acceptance_limits():
    # AC01 and AC02 take their n-lists from the exact integrals alone: the
    # slope window -0.5 +- 0.03 is missed over n <= 80 and met on the
    # doubling ladder, and the kinetic term is within 1% of 1/3 at n = 1000
    # but 3.1% above it at n = 100.
    def slope(ns):
        logs = np.log(np.array(ns) + 1.0)
        return np.polyfit(logs, [c_exact(n, 0.5) for n in ns], 1)[0]

    ladder = [1000, 2000, 4000, 8000]
    assert abs(slope(ladder) - (-0.5)) <= 0.03
    assert abs(slope([10, 20, 40, 80]) - (-0.5)) > 0.03
    assert abs(ke_exact(1000) - 1 / 3) <= 0.01 / 3
    assert abs(ke_exact(100) - 1 / 3) > 0.01 / 3
    # remainder limit 11(1-z)/6 + 1/2 = 17/12 at z = 0.5
    assert c_exact(10**5, 0.5) + 0.5 * log(10**5 + 1) == pytest.approx(17 / 12, abs=1e-3)


def test_scan_totals_decreasing_and_o1_bounded():
    res = unboundedness_scan(0.5, [10, 20, 40, 80])
    totals = [mtr.total for mtr in res.metrics]
    assert all(b < a for a, b in zip(totals[1:], totals[2:]))  # n >= 20
    assert totals[-1] < -0.5
    remainders = [
        mtr.c_value - (0.5 - 1.0) * np.log(mtr.n + 1.0) for mtr in res.metrics
    ]
    assert max(abs(r) for r in remainders) < 2.0


@pytest.mark.filterwarnings("ignore::coulombium.errors.NormalizationWarning")  # mass off 1 by 4e-7
def test_neutral_interaction_bounded_over_family():
    # at z = 1 the min-kernel part is the whole interaction and stays bounded
    for n in (10, 20, 40):
        g = grid_for_counterexample(n)
        u = counterexample_un(n, g)
        sq = u.with_values(u.values**2)
        c1 = c_functional(sq, 1.0)
        assert 0.0 < c1 < 1.0
        assert c1 == pytest.approx(cg_exact(n), abs=1e-5)
        assert 0.5 < b_norm(u) < 1.0


def test_scan_rejects_empty():
    # a slope needs two distinct n: one n, or one n twice, fits no line
    for n_list in ([], [10], [10, 10]):
        with pytest.raises(ValueError, match="two distinct n"):
            unboundedness_scan(0.5, n_list)


# --- moments -----------------------------------------------------------------

def test_moment_basics():
    g = Grid(6.0, 481)
    u = normalize(from_function(g, lambda x: np.exp(-x * x)))
    f = u.with_values(u.values**2)
    assert moment(f, 0.0) == pytest.approx(1.0, abs=1e-12)
    block = Samples(g, np.where((g.x >= 0) & (g.x <= 1.0), 1.0, 0.0))
    assert moment(block, 1.0) == pytest.approx(0.5, abs=2 * g.h)
    for p in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            moment(f, p)


def test_ground_state_moment_stable_under_domain_growth():
    bg = PointCharge(2.0)
    m1 = {}
    energy = {}
    for L, n in ((15.0, 1501), (30.0, 3001)):  # same h, doubled L
        state = scf_solve(bg, SolverConfig(L=L, N=n, tol_residual=1e-8))
        sq = state.u.with_values(state.u.values**2)
        m1[L] = moment(sq, 1.0)
        energy[L] = state.energy.total
    assert abs(m1[15.0] - m1[30.0]) < 1e-8
    assert abs(energy[15.0] - energy[30.0]) < 1e-8


def test_ground_state_tail_mass_decays():
    state = scf_solve(PointCharge(2.0), SolverConfig(L=15.0, N=1501, tol_residual=1e-8))
    sq = state.u.with_values(state.u.values**2)
    m = sq.grid.weights * sq.values
    tails = [float(np.sum(m[np.abs(sq.grid.x) > r])) for r in (2.0, 4.0, 6.0, 8.0, 10.0)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert tails[-1] < 1e-10
