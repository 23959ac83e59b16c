import numpy as np
import pytest

from coulombium import (
    Grid,
    GridMismatchError,
    PointCharge,
    SampledCharge,
    Samples,
    UnderResolvedError,
    abs_moment,
    background_potential,
    coulomb_pair_energy,
    delta_approximant,
    integrate,
    jensen_lower_bound_check,
    load_background,
    recenter_shift,
    total_charge,
)


def _bump_background(grid, mass, center=0.0, width=0.5):
    raw = np.exp(-0.5 * ((grid.x - center) / width) ** 2)
    raw /= np.dot(grid.weights, raw)
    return SampledCharge(Samples(grid, -mass * raw))


def test_point_charge_validation():
    with pytest.raises(ValueError):
        PointCharge(0.0)
    with pytest.raises(ValueError):
        PointCharge(-1.0)


@pytest.mark.parametrize("z", [np.nan, np.inf])
def test_point_charge_rejects_non_finite_z(z):
    with pytest.raises(ValueError, match="charge ratio z must be finite"):
        PointCharge(z)


def test_sampled_charge_rejects_positive_values():
    g = Grid(2.0, 41)
    with pytest.raises(ValueError):
        SampledCharge(Samples(g, np.full(g.N, 0.1)))


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_sampled_charge_rejects_non_finite_values(value):
    g = Grid(2.0, 41)
    vals = np.zeros(g.N)
    vals[20] = value
    with pytest.raises(ValueError, match="background density rho must be finite"):
        SampledCharge(Samples(g, vals))


def test_background_potential_rejects_another_mesh():
    bg = SampledCharge(Samples(Grid(2.0, 41), np.zeros(41)))
    message = r"mesh mismatch: \(L=2.0, N=41\) vs \(L=3.0, N=41\)"
    with pytest.raises(GridMismatchError, match=message):
        background_potential(bg, Grid(3.0, 41))


def test_total_charge():
    assert total_charge(PointCharge(1.0)) == -1.0
    g = Grid(3.0, 201)
    assert total_charge(SampledCharge(Samples(g, np.zeros(g.N)))) == 0.0
    bg = _bump_background(g, 1.5)
    assert total_charge(bg) == pytest.approx(-1.5, abs=1e-8)


def test_abs_moment():
    assert abs_moment(PointCharge(3.0)) == 0.0
    g = Grid(4.0, 401)
    # single-node mass at x = 2: moment is exactly 2 * mass
    j = np.argmin(np.abs(g.x - 2.0))
    vals = np.zeros(g.N)
    mass = 0.7
    vals[j] = -mass / g.weights[j]
    assert abs_moment(SampledCharge(Samples(g, vals))) == pytest.approx(
        2.0 * mass, rel=1e-13
    )


def test_abs_moment_uniform_block():
    # rho = -1/2 on [-1, 1] with trapezoid edge values: int |x|/2 = 1/2 exactly
    g = Grid(2.0, 401)
    vals = np.where(np.abs(g.x) < 1.0, -0.5, 0.0)
    vals[np.isclose(np.abs(g.x), 1.0)] = -0.25
    bg = SampledCharge(Samples(g, vals))
    assert total_charge(bg) == pytest.approx(-1.0, abs=1e-12)
    assert abs_moment(bg) == pytest.approx(0.5, abs=1e-6)


def test_point_potential_is_exact():
    g = Grid(11.0, 443)
    v = background_potential(PointCharge(2.0), g)
    assert np.array_equal(v.values, np.abs(g.x))


def test_sampled_zero_potential():
    g = Grid(2.0, 41)
    v = background_potential(SampledCharge(Samples(g, np.zeros(g.N))), g)
    assert np.all(v.values == 0.0)


def test_potential_uniform_bound():
    # sup |V_rho - (z/2)|x|| <= abs_moment / 2, exact discretely
    g = Grid(10.0, 2001)
    for width in (0.1, 0.4, 1.0):
        bg = _bump_background(g, 1.0, width=width)
        z = -total_charge(bg)
        v = background_potential(bg, g)
        dev = np.max(np.abs(v.values - 0.5 * z * np.abs(g.x)))
        assert dev <= 0.5 * abs_moment(bg) + 1e-12


def test_point_potential_distributional_identity():
    # second difference of (z/2)|x| vanishes off the origin and the kink
    # carries the whole charge -z
    g = Grid(5.0, 201)
    z = 1.3
    v = background_potential(PointCharge(z), g).values
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / g.h**2
    rho_disc = -d2
    c = g.center_index - 1  # offset into the interior slice
    off_origin = np.delete(rho_disc, c)
    assert np.max(np.abs(off_origin)) < 1e-10
    assert g.h * rho_disc[c] == pytest.approx(-z, rel=1e-12)


def test_recenter_shift():
    assert recenter_shift(PointCharge(2.0)) == 0.0
    g = Grid(8.0, 801)
    sym = _bump_background(g, 1.2)
    assert recenter_shift(sym) == pytest.approx(0.0, abs=1e-10)
    off = _bump_background(g, 1.0, center=3.0, width=0.2)
    assert recenter_shift(off) == pytest.approx(3.0, abs=1e-6)


def test_recenter_shift_translation():
    # shifting the density by one node shifts the barycenter by exactly h
    g = Grid(8.0, 401)
    bg = _bump_background(g, 1.0, center=1.0, width=0.5)
    rolled = SampledCharge(Samples(g, np.roll(bg.rho.values, 1)))
    assert recenter_shift(rolled) - recenter_shift(bg) == pytest.approx(
        g.h, rel=1e-10
    )


def test_jensen_point_surrogate_equality():
    g = Grid(5.0, 201)
    vals = np.zeros(g.N)
    vals[g.center_index] = -2.0 / g.weights[g.center_index]
    assert jensen_lower_bound_check(SampledCharge(Samples(g, vals)), g) <= 1e-12


def test_jensen_random_background():
    rng = np.random.default_rng(0)
    g = Grid(6.0, 301)
    for _ in range(20):
        vals = -rng.random(g.N)
        scale = 1.5 / -np.dot(g.weights, vals)
        bg = SampledCharge(Samples(g, vals * scale))  # z = 1.5
        assert jensen_lower_bound_check(bg, g) <= 1e-8


def test_jensen_two_masses_strict_slack():
    g = Grid(6.0, 601)
    a = 2.0
    vals = np.zeros(g.N)
    for s in (+1, -1):
        j = np.argmin(np.abs(g.x - s * a))
        vals[j] = -0.75 / g.weights[j]
    bg = SampledCharge(Samples(g, vals))
    assert jensen_lower_bound_check(bg, g) <= 1e-8
    # away from the masses the inequality has strict slack: at the origin
    # V = 0.75 * 2a / 2 while the cone value is 0
    v = background_potential(bg, g)
    assert v.values[g.center_index] - 0.0 > 0.7 * a


def test_jensen_rejects_a_zero_background():
    g = Grid(2.0, 41)
    with pytest.raises(ValueError, match="strictly negative total charge"):
        jensen_lower_bound_check(SampledCharge(Samples(g, np.zeros(g.N))), g)


def test_jensen_rejects_point():
    g = Grid(2.0, 41)
    with pytest.raises(TypeError):
        jensen_lower_bound_check(PointCharge(1.0), g)


def test_delta_approximant_normalized_and_supported():
    g = Grid(1.25, 641)
    for n in (1, 2, 4):
        d = delta_approximant(n, g)
        assert integrate(d) == pytest.approx(1.0, abs=1e-8)
        outside = np.abs(g.x) > 1.0 / n
        assert np.all(d.values[outside] == 0.0)


def test_delta_approximant_resolution_guard():
    g = Grid(1.0, 41)  # h = 0.05 > 1/(4*8)
    with pytest.raises(UnderResolvedError):
        delta_approximant(8, g)


def test_delta_self_energy_decay():
    # int int |x-y| d_n d_n scales like 1/n: log-log slope in [-1.1, -0.9]
    g = Grid(1.25, 641)
    ns = np.array([1, 2, 4, 8])
    se = np.array(
        [-coulomb_pair_energy(delta_approximant(n, g), delta_approximant(n, g)) for n in ns]
    )
    slope = np.polyfit(np.log(ns), np.log(se), 1)[0]
    assert -1.1 <= slope <= -0.9


def test_load_background_roundtrip(tmp_path):
    g = Grid(4.0, 401)
    xs = np.linspace(-3.0, 3.0, 1501)
    rs = -np.exp(-(xs**2))
    path = tmp_path / "rho.dat"
    lines = ["# background density", "# x rho"]
    lines += [f"{a} {b}" for a, b in zip(xs, rs)]
    path.write_text("\n".join(lines) + "\n")
    bg = load_background(path, g)
    inside = np.abs(g.x) <= 3.0
    assert np.max(np.abs(bg.rho.values[inside] + np.exp(-(g.x[inside] ** 2)))) < 1e-5
    assert np.all(bg.rho.values[~inside] == 0.0)
