import numpy as np
import pytest

from coulombium import (
    Grid,
    Samples,
    from_function,
    integrate,
    kinetic_energy,
    normalize,
)


def test_make_grid_smallest_legal():
    g = Grid(1.0, 3)
    assert np.array_equal(g.x, [-1.0, 0.0, 1.0])
    assert g.h == 1.0


def test_make_grid_arithmetic():
    g = Grid(40.0, 4001)
    assert g.h == pytest.approx(0.02, abs=1e-15)
    assert g.x[2000] == 0.0
    assert abs(g.h * (g.N - 1) - 2 * g.L) < 1e-12


def test_grid_arrays_are_read_only_and_sampling_copies():
    # states share their background's grid, so no sample may alias its nodes
    g = Grid(1.0, 5)
    s = from_function(g, lambda x: x)
    s.values *= 2.0
    assert np.array_equal(g.x, [-1.0, -0.5, 0.0, 0.5, 1.0])
    for nodes in (g.x, g.weights):
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0


@pytest.mark.parametrize("L,N", [(1.0, 4), (1.0, 2), (0.0, 3), (-2.0, 5)])
def test_make_grid_rejects(L, N):
    with pytest.raises(ValueError):
        Grid(L, N)


@pytest.mark.parametrize("L,N,field", [(np.nan, 241, "half-width L"), (np.inf, 241, "half-width L"),
                                       (1.0, np.inf, "node count"), (1.0, np.nan, "node count")])
def test_make_grid_rejects_non_finite_values(L, N, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        Grid(L, N)


@pytest.mark.parametrize("L", [1e-300, 1e300])
def test_make_grid_rejects_a_spacing_whose_square_leaves_the_float_range(L):
    # h^2 underflows to 0 or overflows to inf, and the stencil's 1/h^2 with it
    with pytest.raises(ValueError, match=r"^node spacing h = \S+: h\^2 and 4/h\^2 must be finite$"):
        Grid(L, 241)


def test_grid_symmetry_exact():
    g = Grid(7.3, 501)
    assert np.array_equal(g.x, -g.x[::-1])
    assert g.x[g.center_index] == 0.0


def test_samples_length_checked():
    g = Grid(1.0, 5)
    with pytest.raises(ValueError):
        Samples(g, np.zeros(4))


def test_integrate_constant_exact():
    g = Grid(1.0, 3)
    assert integrate(Samples(g, np.ones(3))) == pytest.approx(2.0, abs=0)


def test_integrate_odd_function():
    g = Grid(5.0, 101)
    assert integrate(from_function(g, lambda x: x)) == pytest.approx(0.0, abs=1e-13)


def test_integrate_quadratic():
    # closed form: int_{-1}^{1} x^2 dx = 2/3
    g = Grid(1.0, 2001)
    assert integrate(from_function(g, lambda x: x * x)) == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_integrate_linearity():
    rng = np.random.default_rng(7)
    g = Grid(3.0, 201)
    f = Samples(g, rng.standard_normal(g.N))
    s = Samples(g, rng.standard_normal(g.N))
    a, b = 1.7, -0.3
    combo = Samples(g, a * f.values + b * s.values)
    assert integrate(combo) == pytest.approx(
        a * integrate(f) + b * integrate(s), abs=1e-13
    )


def test_kinetic_zero_and_hat():
    g = Grid(1.0, 3)
    assert kinetic_energy(Samples(g, np.zeros(3))) == 0.0
    assert kinetic_energy(Samples(g, [0.0, 1.0, 0.0])) == pytest.approx(2.0, abs=0)


def test_kinetic_constant_is_zero():
    g = Grid(4.0, 81)
    assert kinetic_energy(Samples(g, np.full(g.N, 2.5))) == 0.0


def test_kinetic_gaussian():
    # int u'^2 = 1/2 for u = pi^{-1/4} exp(-x^2/2)
    g = Grid(10.0, 4001)
    u = from_function(g, lambda x: np.pi**-0.25 * np.exp(-0.5 * x * x))
    assert kinetic_energy(u) == pytest.approx(0.5, abs=1e-4)


def test_kinetic_nonnegative_random():
    rng = np.random.default_rng(11)
    g = Grid(2.0, 101)
    for _ in range(20):
        assert kinetic_energy(Samples(g, rng.standard_normal(g.N))) >= 0.0


def test_reflection_invariance():
    rng = np.random.default_rng(3)
    g = Grid(6.0, 301)
    f = Samples(g, rng.random(g.N))
    reflected = f.with_values(f.values[::-1])  # x -> -x, exact on the symmetric grid
    assert integrate(reflected) == pytest.approx(integrate(f), abs=1e-13)
    assert kinetic_energy(reflected) == pytest.approx(kinetic_energy(f), rel=1e-13)


def test_normalize():
    g = Grid(5.0, 201)
    u = normalize(from_function(g, lambda x: np.exp(-x * x)))
    assert integrate(Samples(g, u.values**2)) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        normalize(Samples(g, np.zeros(g.N)))
    for bad in (np.nan, np.inf):
        vals = np.exp(-g.x**2)
        vals[g.N // 3] = bad
        with pytest.raises(ValueError, match="cannot normalize"):
            normalize(Samples(g, vals))
