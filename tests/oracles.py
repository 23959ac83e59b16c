"""Dense O(N^2) references for the prefix-sum kernels, the lemmas of the
existence argument stated on package quantities, and random test data.

Each reference is a double sum over trapezoid point masses m = w f with an
explicit kernel matrix.  The half-axis masses of C+ are built from
``grid.weights`` over the closed half-axis with the origin's weight
halved, not by the kernel module's own helper, so a wrong weight there
shows as a disagreement and a mass at the origin that reached C+ would
too.  ``c_plus_by_dots`` is the loop reference for C+'s four orders.

The lemmas (tightness, Jensen's bound on the background potential,
Hardy-Littlewood and the double rearrangement) return both sides or the
margin of their inequality; the tests assert it.

``mirrored_wells`` builds an even sampled background.  The solvers run a
point charge on the half axis, where its state is even by construction,
and a sampled background on its full grid, where nothing imposes it: the
tests hold the paper's symmetry of the minimizer on these.
"""

import numpy as np

from coulombium import (
    PointCharge,
    SampledCharge,
    Samples,
    background_potential,
    c_functional,
    integrate,
    kinetic_energy,
    recenter_shift,
    symmetric_decreasing_rearrangement,
    total_charge,
)
from coulombium.grid import require_same_mesh
from coulombium.verify import random_density


def g_kernel(x, y, z: float):
    """Interaction kernel g(x,y) = ( z(|x|+|y|) - |x-y| ) / 2 (vectorized)."""
    return 0.5 * (z * (np.abs(x) + np.abs(y)) - np.abs(x - y))


def min_kernel(x, y):
    """Same-sign kernel G(x,y) = min(|x|,|y|) for xy > 0, else 0."""
    return np.where(x * y > 0, np.minimum(np.abs(x), np.abs(y)), 0.0)


def _masses(f: Samples) -> np.ndarray:
    return f.grid.weights * f.values


def dense_potential_from_density(f: Samples) -> Samples:
    """V = -(1/2) |x - y| @ m: the reference for ``potential_from_density``."""
    x = f.grid.x
    return f.with_values(-0.5 * (np.abs(x[:, None] - x[None, :]) @ _masses(f)))


def dense_coulomb_pair_energy(f: Samples, g: Samples) -> float:
    """m_f @ -|x - y| @ m_g: the reference for ``coulomb_pair_energy``."""
    require_same_mesh(f.grid, g.grid)
    x = f.grid.x
    return float(_masses(f) @ -np.abs(x[:, None] - x[None, :]) @ _masses(g))


def dense_c_plus(f: Samples) -> float:
    """m @ min(x, y) @ m over the closed half axis x >= 0: the reference for ``c_plus``."""
    x, w = f.grid.x, f.grid.weights
    half = x >= 0.0
    w = np.where(x == 0.0, 0.5 * w, w)  # the origin's weight is split between the halves
    t, m = x[half], (w * f.values)[half]
    return float(m @ np.minimum.outer(t, t) @ m)


def c_plus_by_dots(f: np.ndarray, grid) -> list:
    """C+'s orders A, B, C and D of one row by np.dot of suffix-sum views: the loop reference.

    The masses are those of the open half-axis x > 0, and S_i the suffix
    sums of all of them; see ``verify._c_plus_forms`` for the orders.
    """
    c = grid.center_index
    t, m = grid.x[c + 1:], grid.weights[c + 1:] * f[c + 1:]
    tm = t * m
    S = np.cumsum(m[::-1])[::-1]
    diag = np.dot(tm, m)
    return [float(2.0 * np.dot(m, np.cumsum(tm) - tm) + diag),
            float(2.0 * np.dot(tm, S - m) + diag),
            float(grid.h * np.dot(S, S)),
            float(np.dot(m, grid.h * np.cumsum(S)))]


def dense_c_functional(f: Samples, z: float) -> float:
    """m @ g(x, y) @ m: the reference for ``c_functional``."""
    x, m = f.grid.x, _masses(f)
    return float(m @ g_kernel(x[:, None], x[None, :], z) @ m)


def tightness_lower_bound(f: Samples, R: float) -> float:
    """R * max(P+, P-)^2 from the node masses strictly beyond +-R.

    Bounded interaction forces this quantity to stay bounded as R grows,
    which is what certifies tightness of minimizing sequences; the test
    invariant is c_functional(f, 1) >= bound - slack for normalized f.
    """
    g = f.grid
    m = g.weights * f.values
    p_plus = float(np.sum(m[g.x > R]))
    p_minus = float(np.sum(m[g.x < -R]))
    return R * max(p_plus, p_minus) ** 2


def jensen_lower_bound_check(bg, grid) -> float:
    """Largest violation of V_rho(x) >= (z/2) |x - P| over the nodes.

    Jensen's inequality makes the recentered point-charge potential a lower
    bound for V_rho; the returned max of (z/2)|x - P| - V_rho should be <= 0
    up to quadrature slack.
    """
    if isinstance(bg, PointCharge):
        raise TypeError("jensen_lower_bound_check takes a sampled background")
    p = recenter_shift(bg)  # raises ValueError unless the total charge is negative
    z = -total_charge(bg)
    v = background_potential(bg, grid)
    return float(np.max(0.5 * z * np.abs(grid.x - p) - v.values))


def hardy_littlewood_check(f: Samples, g_profile):
    """Both sides (lhs, rhs) of int f g >= int f* g for a nondecreasing profile of |x|.

    Strict inequality is expected when the profile is strictly increasing
    and f differs from its rearrangement.
    """
    gv = np.asarray(g_profile(np.abs(f.grid.x)), dtype=float)
    fstar = symmetric_decreasing_rearrangement(f)
    lhs = integrate(f.with_values(f.values * gv))
    rhs = integrate(f.with_values(fstar.values * gv))
    return lhs, rhs


def double_rearrangement_check(f: Samples, z: float):
    """((kinetic, coulomb) of f, the same of f*, whether f == f*) for f = u^2.

    The kinetic terms are those of the square roots, the Coulomb terms
    ``c_functional`` at z; at z = 1 the interaction never increases and the
    total drops strictly for asymmetric densities.
    """
    def terms(d):
        return kinetic_energy(d.with_values(np.sqrt(np.maximum(d.values, 0.0)))), c_functional(d, z)

    fstar = symmetric_decreasing_rearrangement(f)
    return terms(f), terms(fstar), bool(np.array_equal(f.values, fstar.values))


def random_unit_density(grid, rng) -> Samples:
    """``random_density`` scaled to unit trapezoid mass, from the same draws."""
    vals = random_density(grid, rng).values
    return Samples(grid, vals / np.vecdot(grid.weights, vals))


def random_smooth(grid, rng, bumps=3) -> Samples:
    """Mixture of random Gaussian bumps, compactly small near the ends."""
    vals = np.zeros(grid.N)
    for _ in range(bumps):
        c = rng.uniform(-0.5 * grid.L, 0.5 * grid.L)
        w = rng.uniform(0.4, 1.5)
        a = rng.uniform(0.2, 1.0)
        vals += a * np.exp(-0.5 * ((grid.x - c) / w) ** 2)
    return Samples(grid, vals)


def mirrored_wells(grid, charge: float, centre: float, width: float) -> SampledCharge:
    """Two Gaussian wells at +-centre of total charge -charge, even bit for bit.

    x[i] == -x[N-1-i] exactly, so the two wells trade places under x -> -x
    and their sum keeps its bits.  With centre <= width the density is
    symmetric decreasing.
    """
    wells = (np.exp(-0.5 * ((grid.x - centre) / width) ** 2)
             + np.exp(-0.5 * ((grid.x + centre) / width) ** 2))
    return SampledCharge(Samples(grid, wells * (-charge / np.dot(grid.weights, wells))))
