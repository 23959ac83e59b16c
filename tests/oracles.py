"""Dense O(N^2) references for the prefix-sum kernels, and random test data.

Each reference is a double sum over trapezoid point masses m = w f with an
explicit kernel matrix.  The half-axis masses of C+ are built from
``grid.weights`` with the origin's weight halved, not by the kernel
module's own helper, so a wrong weight there shows as a disagreement.
"""

import numpy as np

from coulombium import Samples
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


def dense_c_functional(f: Samples, z: float) -> float:
    """m @ g(x, y) @ m: the reference for ``c_functional``."""
    x, m = f.grid.x, _masses(f)
    return float(m @ g_kernel(x[:, None], x[None, :], z) @ m)


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
