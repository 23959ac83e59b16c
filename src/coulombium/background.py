"""Background charge models: an exact point charge and sampled densities.

The point charge -z delta_0 is kept symbolic wherever an exact formula
exists (its potential is (z/2)|x|, its moments are trivial), which avoids
a grid-dependent delta self-energy.  Sampled backgrounds are nonpositive
densities on the grid with finite first absolute moment; their potential
comes from the same prefix-sum kernel as the electron cloud's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import UnderResolvedError
from .grid import Grid, Samples, integrate, require_same_mesh
from .kernel import potential_from_density


@dataclass
class PointCharge:
    """Point charge -z at the origin, z > 0."""

    z: float

    def __post_init__(self):
        if not (np.isfinite(self.z) and self.z > 0):
            raise ValueError(f"point charge ratio z must be finite and positive, got {self.z}")


@dataclass
class SampledCharge:
    """Nonpositive charge density sampled on a grid."""

    rho: Samples

    def __post_init__(self):
        # a NaN compares false with everything, so test finiteness first
        if not np.all(np.isfinite(self.rho.values)):
            raise ValueError("background density rho must be finite everywhere")
        if np.any(self.rho.values > 1e-12):
            raise ValueError("background density must be nonpositive everywhere")


BackgroundCharge = Union[PointCharge, SampledCharge]


def total_charge(bg: BackgroundCharge) -> float:
    """Integral of the background density (equals -z)."""
    if isinstance(bg, PointCharge):
        return -bg.z
    return integrate(bg.rho)


def abs_moment(bg: BackgroundCharge) -> float:
    """First absolute moment int |x| |rho(x)| dx (0 for the point charge)."""
    if isinstance(bg, PointCharge):
        return 0.0
    g = bg.rho.grid
    return float(np.dot(g.weights, np.abs(g.x) * np.abs(bg.rho.values)))


def background_potential(bg: BackgroundCharge, grid: Grid) -> Samples:
    """Potential V_rho(x) = (1/2) int |x-y| (-rho(y)) dy.

    Point charge: exactly (z/2)|x|.  Sampled: the -1/2 |x-y| kernel applied
    to rho already carries the right sign.
    """
    if isinstance(bg, PointCharge):
        return Samples(grid, 0.5 * bg.z * np.abs(grid.x))
    require_same_mesh(bg.rho.grid, grid)
    return potential_from_density(bg.rho)


def recenter_shift(bg: BackgroundCharge) -> float:
    """Charge barycenter P = -(1/z) int w rho(w) dw.

    Shifting coordinates by P reduces a general background to the
    point-charge picture in the far field.
    """
    if isinstance(bg, PointCharge):
        return 0.0
    z = -total_charge(bg)
    if z <= 0:
        raise ValueError("recenter shift needs strictly negative total charge")
    g = bg.rho.grid
    first_moment = float(np.dot(g.weights, g.x * bg.rho.values))
    return -first_moment / z


def jensen_lower_bound_check(bg: SampledCharge, grid: Grid) -> float:
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


def delta_approximant(n: int, grid: Grid) -> Samples:
    """Samples of delta_n(x) = n * phi(n x) for the standard mollifier bump.

    phi(t) = c exp(-1/(1-t^2)) on |t| < 1, zero outside, with c fixed so the
    grid integral is exactly 1.  Requires h <= 1/(4n) so at least eight nodes
    span the bump.
    """
    if n < 1:
        raise ValueError(f"approximant index must be >= 1, got {n}")
    if grid.h > 1.0 / (4.0 * n) + 1e-12:
        raise UnderResolvedError(
            f"h = {grid.h:.4g} too coarse for delta_{n}; need h <= {1.0 / (4 * n):.4g}"
        )
    t = n * grid.x
    raw = np.zeros(grid.N)
    mask = np.abs(t) < 1.0
    raw[mask] = np.exp(-1.0 / (1.0 - t[mask] ** 2))
    raw *= n
    total = float(np.dot(grid.weights, raw))
    return Samples(grid, raw / total)


def load_background(path, grid: Grid) -> SampledCharge:
    """Read a two-column (x, rho) text file and resample onto the grid.

    Whitespace separated, '#' comments; linear interpolation, zero outside
    the tabulated range.  Raises ValueError for a non-finite x.
    """
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"expected two columns (x, rho) in {path}")
    if not np.all(np.isfinite(data[:, 0])):
        raise ValueError(f"the x column of {path} must be finite everywhere")
    order = np.argsort(data[:, 0])
    xs, rs = data[order, 0], data[order, 1]
    vals = np.interp(grid.x, xs, rs, left=0.0, right=0.0)
    return SampledCharge(Samples(grid, vals))
