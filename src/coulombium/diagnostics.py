"""Concentration, tail and moment diagnostics, and the subcritical family.

The concentration functional Q[f](r) is the mass within [-r, r]; its
large-r limit separates tight densities from escaping ones, and the
squared-suffix form of the interaction yields the quantitative lower
bound C[f] >= R * max(P+, P-)^2 on the tail masses P+- beyond +-R.

The family u_n realizes the subcritical (z < 1) collapse: widening
normalized densities whose interaction falls like (z-1) log(n+1) while
the kinetic term stays bounded, so the energy is unbounded below.  The
remainder C[u_n^2] - (z-1) log(n+1) tends to 11(1-z)/6 + 1/2, but only at
rate O(log(n)/n) (leading term 3(z-2) log(n)/n), so a slope fitted over
n <= 80 is far from z-1 and reaches it within 0.01 only for n of order
10^3 and beyond.  The kinetic term tends to 1/3 = int u'^2 of the pointwise
limit (1+|x|)^-1/sqrt(2), at rate O(1/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError
from .grid import Grid, Samples, integrate, kinetic_energy
from .kernel import c_functional


@dataclass
class ConcentrationProfile:
    """Mass-within-radius table Q[f](r) with its large-r value."""

    radii: np.ndarray
    Q: np.ndarray
    lambda_estimate: float


@dataclass
class CounterexampleMetrics:
    """Per-n record of the subcritical family scan."""

    n: int
    norm: float
    kinetic: float
    c_value: float
    total: float


@dataclass
class UnboundednessScanResult:
    """Scan table plus the least-squares slope of C against log(n+1)."""

    metrics: list
    slope: float
    intercept: float


def concentration_profile(f: Samples, radii) -> ConcentrationProfile:
    """Q[f](r) = int_{-r}^{r} f by partial trapezoid sums.

    Radii between nodes are handled by linear interpolation of the
    cumulative integral, which keeps Q nondecreasing for f >= 0.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    g = f.grid
    v = f.values
    cum = np.concatenate(([0.0], np.cumsum(0.5 * g.h * (v[1:] + v[:-1]))))
    upper = np.interp(radii, g.x, cum)
    lower = np.interp(-radii, g.x, cum)
    q = upper - lower
    return ConcentrationProfile(radii, q, float(q[np.argmax(radii)]))


def tail_mass(f: Samples, R: float) -> float:
    """Mass beyond radius R: int f - Q[f](R)."""
    return integrate(f) - float(concentration_profile(f, [R]).Q[0])


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


def moment(f: Samples, p: float) -> float:
    """Weighted moment int |x|^p f(x) dx for p >= 0."""
    if p < 0:
        raise ValueError(f"moment order must be >= 0, got {p}")
    return float(np.dot(f.grid.weights, np.abs(f.grid.x) ** p * f.values))


def counterexample_un(n: int, grid: Grid) -> Samples:
    """Samples of the normalized widening profile u_n on the grid.

    u_n^2 = (1+n)^3/(2n^3) * [ (1+|x|)^-2 - (1+n)^-2 + 2(|x|-n)/(1+n)^3 ]
    on [-n, n], zero outside; the density touches zero quadratically at
    +-n.  Values are floored at 1e-16 inside the support before the square
    root to guard round-off negatives.

    As n grows u_n tends pointwise to (1+|x|)^-1/sqrt(2): the kinetic term
    tends to 1/3 (0.3437 at n = 100, 0.3343 at n = 1000) and
    C[u_n^2] - (z-1) log(n+1) tends to 11(1-z)/6 + 1/2 with an
    O(log(n)/n) error.
    """
    if n < 1:
        raise ValueError(f"family index must be >= 1, got {n}")
    if grid.L < n + 1:
        raise GridTooSmallError(f"need L >= {n + 1}, got L = {grid.L}")
    m = n + 1.0
    amp = m**3 / (2.0 * n**3)
    ax = np.abs(grid.x)
    dens = amp * (1.0 / (1.0 + ax) ** 2 - 1.0 / m**2 + 2.0 * (ax - n) / m**3)
    dens = np.where(ax <= n, np.maximum(dens, 1e-16), 0.0)
    return Samples(grid, np.sqrt(dens))


def grid_for_counterexample(n: int, h_target: float = 0.0015) -> Grid:
    """Grid with L = n + 2 and spacing at most h_target (node count odd)."""
    L = n + 2.0
    half = math.ceil(L / h_target)
    return Grid(L, 2 * half + 1)


def unboundedness_scan(
    z: float,
    n_list,
    h_target: float = 0.0015,
) -> UnboundednessScanResult:
    """Evaluate the family over n_list and fit C against log(n+1).

    Each n gets its own grid (L = n + 2, h <= h_target) so the widening
    support is never truncated.  The asymptotic slope is z - 1, but the
    remainder C - (z-1) log(n+1) approaches its limit 11(1-z)/6 + 1/2 only
    at rate O(log(n)/n): at z = 0.5 the exact slope is -0.316 over
    n = 10..80 and -0.491 over n = 1000..8000.  Memory grows like n / h_target
    (about 0.7 GB peak for n = 8000 at the default spacing).
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("empty n list")
    metrics = []
    for n in n_list:
        g = grid_for_counterexample(n, h_target)
        u = counterexample_un(n, g)
        sq = u.with_values(u.values * u.values)
        norm = integrate(sq)
        kin = kinetic_energy(u)
        c_val = c_functional(sq, z, warn_unnormalized=False)
        metrics.append(CounterexampleMetrics(n, norm, kin, c_val, kin + c_val))
    logs = np.log(np.asarray(n_list, dtype=float) + 1.0)
    cvals = np.asarray([mtr.c_value for mtr in metrics])
    slope, intercept = np.polyfit(logs, cvals, 1)
    return UnboundednessScanResult(metrics, float(slope), float(intercept))
