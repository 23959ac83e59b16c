"""Moments of a density, and the subcritical family.

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
from .kernel import _g_form


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


def grid_for_counterexample(n: int) -> Grid:
    """Grid with L = n + 2 and spacing at most 0.0015 (node count odd)."""
    L = n + 2.0
    half = math.ceil(L / 0.0015)
    return Grid(L, 2 * half + 1)


def unboundedness_scan(z: float, n_list) -> UnboundednessScanResult:
    """Evaluate the family over n_list and fit C against log(n+1).

    Each n gets its own grid (L = n + 2, h <= 0.0015) so the widening
    support is never truncated.  The asymptotic slope is z - 1, but the
    remainder C - (z-1) log(n+1) approaches its limit 11(1-z)/6 + 1/2 only
    at rate O(log(n)/n): at z = 0.5 the exact slope is -0.316 over
    n = 10..80 and -0.491 over n = 1000..8000.  Memory grows like n / h
    (about 0.7 GB peak for n = 8000).
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("empty n list")
    metrics = []
    for n in n_list:
        g = grid_for_counterexample(n)
        u = counterexample_un(n, g)
        sq = u.with_values(u.values * u.values)
        norm = integrate(sq)
        kin = kinetic_energy(u)
        # u_n^2 has unit mass only up to quadrature error: no c_functional check
        c_val = float(_g_form(sq.values, g, z))
        metrics.append(CounterexampleMetrics(n, norm, kin, c_val, kin + c_val))
    logs = np.log(np.asarray(n_list, dtype=float) + 1.0)
    cvals = np.asarray([mtr.c_value for mtr in metrics])
    slope, intercept = np.polyfit(logs, cvals, 1)
    return UnboundednessScanResult(metrics, float(slope), float(intercept))
