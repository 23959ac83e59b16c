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
from .grid import Grid, Samples
from .kernel import _suffix_sums


@dataclass
class UnboundednessScanResult:
    """The scan's columns, one entry per n, and the least-squares slope of C against log(n+1)."""

    n: np.ndarray
    norm: np.ndarray
    kinetic: np.ndarray
    c_value: np.ndarray
    total: np.ndarray
    slope: float


def moment(f: Samples, p: float) -> float:
    """Weighted moment int |x|^p f(x) dx for p >= 0."""
    if not (math.isfinite(p) and p >= 0):  # NaN compares false with 0
        raise ValueError(f"moment order must be finite and >= 0, got {p}")
    return float(np.dot(f.grid.weights, np.abs(f.grid.x) ** p * f.values))


def _un_values(n: int, ax: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """u_n at the distances ax = |x| from the origin (see :func:`counterexample_un`).

    Built in ``out`` (which may be ax itself) with ``work``, another array
    of ax's size, and returned; the in-place steps run the operations of
    the profile's expression in its order, so they keep its bits.
    """
    m = n + 1.0
    amp = m**3 / (2.0 * n**3)
    outside = ax > n
    slope = np.subtract(ax, n, out=work)  # 2 (|x| - n) / m^3
    slope *= 2.0
    slope /= m**3
    np.add(ax, 1.0, out=out)  # amp (1/(1+|x|)^2 - 1/m^2 + slope)
    np.square(out, out=out)
    np.divide(1.0, out, out=out)
    out -= 1.0 / m**2
    out += slope
    out *= amp
    np.maximum(out, 1e-16, out=out)
    out[outside] = 0.0
    return np.sqrt(out, out=out)


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
    ax = np.abs(grid.x)
    return Samples(grid, _un_values(n, ax, out=ax, work=np.empty_like(ax)))


def _counterexample_half(n: int) -> int:
    """Intervals on each half-axis of the grid for u_n: L = n + 2, spacing at most 0.0015."""
    return math.ceil((n + 2.0) / 0.0015)


def grid_for_counterexample(n: int) -> Grid:
    """Grid with L = n + 2 and spacing at most 0.0015 (node count odd)."""
    return Grid(n + 2.0, 2 * _counterexample_half(n) + 1)


def unboundedness_scan(z: float, n_list) -> UnboundednessScanResult:
    """Evaluate the family over n_list and fit C against log(n+1).

    Each n gets its own grid (L = n + 2, h <= 0.0015) so the widening
    support is never truncated.  The asymptotic slope is z - 1, but the
    remainder C - (z-1) log(n+1) approaches its limit 11(1-z)/6 + 1/2 only
    at rate O(log(n)/n): at z = 0.5 the exact slope is -0.316 over
    n = 10..80 and -0.491 over n = 1000..8000.

    u_n is even and the grid symmetric to the bit, so only the nodes at
    x >= 0 are built, with the half-axis weights (h/2 at the origin and at
    L): the mass, m1 = int |x| u_n^2 and the kinetic term are twice their
    half sums, and C = (z-1) mass m1 + b[u_n^2, u_n^2], whose two half-axis
    parts h sum_{i>=1} S_i^2 (:func:`coulombium.kernel._b_dot`) are equal to
    the bit, is read from one of them.  The scan holds four half-grid
    arrays sized for the largest n, in which each n's nodes, u_n and sums
    are built in place, so memory grows like n / h (a 0.18 GB traced peak
    for n = 8000, against 0.69 GB on the whole grid).
    """
    n_list = list(n_list)
    if len(set(n_list)) < 2:  # a line through one n is not determined
        raise ValueError(f"need at least two distinct n to fit a slope, got {n_list}")
    # the node indices, the nodes t, u_n and then its point masses, and a
    # work array (u_n's slope term, its differences, the masses' suffix sums)
    big = _counterexample_half(max(n_list)) + 1
    index = np.arange(float(big))
    t_buf, u_buf, w_buf = np.empty((3, big))
    norm, kinetic, c_value = np.empty((3, len(n_list)))
    for k, n in enumerate(n_list):
        half = _counterexample_half(n)
        h = 2.0 * (n + 2.0) / (2 * half)  # the full grid's spacing, to the bit
        t = np.multiply(index[:half + 1], h, out=t_buf[:half + 1])  # the full grid's x >= 0
        u = _un_values(n, t, out=u_buf[:half + 1], work=w_buf[:half + 1])
        d = np.subtract(u[1:], u[:-1], out=w_buf[:half])
        kinetic[k] = 2.0 * float(np.dot(d, d) / h)
        m = np.multiply(u, u, out=u)  # u_n^2, then its half-axis point masses
        m *= h
        m[0] *= 0.5
        m[-1] *= 0.5
        norm[k] = 2.0 * float(np.sum(m))
        m1 = 2.0 * float(np.dot(t, m))
        s = _suffix_sums(m[1:], out=w_buf[:half])
        c_value[k] = (z - 1.0) * norm[k] * m1 + 2.0 * h * float(np.vecdot(s, s))
    slope = np.polyfit(np.log(np.asarray(n_list, dtype=float) + 1.0), c_value, 1)[0]
    return UnboundednessScanResult(np.asarray(n_list), norm, kinetic, c_value, kinetic + c_value,
                                   float(slope))
