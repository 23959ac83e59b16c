"""Correctness checks that run after the timed region.

The quantities are recomputed here with the benchmark's own NumPy code
(prefix-sum potential, forward-difference kinetic energy, Euler-Lagrange
residual) rather than through the package, so a check does not trust the
code path it is checking.  The counterexample slope is checked against
closed-form integrands evaluated by Gauss-Legendre quadrature.  Only NumPy
is used: a check must not import modules that would raise the peak RSS of
the passes that follow it.
"""

from __future__ import annotations

import csv
import math

import numpy as np

MASS_TOL = 1e-10
ENERGY_REL_TOL = 1e-9
CROSS_GAP_TOL = 1e-6
SLOPE_TOL = 1e-3


def trapezoid_weights(x):
    h = x[1] - x[0]
    w = np.full(x.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def half_abs_potential(x, w, f):
    """-(1/2) sum_k w_k f_k |x_i - x_k| at every node, by prefix sums."""
    m = w * f
    left = np.cumsum(m)
    left_x = np.cumsum(m * x)
    total, total_x = left[-1], left_x[-1]
    s = x * left - left_x + (total_x - left_x) - x * (total - left)
    return -0.5 * s


def mass(x, u):
    return float(np.dot(trapezoid_weights(x), u * u))


def energy(x, u, v_background):
    """kinetic + 2 int V_bg u^2 + (1/2) pair(u^2, u^2); the solver's total."""
    h = x[1] - x[0]
    w = trapezoid_weights(x)
    sq = u * u
    kinetic = float(np.sum(np.diff(u) ** 2) / h)
    v_el = half_abs_potential(x, w, sq)
    coulomb = 2.0 * float(np.dot(w, v_background * sq)) + float(np.dot(w, sq * v_el))
    return kinetic + coulomb


def el_residual(x, u, eps, v_background):
    """Discrete L2 norm of -D2 u + V u - eps u on the interior nodes."""
    h = x[1] - x[0]
    v = half_abs_potential(x, trapezoid_weights(x), u * u) + v_background
    lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    r = -lap + (v[1:-1] - eps) * u[1:-1]
    return float(math.sqrt(h * np.dot(r, r)))


def point_background(x, z):
    return 0.5 * z * np.abs(x)


def sampled_background(x, rho):
    return half_abs_potential(x, trapezoid_weights(x), rho)


def relative_gap(a, b):
    return abs(a - b) / max(1.0, abs(b))


def integrate_gauss(fn, a, b, panels=200, order=20):
    """Composite Gauss-Legendre quadrature of a smooth vectorized fn on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = half * x + 0.5 * (edges[:-1] + edges[1:])[:, None]
    return float(np.sum(half * w * fn(nodes)))


def counterexample_slope(z=0.5, n_list=(10, 20, 40, 80)):
    """Exact least-squares slope of C[u_n^2] against log(n+1).

    On [0, n] the family has u_n^2 = A[(1+x)^-2 - m^-2 + 2(x-n)/m^3] with
    m = n+1 and A = m^3/(2n^3), so its tail integral F(t) is closed-form and
    C = (z-1) * 2 int_0^n x u_n^2 + 2 int_0^n F(t)^2 dt; both integrands are
    smooth, so Gauss-Legendre quadrature gives them to rounding error.
    """
    cs = []
    for n in n_list:
        m = n + 1.0
        amp = m**3 / (2.0 * n**3)

        def first_moment(t, n=n, m=m, amp=amp):
            return t * amp * ((1.0 + t) ** -2 - m**-2 + 2.0 * (t - n) / m**3)

        def tail_squared(t, n=n, m=m, amp=amp):
            tail = amp * (1.0 / (1.0 + t) - 1.0 / m - (n - t) / m**2 - (n - t) ** 2 / m**3)
            return tail * tail

        m1 = 2.0 * integrate_gauss(first_moment, 0.0, n)
        cg = 2.0 * integrate_gauss(tail_squared, 0.0, n)
        cs.append((z - 1.0) * m1 + cg)
    logs = np.log(np.asarray(n_list, dtype=float) + 1.0)
    return float(np.polyfit(logs, cs, 1)[0])


def read_cli_csv(path):
    """Split a CLI output file into its comment lines, header and rows."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(body))
    return comments, rows[0], rows[1:]


def summary_fields(comment_line):
    """Parse '# summary k=v k=v ...' into a dict of strings."""
    return dict(tok.split("=", 1) for tok in comment_line.split()[2:])
