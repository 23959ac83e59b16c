"""Coulomb-kernel functionals evaluated in O(N) by prefix sums.

The continuum objects: the pair energy with kernel -|x-y|, the
interaction form with kernel

    g(x, y) = ( z(|x| + |y|) - |x - y| ) / 2,

its same-sign part G(x, y) = min(|x|, |y|) for xy > 0 (zero otherwise),
the half-axis form C+ in four equivalent iterated-integral guises, the
quartic norm (B[u^2])^(1/4), and the negative-kernel inner product on
zero-mean functions.

Discretely every quantity is a finite sum over trapezoid point masses
m_k = w_k f_k, so the Fubini rearrangements behind the continuum
identities become exact rearrangements of one double sum: the four C+
forms, the half-axis decoupling and the fast/dense agreement all hold to
rounding error by construction.  Dense O(N^2) twins of each fast path
are kept in this module, outside the package's public names, so tests
can prove the prefix-sum algebra.

The min-kernel form b[f, g] and the quartic norm have one array-level
evaluation each, ``_b_rows`` and ``_b_norm_rows``, which reduce over the
last axis: ``b_form``, ``c_functional`` and ``b_norm`` pass them one row,
``verify.bnorm_suite`` a block of rows, and each row gets the same bits
either way.
"""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

from .errors import NonZeroMeanError, NormalizationWarning
from .grid import Grid, Samples, integrate, reflect, require_same_mesh


class CPlusForm(Enum):
    """Which iterated-integral form of C+ to accumulate.

    A: 2 * int f(x) ( int_0^x y f(y) dy ) dx
    B: 2 * int y f(y) ( int_y^inf f(x) dx ) dy
    C: int_0^inf ( int_z^inf f(x) dx )^2 dz
    D: int f(x) ( int_0^x ( int_z^inf f(y) dy ) dz ) dx
    """

    A = "A"
    B = "B"
    C = "C"
    D = "D"


def _point_masses(f: Samples) -> np.ndarray:
    return f.grid.weights * f.values


def potential_from_density(f: Samples) -> Samples:
    """Potential V(x) = -(1/2) * int |x-y| f(y) dy at every node, in O(N).

    |x-y| is split by the sign of x-y into left/right partial moments of
    w*f and w*x*f, so one cumulative-sum pass replaces the dense kernel
    product.  V is the exact discrete Green inverse: its second difference
    at an interior node equals -h^2 f_i.
    """
    x = f.grid.x
    m = _point_masses(f)
    c0 = np.cumsum(m)
    c1 = np.cumsum(m * x)
    conv = x * (2.0 * c0 - c0[-1]) + (c1[-1] - 2.0 * c1)
    return f.with_values(-0.5 * conv)


def dense_potential_from_density(f: Samples) -> Samples:
    """O(N^2) twin of :func:`potential_from_density` (verification only)."""
    x = f.grid.x
    kern = np.abs(x[:, None] - x[None, :])
    return f.with_values(-0.5 * (kern @ _point_masses(f)))


def coulomb_pair_energy(f: Samples, g: Samples) -> float:
    """Double integral of -|x-y| f(x) g(y), via the O(N) potential."""
    require_same_mesh(f.grid, g.grid)
    v = potential_from_density(g)
    return float(np.dot(_point_masses(f), 2.0 * v.values))


def dense_coulomb_pair_energy(f: Samples, g: Samples) -> float:
    """O(N^2) twin of :func:`coulomb_pair_energy` (verification only)."""
    require_same_mesh(f.grid, g.grid)
    x = f.grid.x
    kern = -np.abs(x[:, None] - x[None, :])
    return float(_point_masses(f) @ kern @ _point_masses(g))


def g_kernel(x, y, z: float):
    """Interaction kernel g(x,y) = ( z(|x|+|y|) - |x-y| ) / 2 (vectorized)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 0.5 * (z * (np.abs(x) + np.abs(y)) - np.abs(x - y))


def min_kernel(x, y):
    """Same-sign kernel G(x,y) = min(|x|,|y|) for xy > 0, else 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.where(x * y > 0, np.minimum(np.abs(x), np.abs(y)), 0.0)


def _half_axis(values: np.ndarray, grid: Grid, side: int):
    """Nodes of one closed half-axis as (|x|, point masses along the last axis).

    The origin node carries half of its full-grid weight on each side, so
    the two halves split the axis exactly; G(0, y) = 0 makes the split
    immaterial for the kernel value itself.
    """
    c = grid.center_index
    vals = values[..., c:] if side > 0 else values[..., c::-1]
    t = grid.x[c:]
    v = np.full(t.size, grid.h)
    v[0] = 0.5 * grid.h
    v[-1] = 0.5 * grid.h
    return t, v * vals


def _c_plus_masses(t: np.ndarray, m: np.ndarray, h: float, form: CPlusForm) -> float:
    tm = t * m
    if form is CPlusForm.A:
        prefix = np.cumsum(tm) - tm  # sum_{k<j} t_k m_k
        return float(2.0 * np.dot(m, prefix) + np.dot(tm, m))
    if form is CPlusForm.B:
        suffix = np.cumsum(m[::-1])[::-1] - m  # sum_{k>j} m_k
        return float(2.0 * np.dot(tm, suffix) + np.dot(tm, m))
    S = np.cumsum(m[::-1])[::-1]  # S_i = sum_{k>=i} m_k
    if form is CPlusForm.C:
        return float(h * np.dot(S[1:], S[1:]))
    # form D: W_j = h * sum_{1<=i<=j} S_i, then sum m_j W_j
    W = h * (np.cumsum(S) - S[0])
    return float(np.dot(m, W))


def c_plus(f: Samples, form: CPlusForm | str = CPlusForm.C) -> float:
    """Half-axis interaction C+[f] = int int min(x,y) f(x) f(y) over x,y >= 0.

    Values at x < 0 are ignored.  All four forms accumulate the same double
    sum over trapezoid point masses in different orders, so they agree to
    rounding error; form C (squared suffix sums) exhibits positivity and is
    the default fast path.
    """
    form = CPlusForm(form)
    t, m = _half_axis(f.values, f.grid, +1)
    return _c_plus_masses(t, m, f.grid.h, form)


def dense_c_plus(f: Samples) -> float:
    """O(N^2) twin of :func:`c_plus` (verification only)."""
    t, m = _half_axis(f.values, f.grid, +1)
    return float(m @ np.minimum.outer(t, t) @ m)


def _b_rows(f: np.ndarray, g: np.ndarray, grid: Grid):
    """Min-kernel form b[f, g] along the last axis of two sample arrays.

    Each closed half-axis adds h * sum_{i>=1} S_i[f] S_i[g], where
    S_i = sum_{k>=i} m_k are the suffix sums of the half-axis point masses
    (form C of C+, polarized).  The suffix sums are copied into node order
    and contiguous rows: there ``np.vecdot`` gives every row the bits of a
    one-row ``np.dot`` (on reversed strided views it sums in another
    order), so a row's value does not depend on the block it sits in.
    Returns one value per row.
    """

    def suffix(a, side):
        m = _half_axis(a, grid, side)[1]
        return np.ascontiguousarray(np.cumsum(m[..., ::-1], axis=-1)[..., -2::-1])  # S_1 .. S_n-1

    acc = 0.0
    for side in (+1, -1):
        sf = suffix(f, side)
        sg = sf if g is f else suffix(g, side)
        acc = acc + grid.h * np.vecdot(sf, sg)
    return acc


def _g_form(f: np.ndarray, grid: Grid, z: float):
    """int int g(x,y) f(x) f(y) along the last axis, with no normalization check.

    Evaluates (z-1) * (int f) * (int |x| f) plus the min-kernel form
    b[f, f] (the two half-axis parts); exact discrete decomposition of the
    g-kernel double sum.
    """
    s0 = np.vecdot(grid.weights, f)
    m1 = np.vecdot(grid.weights, np.abs(grid.x) * f)
    return (z - 1.0) * s0 * m1 + _b_rows(f, f, grid)


def _b_norm_rows(u: np.ndarray, grid: Grid):
    """Quartic norm b[u^2, u^2]^(1/4) along the last axis.

    The fourth root is two correctly rounded square roots, which give a
    row the same bits alone and inside a block (a vectorized ``** 0.25``
    need not).
    """
    sq = u * u
    return np.sqrt(np.sqrt(_b_rows(sq, sq, grid)))


def c_functional(f: Samples, z: float, warn_unnormalized: bool = True) -> float:
    """Interaction functional C[f] = int int g(x,y) f(x) f(y) dx dy.

    The g kernel arises from rewriting the background moment term as a
    symmetric double integral, which assumes unit mass; a density whose
    integral strays from 1 by more than 1e-8 therefore triggers a
    non-fatal :class:`NormalizationWarning`.
    """
    if warn_unnormalized:
        mass = integrate(f)
        if abs(mass - 1.0) > 1e-8:
            warnings.warn(
                f"c_functional expects a unit-mass density (integral = {mass!r})",
                NormalizationWarning,
                stacklevel=2,
            )
    return float(_g_form(f.values, f.grid, z))


def dense_c_functional(f: Samples, z: float) -> float:
    """O(N^2) twin of :func:`c_functional` (verification only)."""
    x = f.grid.x
    m = _point_masses(f)
    return float(m @ g_kernel(x[:, None], x[None, :], z) @ m)


def b_form(f: Samples, g: Samples) -> float:
    """Bilinear min-kernel form b[f, g] = int int G(x,y) f(x) g(y) dx dy."""
    require_same_mesh(f.grid, g.grid)
    return float(_b_rows(f.values, g.values, f.grid))


def b_norm(u: Samples) -> float:
    """Quartic norm ||u||_B = ( int int G u^2 u^2 )^(1/4).

    The g kernel at z = 1 is the min kernel G, the one charge ratio at which
    the fourth root is a genuine norm.  Uses the raw double-kernel form (no
    unit-mass rewriting), so it is well defined off the unit sphere.
    """
    return float(_b_norm_rows(u.values, u.grid))


def neg_kernel_inner_product(f: Samples, g: Samples) -> float:
    """Inner product <f, g> = int int -|x-y| f(x) g(y) on zero-mean functions.

    Positive on nonzero zero-mean f because the pair energy equals twice the
    Dirichlet form of the potential solving -u'' = f.  Raises
    :class:`NonZeroMeanError` when either argument integrates to more than
    1e-8 in magnitude.
    """
    for s, name in ((f, "f"), (g, "g")):
        mean = integrate(s)
        if abs(mean) > 1e-8:
            raise NonZeroMeanError(
                f"integral of {name} is {mean:.3e}, beyond the 1e-8 zero-mean tolerance"
            )
    return coulomb_pair_energy(f, g)


def reflected_half_sum(f: Samples, form: CPlusForm | str = CPlusForm.C) -> float:
    """C+[f restricted to x>=0] + C+[reflect(f) restricted to x>=0]."""
    return c_plus(f, form) + c_plus(reflect(f), form)
