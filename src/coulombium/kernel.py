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
forms, the half-axis decoupling and the agreement with the dense O(N^2)
double sums (the tests' references) all hold to rounding error by
construction.

Each quantity the ``verify`` suites use has one array-level evaluation
along the last axis: ``_potential_rows`` (the potential),
``_c_plus_rows`` (the four C+ forms), ``_b_rows`` (the min-kernel form
b[f, g]: ``_b_dot`` of the suffix sums ``_b_sums`` of f and of g),
``_g_form`` (the g-kernel form) and ``_b_norm_rows`` (the quartic norm,
``_quartic_root`` of b[u^2, u^2]).  ``potential_from_density``,
``c_plus``, ``b_form``, ``c_functional`` and ``b_norm`` pass them one
row, the suites a block of rows, and each row gets the same bits either
way: every reduction is an ``np.vecdot`` over contiguous rows, and every
prefix sum runs along the row.
"""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

from .errors import NonZeroMeanError, NormalizationWarning
from .grid import Grid, Samples, integrate, require_same_mesh


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


def _potential_rows(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V = -(1/2) sum_k |x - x_k| m_k along the last axis of point masses m.

    One cumulative-sum pass per row; ``m`` is overwritten (it holds the
    first moments' prefix sums).  The totals are copied out of the last
    column before the in-place steps, which run the operations of
    -0.5 (x (2 c0 - c0[-1]) + (c1[-1] - 2 c1)) in its order, so a row has
    the same bits alone and inside a block.
    """
    c0 = np.cumsum(m, axis=-1)
    c1 = np.cumsum(np.multiply(m, x, out=m), axis=-1, out=m)
    # c1[-1] - 2 c1 = -2 c1 + c1[-1] bit for bit
    t0, t1 = c0[..., -1:].copy(), c1[..., -1:].copy()
    c0 *= 2.0
    c0 -= t0
    c0 *= x
    c1 *= -2.0
    c1 += t1
    c0 += c1
    c0 *= -0.5
    return c0


def potential_from_density(f: Samples) -> Samples:
    """Potential V(x) = -(1/2) * int |x-y| f(y) dy at every node, in O(N).

    |x-y| is split by the sign of x-y into left/right partial moments of
    w*f and w*x*f, so one cumulative-sum pass replaces the dense kernel
    product.  V is the exact discrete Green inverse: its second difference
    at an interior node equals -h^2 f_i.
    """
    return f.with_values(_potential_rows(_point_masses(f), f.grid.x))


def coulomb_pair_energy(f: Samples, g: Samples) -> float:
    """Double integral of -|x-y| f(x) g(y), via the O(N) potential."""
    require_same_mesh(f.grid, g.grid)
    v = potential_from_density(g)
    return float(np.dot(_point_masses(f), 2.0 * v.values))


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


def _suffix_sums(m: np.ndarray) -> np.ndarray:
    """S_i = sum_{k>=i} m_k along the last axis, contiguous and in node order.

    The sums run from the end into a reversed view of the result:
    ``np.vecdot`` gives a contiguous row the bits of a one-row ``np.dot``
    but sums a reversed strided view in another order.
    """
    S = np.empty(m.shape)
    np.cumsum(m[..., ::-1], axis=-1, out=S[..., ::-1])
    return S


def _c_plus_rows(t: np.ndarray, m: np.ndarray, h: float, form: CPlusForm):
    """C+ along the last axis of half-axis point masses m at nodes t, in one form.

    Every reduction is an ``np.vecdot`` of contiguous rows, so each row has
    the bits of a one-row ``np.dot`` (see :func:`_suffix_sums`).  Returns
    one value per row.
    """
    tm = t * m
    if form is CPlusForm.A:
        prefix = np.cumsum(tm, axis=-1) - tm  # sum_{k<j} t_k m_k
        return 2.0 * np.vecdot(m, prefix) + np.vecdot(tm, m)
    S = _suffix_sums(m)
    if form is CPlusForm.B:
        return 2.0 * np.vecdot(tm, S - m) + np.vecdot(tm, m)  # S - m = sum_{k>j} m_k
    if form is CPlusForm.C:
        return h * np.vecdot(S[..., 1:], S[..., 1:])
    # form D: W_j = h * sum_{1<=i<=j} S_i, then sum m_j W_j
    W = h * (np.cumsum(S, axis=-1) - S[..., :1])
    return np.vecdot(m, W)


def c_plus(f: Samples, form: CPlusForm | str = CPlusForm.C) -> float:
    """Half-axis interaction C+[f] = int int min(x,y) f(x) f(y) over x,y >= 0.

    Values at x < 0 are ignored.  All four forms accumulate the same double
    sum over trapezoid point masses in different orders, so they agree to
    rounding error; form C (squared suffix sums) exhibits positivity and is
    the default fast path.
    """
    t, m = _half_axis(f.values, f.grid, +1)
    return float(_c_plus_rows(t, m, f.grid.h, CPlusForm(form)))


def _b_sums(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Suffix sums S_1 .. S_n-1 of both closed half-axes of f, along the last axis.

    S_i = sum_{k>=i} m_k (:func:`_suffix_sums`) of the half-axis point
    masses, x >= 0 then x <= 0 on a new second-to-last axis, so the result
    has shape ``f.shape[:-1] + (2, n - 1)``.  They are the half of the
    min-kernel form that depends on f alone (:func:`_b_dot`).
    """
    # S_1 .. S_n-1 do not read the origin's mass
    m = np.stack([_half_axis(f, grid, side)[1][..., 1:] for side in (+1, -1)], axis=-2)
    return _suffix_sums(m)


def _b_dot(sf: np.ndarray, sg: np.ndarray, h: float):
    """Min-kernel form b[f, g] from the suffix sums of f and g (:func:`_b_sums`).

    Each closed half-axis adds h * sum_{i>=1} S_i[f] S_i[g] (form C of C+,
    polarized).  Returns one value per row.
    """
    d = np.vecdot(sf, sg)
    return h * d[..., 0] + h * d[..., 1]


def _b_rows(f: np.ndarray, g: np.ndarray, grid: Grid):
    """Min-kernel form b[f, g] along the last axis of two sample arrays."""
    sf = _b_sums(f, grid)
    return _b_dot(sf, sf if g is f else _b_sums(g, grid), grid.h)


def _g_form(f: np.ndarray, grid: Grid, z: float):
    """int int g(x,y) f(x) f(y) along the last axis, with no normalization check.

    Evaluates (z-1) * (int f) * (int |x| f) plus the min-kernel form
    b[f, f] (the two half-axis parts); exact discrete decomposition of the
    g-kernel double sum.
    """
    s0 = np.vecdot(grid.weights, f)
    m1 = np.vecdot(grid.weights, np.abs(grid.x) * f)
    return (z - 1.0) * s0 * m1 + _b_rows(f, f, grid)


def _quartic_root(b):
    """b^(1/4), the quartic norm from b[u^2, u^2].

    The fourth root is two correctly rounded square roots, which give a
    row the same bits alone and inside a block (a vectorized ``** 0.25``
    need not).
    """
    return np.sqrt(np.sqrt(b))


def _b_norm_rows(u: np.ndarray, grid: Grid):
    """Quartic norm b[u^2, u^2]^(1/4) along the last axis."""
    sq = u * u
    return _quartic_root(_b_rows(sq, sq, grid))


def c_functional(f: Samples, z: float, warn_unnormalized: bool = True) -> float:
    """Interaction functional C[f] = int int g(x,y) f(x) f(y) dx dy.

    The g kernel arises from rewriting the background moment term as a
    symmetric double integral, which assumes unit mass; a density whose
    integral strays from 1 by more than 1e-8 therefore triggers a
    non-fatal :class:`NormalizationWarning`.
    """
    if warn_unnormalized:
        mass = integrate(f)
        if not abs(mass - 1.0) <= 1e-8:  # NaN fails it too
            warnings.warn(
                f"c_functional expects a unit-mass density (integral = {mass!r})",
                NormalizationWarning,
                stacklevel=2,
            )
    return float(_g_form(f.values, f.grid, z))


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


def _require_zero_mean(values: np.ndarray, grid: Grid, name: str) -> None:
    """Refuse samples that are not zero-mean, along the last axis.

    Raises :class:`NonZeroMeanError` naming the first row whose trapezoid
    integral exceeds 1e-8 in magnitude or is NaN.
    """
    mean = np.vecdot(grid.weights, values)
    bad = np.argwhere(~(np.abs(mean) <= 1e-8))  # NaN fails it too
    if len(bad):
        row = tuple(bad[0])
        where = name + "".join(f"[{i}]" for i in row)
        raise NonZeroMeanError(
            f"integral of {where} is {mean[row]:.3e}, beyond the 1e-8 zero-mean tolerance"
        )


def neg_kernel_inner_product(f: Samples, g: Samples) -> float:
    """Inner product <f, g> = int int -|x-y| f(x) g(y) on zero-mean functions.

    Positive on nonzero zero-mean f because the pair energy equals twice the
    Dirichlet form of the potential solving -u'' = f.  Raises
    :class:`NonZeroMeanError` when either argument integrates to more than
    1e-8 in magnitude.
    """
    for s, name in ((f, "f"), (g, "g")):
        _require_zero_mean(s.values, s.grid, name)
    return coulomb_pair_energy(f, g)
