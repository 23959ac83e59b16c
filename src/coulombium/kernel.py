"""Coulomb-kernel functionals evaluated in O(N) by prefix sums.

The continuum objects: the pair energy with kernel -|x-y|, the
interaction form with kernel

    g(x, y) = ( z(|x| + |y|) - |x - y| ) / 2,

its same-sign part G(x, y) = min(|x|, |y|) for xy > 0 (zero otherwise),
the half-axis form C+, the quartic norm (B[u^2])^(1/4), and the
negative-kernel inner product on zero-mean functions.

Discretely every quantity is a finite sum over trapezoid point masses
m_k = w_k f_k, so the Fubini rearrangements behind the continuum
identities become exact rearrangements of one double sum: C+'s four
iterated-integral orders (which ``verify forms`` compares), the half-axis
decoupling and the agreement with the dense O(N^2) double sums (the
tests' references) all hold to rounding error by construction.  C+ and
both halves of the min-kernel form are one expression, h sum_i S_i^2 (or
h sum_i S_i[f] S_i[g]) over the suffix sums S_i of the masses on the open
half-axis x > 0, where G(0, y) = 0 leaves out the origin.

Each quantity the ``verify`` suites use has one array-level evaluation
along the last axis: ``_potential_rows`` (the potential), ``_half_axis``
and ``_suffix_sums`` (C+'s masses and their suffix sums), ``_b_rows``
(the min-kernel form b[f, g]: ``_b_dot`` of the suffix sums ``_b_sums``
of f and of g), ``_g_form`` (the g-kernel form) and ``_quartic_root``
(the quartic norm from b[u^2, u^2]).  ``potential_from_density``,
``c_plus``, ``b_form``, ``c_functional`` and ``b_norm`` pass them one
row, the suites a block of rows, and each row gets the same bits either
way: every reduction is an ``np.vecdot`` over contiguous rows, and every
prefix sum runs along the row.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NonZeroMeanError, NormalizationWarning
from .grid import Grid, Samples, integrate, require_same_mesh


def _point_masses(f: Samples) -> np.ndarray:
    return f.grid.weights * f.values


def _potential_rows(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V = -(1/2) sum_k |x - x_k| m_k along the last axis of point masses m.

    One cumulative-sum pass per row; ``m`` is overwritten (it holds the
    first moments' prefix sums).  With the halved totals M0/2 and M1/2
    taken from the last column, four in-place steps give
    V = x (M0/2 - c0) + (c1 - M1/2): the -1/2 folded into
    -0.5 (x (2 c0 - M0) + (M1 - 2 c1)), which halving keeps bit for bit
    wherever no sum is subnormal.  A row has the same bits alone and
    inside a block.
    """
    c0 = np.cumsum(m, axis=-1)
    c1 = np.cumsum(np.multiply(m, x, out=m), axis=-1, out=m)
    half0, half1 = 0.5 * c0[..., -1:], 0.5 * c1[..., -1:]
    np.subtract(half0, c0, out=c0)
    c0 *= x
    c1 -= half1
    c0 += c1
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


def _half_axis(values: np.ndarray, grid: Grid):
    """Nodes of the open half-axis x > 0 as (x, point masses along the last axis).

    The masses take the trapezoid weights of ``grid.weights``; the origin
    is left out, since G(0, y) = 0.
    """
    c = grid.center_index
    return grid.x[c + 1:], grid.weights[c + 1:] * values[..., c + 1:]


def _suffix_sums(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """S_i = sum_{k>=i} m_k along the last axis, contiguous and in node order.

    The sums run from the end into a reversed view of the result (``out``,
    which may be m itself, or a new array): ``np.vecdot`` gives a
    contiguous row the bits of a one-row ``np.dot`` but sums a reversed
    strided view in another order.
    """
    S = np.empty(m.shape) if out is None else out
    np.cumsum(m[..., ::-1], axis=-1, out=S[..., ::-1])
    return S


def c_plus(f: Samples) -> float:
    """Half-axis interaction C+[f] = int int min(x,y) f(x) f(y) over x,y >= 0.

    Samples at x <= 0 are ignored.  Evaluated as h sum_i S_i^2 over the
    suffix sums S_i of the point masses at x > 0 (the continuum
    int_0^inf (int_z^inf f)^2 dz), which exhibits positivity; it is the
    expression ``b_form`` gives each half-axis.
    """
    S = _suffix_sums(_half_axis(f.values, f.grid)[1])
    return float(f.grid.h * np.vecdot(S, S))


def _b_sums(f: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Suffix sums S_1 .. S_n-1 of both open half-axes of f, along the last axis.

    S_i = sum_{k>=i} m_k (:func:`_suffix_sums`) of the half-axis point
    masses, x > 0 then x < 0 on a new second-to-last axis, so the result
    has shape ``f.shape[:-1] + (2, n - 1)``.  They are the half of the
    min-kernel form that depends on f alone (:func:`_b_dot`).  The masses
    and then the sums go into ``out`` when it is given, else a new array.
    """
    # the masses of the open half-axes, as _half_axis: x > 0, then x < 0
    # mirrored onto it (the weights h, and h/2 at the end)
    c = grid.center_index
    S = np.empty(f.shape[:-1] + (2, c)) if out is None else out
    np.multiply(grid.weights[c + 1:], f[..., c + 1:], out=S[..., 0, :])
    np.multiply(grid.weights[c - 1::-1], f[..., c - 1::-1], out=S[..., 1, :])
    return _suffix_sums(S, out=S)


def _b_dot(sf: np.ndarray, sg: np.ndarray, h: float):
    """Min-kernel form b[f, g] from the suffix sums of f and g (:func:`_b_sums`).

    Each open half-axis adds h * sum_i S_i[f] S_i[g] (:func:`c_plus`,
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


def c_functional(f: Samples, z: float) -> float:
    """Interaction functional C[f] = int int g(x,y) f(x) f(y) dx dy.

    The g kernel arises from rewriting the background moment term as a
    symmetric double integral, which assumes unit mass; a density whose
    integral strays from 1 by more than 1e-8 therefore triggers a
    non-fatal :class:`NormalizationWarning`.
    """
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
    sq = u.values * u.values
    return float(_quartic_root(_b_rows(sq, sq, u.grid)))


def _require_zero_mean(values: np.ndarray, grid: Grid, name: str, first_row: int = 0) -> None:
    """Refuse samples that are not zero-mean, along the last axis.

    Raises :class:`NonZeroMeanError` naming the first row whose trapezoid
    integral exceeds 1e-8 in magnitude or is NaN.  A block of rows cut
    from a larger array passes the index of its first row, which the
    name's leading index counts from.
    """
    mean = np.vecdot(grid.weights, values)
    bad = np.argwhere(~(np.abs(mean) <= 1e-8))  # NaN fails it too
    if len(bad):
        row = tuple(bad[0])
        shown = (row[0] + first_row, *row[1:]) if row else row
        where = name + "".join(f"[{i}]" for i in shown)
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
