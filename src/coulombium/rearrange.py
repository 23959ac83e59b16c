"""Symmetric-decreasing rearrangement of grid densities.

The rearrangement sorts the sampled values in decreasing order and lays
them out by increasing |x| (ties at +/-|x| give the larger value to the
nonnegative node), so the multiset of values is preserved exactly and
the result is even up to one node and nonincreasing along each half
axis.  The energy comparisons act on the density u^2; the rearranged
wave function is the square root of the rearranged density.
``_rearrange_rows`` rearranges each row of a block along the last axis;
:func:`symmetric_decreasing_rearrangement` passes it one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NegativeInputError
from .grid import Grid, Samples, integrate, kinetic_energy
from .kernel import c_functional


@dataclass
class RearrangementReport:
    """Before/after energies for a density and its rearrangement."""

    e_before: float
    e_after: float
    kinetic_before: float
    kinetic_after: float
    coulomb_before: float
    coulomb_after: float
    was_symmetric: bool


def _check_nonnegative(values: np.ndarray):
    low = float(np.min(values))  # NaN if any sample is NaN
    if not low >= -1e-14:
        raise NegativeInputError(f"density has a negative or NaN sample {low!r}")


def _rearrange_rows(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Symmetric-decreasing rearrangement of every row of ``values`` (last axis)."""
    _check_nonnegative(values)
    c = grid.center_index
    order = np.empty(grid.N, dtype=int)
    order[0] = c
    ks = np.arange(1, c + 1)
    order[2 * ks - 1] = c + ks  # nonnegative node first within each pair
    order[2 * ks] = c - ks
    out = np.empty(values.shape)
    out[..., order] = np.sort(values, axis=-1)[..., ::-1]
    return out


def symmetric_decreasing_rearrangement(f: Samples) -> Samples:
    """Equimeasurable even nonincreasing rearrangement of a density."""
    return f.with_values(_rearrange_rows(f.values, f.grid))


def hardy_littlewood_check(
    f: Samples, g_profile: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """Both sides of int f g >= int f* g for a nondecreasing profile of |x|.

    Returns (lhs, rhs); the caller asserts lhs >= rhs - slack.  Strict
    inequality is expected when the profile is strictly increasing and
    f differs from its rearrangement.
    """
    gv = np.asarray(g_profile(np.abs(f.grid.x)), dtype=float)
    fstar = symmetric_decreasing_rearrangement(f)
    lhs = integrate(f.with_values(f.values * gv))
    rhs = integrate(f.with_values(fstar.values * gv))
    return lhs, rhs


def double_rearrangement_check(f: Samples, z: float) -> RearrangementReport:
    """Energy bookkeeping for f = u^2 against its rearrangement.

    Evaluates kinetic (through square roots) and the g-kernel double
    integral before and after; at z = 1 the interaction never increases and
    the total drops strictly for asymmetric densities.
    """
    fstar = symmetric_decreasing_rearrangement(f)
    u = f.with_values(np.sqrt(np.maximum(f.values, 0.0)))
    ustar = f.with_values(np.sqrt(np.maximum(fstar.values, 0.0)))
    kin_b = kinetic_energy(u)
    kin_a = kinetic_energy(ustar)
    coul_b = c_functional(f, z)
    coul_a = c_functional(fstar, z)
    return RearrangementReport(
        e_before=kin_b + coul_b,
        e_after=kin_a + coul_a,
        kinetic_before=kin_b,
        kinetic_after=kin_a,
        coulomb_before=coul_b,
        coulomb_after=coul_a,
        was_symmetric=bool(np.array_equal(f.values, fstar.values)),
    )
