"""Symmetric-decreasing rearrangement of grid densities.

The rearrangement sorts the sampled values in decreasing order and lays
them out by increasing |x| (ties at +/-|x| give the larger value to the
nonnegative node), so the multiset of values is preserved exactly and
the result is even up to one node and nonincreasing along each half
axis.  It acts on the density u^2; the rearranged wave function is the
square root of the rearranged density.  ``verify``'s ``rearrange`` suite
reads the Hardy-Littlewood sides and the interaction before and after;
the energy drop of the double rearrangement is a test.
``_rearrange_rows`` rearranges each row of a block along the last axis;
:func:`symmetric_decreasing_rearrangement` passes it one row.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeInputError
from .grid import Grid, Samples


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
