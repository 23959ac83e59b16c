"""Uniform symmetric grids, trapezoid quadrature and difference forms.

Every functional in this package is evaluated on a mesh of N equally
spaced nodes covering [-L, L], with N odd so that x = 0 is a node (the
background charge and the kink of |x| sit there).  ``integrate`` is the
trapezoid rule and ``kinetic_energy`` the forward-difference Dirichlet
form; the pair is used consistently everywhere so that the discrete
kernel identities (prefix-sum evaluation, Poisson inversion, half-axis
decoupling) hold to rounding error rather than to discretization error.

The solvers iterate a point charge's even state on a private half grid,
the nodes 0..L of a symmetric grid (``_HalfGrid``).  Its weights are
folded, [h, 2h, ..., 2h, h], so the mass, the kinetic energy and every
inner product of an even function equal the full grid's; its origin
reflects, so x = L is its one Dirichlet end.  The code that reads a grid
takes the free nodes (``_free``) and the reflecting origin
(``_reflecting``) from it rather than assuming both ends are pinned.  A
solver returns the state mirrored onto the full grid, where it is even
bit for bit; the public ``Grid`` is always the full, symmetric mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridMismatchError


@dataclass
class Grid:
    """Symmetric uniform mesh on [-L, L] with an odd number of nodes.

    Attributes
    ----------
    L : float
        Half-width of the domain, > 0.
    N : int
        Number of nodes, odd and >= 3.
    h : float
        Node spacing 2L/(N-1).
    x : numpy.ndarray
        Node positions.  Built from the centre outwards, so x = 0 exactly
        at the middle node and x[i] == -x[N-1-i] exactly.
    weights : numpy.ndarray
        Trapezoid quadrature weights: h at interior nodes, h/2 at the ends.
        Both arrays are read-only: states on the mesh share them.
    """

    L: float
    N: int
    h: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    _free = slice(1, -1)  # the nodes a Dirichlet stencil leaves free
    _reflecting = False  # whether x = 0 is a reflecting end (a half grid's)

    def __post_init__(self):
        if not np.isfinite(self.L):
            raise ValueError(f"half-width L must be finite, got {self.L}")
        if self.L <= 0:
            raise ValueError(f"half-width must be positive, got {self.L}")
        if not np.isfinite(self.N) or int(self.N) != self.N:
            raise ValueError(f"node count must be an integer, got {self.N}")
        self.N = int(self.N)
        if self.N < 3:
            raise ValueError(f"need at least 3 nodes, got {self.N}")
        if self.N % 2 == 0:
            raise ValueError(f"node count must be odd so x=0 is a node, got {self.N}")
        self.L = float(self.L)
        self.h = 2.0 * self.L / (self.N - 1)
        # the stencil reads 1/h^2 and the eigensolve's tolerance 4/h^2: both must be finite
        h2 = self.h * self.h
        if not 0.0 < h2 < np.inf or 4.0 / h2 == np.inf:
            raise ValueError(f"node spacing h = {self.h!r}: h^2 and 4/h^2 must be finite")
        self.x = self.h * (np.arange(self.N) - (self.N - 1) // 2)
        w = np.full(self.N, self.h)
        w[0] = w[-1] = 0.5 * self.h
        self.weights = w
        self.x.flags.writeable = w.flags.writeable = False

    @property
    def center_index(self) -> int:
        return (self.N - 1) // 2

    def same_mesh(self, other: "Grid") -> bool:
        return self.N == other.N and self.L == other.L

    def _pin(self, values: np.ndarray) -> np.ndarray:
        """Zero the Dirichlet ends of ``values`` in place, and return it."""
        values[0] = values[-1] = 0.0
        return values


class _HalfGrid(Grid):
    """The nodes 0, h, ..., L of a symmetric grid, for its even functions.

    x and h are the full grid's bit for bit.  The weights are folded,
    [h, 2h, ..., 2h, h], so an even function's mass and every inner
    product of two even functions equal the full grid's; N is the half
    grid's own node count, (N_full + 1) / 2.  The origin is a reflecting
    end (u_-1 = u_1), so u_0 is free and only x = L is pinned.
    """

    _free = slice(0, -1)
    _reflecting = True

    def __init__(self, full: Grid):
        c = full.center_index
        self.L, self.N, self.h = full.L, c + 1, full.h
        self.x = full.x[c:]
        w = 2.0 * full.weights[c:]
        w[0] = full.h
        w.flags.writeable = False
        self.weights = w

    def _pin(self, values: np.ndarray) -> np.ndarray:
        values[-1] = 0.0
        return values


@dataclass
class Samples:
    """Real-valued samples of a function on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.N,):
            raise ValueError(
                f"expected {self.grid.N} samples, got shape {self.values.shape}"
            )

    def with_values(self, values) -> "Samples":
        return Samples(self.grid, values)


def from_function(grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> Samples:
    """Sample a vectorized callable on the grid nodes, into a new array."""
    return Samples(grid, np.array(fn(grid.x), dtype=float))


def require_same_mesh(a: Grid, b) -> None:
    """Raise :class:`GridMismatchError` unless b (a Grid or a SolverConfig) has a's L and N."""
    if not a.same_mesh(b):
        raise GridMismatchError(f"mesh mismatch: (L={a.L}, N={a.N}) vs (L={b.L}, N={b.N})")


def integrate(f: Samples) -> float:
    """Trapezoid rule for the integral of f over [-L, L]."""
    return float(np.dot(f.grid.weights, f.values))


def kinetic_energy(u: Samples) -> float:
    """Forward-difference Dirichlet form sum (u[i+1]-u[i])^2 / h.

    Approximates the integral of u'(x)^2 with u truncated to zero outside
    [-L, L]; it is exactly the quadratic form of the tridiagonal Dirichlet
    Laplacian used by the eigen-solver.  On a half grid every difference
    has its mirror image on x < 0, so the sum counts twice.
    """
    d = np.diff(u.values)
    dd = float(np.dot(d, d))
    if u.grid._reflecting:
        dd *= 2.0
    return dd / u.grid.h


def normalize(u: Samples) -> Samples:
    """Scale u so that the trapezoid integral of u^2 is exactly 1.

    Raises ValueError unless that integral is finite and positive.  The
    result is written over the buffer that held u^2.
    """
    sq = u.values * u.values
    mass = float(np.dot(u.grid.weights, sq))
    if not 0.0 < mass < np.inf:  # also false for NaN
        raise ValueError(f"cannot normalize a function with L2 mass {mass!r}")
    return Samples(u.grid, np.divide(u.values, np.sqrt(mass), out=sq))
