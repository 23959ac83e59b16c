"""The variational objective, the self-consistent potential and residuals.

The reported total follows the convention

    E[u] = int u'^2 + (1/2) int int -|x-y| (u^2+rho)(x) (u^2+rho)(y),

while the iterative solvers drive the coupled linear/Poisson fixed point
-u'' + V u = eps u, -V'' = u^2 + rho.  That fixed point is stationary for
kinetic + coulomb/2 (the pair term is quadratic in the density, so its
variational factor is half of the reported one).

On the solver path each candidate is evaluated once: ``solver_objective``
builds V = V_el + V_bg with a single prefix-sum pass (V_bg built once per
solve by the caller) and returns u, V, the kinetic term, the Coulomb term
2 int V_bg u^2 + int V_el u^2, the objective kinetic + coulomb/2 and the
Rayleigh quotient <u, H u> = kinetic + (int V_bg u^2 + int V_el u^2),
read from the Coulomb term's two sums, and the bound ``rounding`` on the
objective's evaluation error, read from the same sums; u^2 lives only
while it evaluates.
The g-kernel quartic form ``c_functional`` of a point background equals
that Coulomb term to rounding, which the tests hold as an identity.  The
discrete Hamiltonian H = -D2 + V (Dirichlet ends) lives only here: one
stencil for (H - eps) u, one residual norm and one LAPACK factor of
H - sigma serve both solvers and :func:`el_residual`.  The eigensolve
factors its shifts here and applies the stencil only to its start: each
inverse-iteration step reads its quotient and residual from the system it
solved.  The stencil, the factor's diagonal, ``solver_objective`` and the
kernel's ``potential_from_density`` run in place, operation for operation
as their expression forms, so they return the same bits.

Each reads its grid rather than assuming both ends are pinned.  On the
solvers' half grid for a point charge (:mod:`coulombium.grid`) the weights
are folded, the kinetic sum counts twice and the potential is the
reflected kernel's, so an even state's objective, Rayleigh quotient and
residual are the full grid's to rounding; the stencil's origin row
reflects, and the factor is of H in the symmetrized coordinates
y_0 / sqrt(2).  For a point charge, ``effective_potential(state.u, bg)``
on the returned full-grid state (even bit for bit) therefore matches the
accepted iterate's V to rounding, not bit for bit: by at most 2.4e-13 at
L = 30, N <= 60001 and z from 1 to 6, where V's electron part reaches
L/2 = 15.  For a sampled background it is the same V, bit for bit.

LAPACK is bound here, once for the package: ``dpttrf`` and ``dpttrs`` come
straight from SciPy's ``_flapack`` extension, loaded from its file without
running the ``scipy.linalg`` package import (most of the package's import
time), or from ``scipy.linalg.lapack`` if that load fails.  Either way they
are the same Fortran routines.  The solvers take both names from here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .background import BackgroundCharge, PointCharge, background_potential
from .errors import NotNormalizedError
from .grid import Grid, Samples, integrate, kinetic_energy
from .kernel import _point_masses, potential_from_density

_FLAPACK = "scipy.linalg._flapack"
# Ulps of kinetic + |int V_bg u^2| + |int V_el u^2| / 2, the magnitudes a
# candidate's objective sums, in its rounding allowance; two objectives
# whose difference is within the sum of their allowances are equal to
# rounding (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# ch. 3-4).  Against an extended-precision evaluation near the minimizers of
# seeded wells, the difference of two objectives was off by up to 1.5 of
# those ulps at N = 6001, 5.4 at N = 60001 and 7.6 at N = 240001; the prefix
# sums of V_el round alike on nearby states, so most of their error cancels.
_OBJECTIVE_ULPS = 4.0
_SQRT2 = float(np.sqrt(2.0))


def _load_flapack():
    """SciPy's LAPACK extension module, loaded from its file if not yet imported."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    linalg = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
    path = next(p for p in (os.path.join(linalg, "_flapack" + s)
                            for s in importlib.machinery.EXTENSION_SUFFIXES) if os.path.isfile(p))
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(_FLAPACK, module)  # a later scipy.linalg import reuses it


def _bind_lapack():
    """(dpttrf, dpttrs) from ``_load_flapack``, or from scipy.linalg.lapack if it fails."""
    try:
        flapack = _load_flapack()
        return flapack.dpttrf, flapack.dpttrs
    except Exception:  # the file's place is SciPy's private layout, so any failure falls back
        from scipy.linalg.lapack import dpttrf, dpttrs
        return dpttrf, dpttrs


dpttrf, dpttrs = _bind_lapack()


@dataclass
class EnergyBreakdown:
    """Energy split: total = kinetic + coulomb; background_const is reported, never added."""

    kinetic: float
    coulomb: float
    background_const: float
    total: float


@dataclass
class Candidate:
    """A solver iterate: u, its potential V and the numbers read from V."""

    u: Samples
    V: Samples  # V_el + V_bg
    kinetic: float
    coulomb: float  # 2 int V_bg u^2 + int V_el u^2
    objective: float  # kinetic + coulomb / 2
    ray: float  # Rayleigh quotient <u, H u> = kinetic + int V u^2 (zero-ended u)
    rounding: float  # _OBJECTIVE_ULPS ulps of the magnitudes the objective sums


def solver_objective(u: Samples, v_bg: Samples) -> Candidate:
    """Evaluate a candidate u against the background potential v_bg.

    One ``potential_from_density`` call gives V_el; the objective
    kinetic + coulomb/2 is stationary on the unit sphere exactly at
    solutions of the coupled system -u'' + Vu = eps u, -V'' = u^2 + rho.
    Its rounding allowance is _OBJECTIVE_ULPS ulps of
    kinetic + |int V_bg u^2| + |int V_el u^2| / 2.
    """
    sq = u.values * u.values
    v = potential_from_density(u.with_values(sq)).values  # V_el, then V in place
    w = u.grid.weights
    kin = kinetic_energy(u)
    wsq = w * sq
    pair = float(np.dot(wsq, v))
    bg = float(np.dot(w, np.multiply(v_bg.values, sq, out=wsq)))
    v += v_bg.values
    coul = 2.0 * bg + pair
    rounding = _OBJECTIVE_ULPS * np.finfo(float).eps * (kin + abs(bg) + 0.5 * abs(pair))
    return Candidate(u, u.with_values(v), kin, coul, kin + 0.5 * coul, kin + (bg + pair),
                     rounding)


def _background_const(bg: BackgroundCharge, v_bg: Samples) -> float:
    """(1/2) int int -|x-y| rho(x) rho(y) = int rho V_bg, read from the built v_bg.

    It is 0 for the point charge, whose self-energy the convention drops.
    """
    if isinstance(bg, PointCharge):
        return 0.0
    return float(np.dot(_point_masses(bg.rho), v_bg.values))


def candidate_energy(c: Candidate, background_const: float) -> EnergyBreakdown:
    """Reported energy of an evaluated, normalized candidate.

    coulomb is the candidate's 2 int V_bg u^2 + (1/2) * pair energy of u^2
    with itself, for every background.  The background's own rho*rho
    constant (``_background_const``) is reported beside the total and never
    added, since it does not affect minimizers.
    """
    mass = integrate(c.u.with_values(c.u.values * c.u.values))
    if not abs(mass - 1.0) <= 1e-8:  # NaN fails it too
        raise NotNormalizedError(f"integral of u^2 is {mass!r}, expected 1 within 1e-8")
    return EnergyBreakdown(c.kinetic, c.coulomb, background_const, c.kinetic + c.coulomb)


def total_energy(u: Samples, bg: BackgroundCharge) -> EnergyBreakdown:
    """Evaluate the energy of a normalized wave function (see candidate_energy)."""
    v_bg = background_potential(bg, u.grid)
    return candidate_energy(solver_objective(u, v_bg), _background_const(bg, v_bg))


def effective_potential(u: Samples, bg: BackgroundCharge) -> Samples:
    """V = -(1/2) int |x-y| (u^2 + rho)(y) dy on the grid.

    The electron part comes from the prefix-sum kernel; the background part
    is exact for a point charge.
    """
    return solver_objective(u, background_potential(bg, u.grid)).V


def _shifted_hamiltonian(uv: np.ndarray, vv: np.ndarray, grid: Grid, eps: float) -> np.ndarray:
    """(-D2 + V - eps) u on the free nodes of ``grid``, embedded with zero ends.

    On a half grid the origin reflects, u_-1 = u_1: its row is
    (2 u_0 - 2 u_1) / h^2 + (V_0 - eps) u_0, the full grid's centre row
    of the mirrored u, operation for operation.
    """
    # -(uv[2:] - 2 uv[1:-1] + uv[:-2]) / h^2 + (vv[1:-1] - eps) uv[1:-1],
    # operation by operation in two buffers; -(a) / b = a / -b bit for bit
    h2 = -(grid.h**2)
    out = np.empty_like(uv)
    o = out[1:-1]
    np.multiply(uv[1:-1], 2.0, out=o)
    np.subtract(uv[2:], o, out=o)
    o += uv[:-2]
    o /= h2
    pot = np.subtract(vv[1:-1], eps)
    pot *= uv[1:-1]
    o += pot
    out[0] = out[-1] = 0.0
    if grid._reflecting:
        u0, u1 = float(uv[0]), float(uv[1])
        out[0] = ((u1 - 2.0 * u0) + u1) / h2 + (float(vv[0]) - eps) * u0
    return out


def _hamiltonian_scale(h: float, vmin: float, vmax: float) -> float:
    """4/h^2 + max |V| over the free nodes, which bounds ||H|| and so its rounding."""
    return 4.0 / h**2 + max(vmax, -vmin)


def _hamiltonian_factor(vv: np.ndarray, grid: Grid, sigma: float):
    """LAPACK dpttrf factor (d, e) of H - sigma; None unless sigma < lambda_1.

    H is symmetric tridiagonal over the free nodes: diagonal 2/h^2 + V_i,
    off-diagonal -1/h^2.  On a half grid the origin's row
    (2 u_0 - 2 u_1) / h^2 is not symmetric, and H is taken in the scaled
    coordinates y_0 / sqrt(2), y_i (i > 0), in which it is: the off-diagonal
    entry at the origin becomes -sqrt(2)/h^2.  The folded weights make the
    Euclidean norm of those coordinates the full grid's norm of the
    mirrored vector over sqrt(2), and H's eigenvalues there are the full
    grid's even-sector ones.
    """
    h = grid.h
    nodes = 2 * vv.size - 1 if grid._reflecting else vv.size  # the full mesh's node count
    if nodes < 5:
        raise ValueError(f"the discrete Hamiltonian needs at least 5 nodes, got N = {nodes}")
    d = np.add(vv[grid._free], 2.0 / h**2)
    d -= sigma
    e = np.full(d.size - 1, -1.0 / h**2)
    if grid._reflecting:
        e[0] *= _SQRT2
    d, e, info = dpttrf(d, e, overwrite_d=True, overwrite_e=True)
    return (d, e) if info == 0 else None


def _squares(v: np.ndarray) -> tuple[float, float]:
    """(m, sum (v / m)^2), so |v| = m sqrt(sum): m = 1, or max |v| where sum v^2
    overflows, as on a grid so small that the stencil's entries pass 1e154."""
    with np.errstate(over="ignore"):
        s = float(np.dot(v, v))
    if s == np.inf and (m := float(np.max(np.abs(v)))) < np.inf:
        w = v / m
        return m, float(np.dot(w, w))
    return 1.0, s


def _residual_norm(r: np.ndarray, grid: Grid) -> float:
    """sqrt(h sum r^2) over the free nodes; a half grid's folded weights are h at 0, 2h beyond."""
    m, s = _squares(r[1:-1])
    if grid._reflecting:
        r0 = float(r[0]) / m
        s = 2.0 * s + r0 * r0
    return m * float(np.sqrt(grid.h * s))


def el_residual(u: Samples, epsilon: float, bg: BackgroundCharge) -> float:
    """Discrete L2 norm of -D2 u + V u - eps u over the interior nodes.

    D2 is the standard second difference with Dirichlet ends and V is built
    from (u, bg).  The solvers read the same norm of the same stencil from
    the V their accepted candidate already holds; for a point charge that
    V is the half grid's, so the state's residual matches this one to
    rounding rather than bit for bit.
    """
    v = effective_potential(u, bg)
    return _residual_norm(_shifted_hamiltonian(u.values, v.values, u.grid, epsilon), u.grid)
