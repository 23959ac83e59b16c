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
from .grid import Samples, integrate, kinetic_energy
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


def _shifted_hamiltonian(uv: np.ndarray, vv: np.ndarray, h: float, eps: float) -> np.ndarray:
    """(-D2 + V - eps) u on the interior nodes, embedded with zero ends."""
    # -(uv[2:] - 2 uv[1:-1] + uv[:-2]) / h^2 + (vv[1:-1] - eps) uv[1:-1],
    # operation by operation in two buffers; -(a) / b = a / -b bit for bit
    out = np.empty_like(uv)
    o = out[1:-1]
    np.multiply(uv[1:-1], 2.0, out=o)
    np.subtract(uv[2:], o, out=o)
    o += uv[:-2]
    o /= -(h**2)
    pot = np.subtract(vv[1:-1], eps)
    pot *= uv[1:-1]
    o += pot
    out[0] = out[-1] = 0.0
    return out


def _hamiltonian_scale(h: float, vmin: float, vmax: float) -> float:
    """4/h^2 + max |V| over the interior nodes, which bounds ||H|| and so its rounding."""
    return 4.0 / h**2 + max(vmax, -vmin)


def _hamiltonian_factor(vv: np.ndarray, h: float, sigma: float):
    """LAPACK dpttrf factor (d, e) of H - sigma; None unless sigma < lambda_1."""
    if vv.size < 5:
        raise ValueError(f"the discrete Hamiltonian needs at least 5 nodes, got N = {vv.size}")
    d = np.add(vv[1:-1], 2.0 / h**2)
    d -= sigma
    d, e, info = dpttrf(d, np.full(vv.size - 3, -1.0 / h**2), overwrite_d=True, overwrite_e=True)
    return (d, e) if info == 0 else None


def _residual_norm(r: np.ndarray, h: float) -> float:
    return float(np.sqrt(h * np.dot(r[1:-1], r[1:-1])))


def el_residual(u: Samples, epsilon: float, bg: BackgroundCharge) -> float:
    """Discrete L2 norm of -D2 u + V u - eps u over the interior nodes.

    D2 is the standard second difference with Dirichlet ends and V is built
    from (u, bg).  The solvers read the same norm of the same stencil from
    the V their accepted candidate already holds.
    """
    v = effective_potential(u, bg)
    return _residual_norm(_shifted_hamiltonian(u.values, v.values, u.grid.h, epsilon), u.grid.h)
