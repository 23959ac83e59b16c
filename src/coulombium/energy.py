"""The variational objective, the self-consistent potential and residuals.

The reported total follows the convention

    E[u] = int u'^2 + (1/2) int int -|x-y| (u^2+rho)(x) (u^2+rho)(y),

while the iterative solvers drive the coupled linear/Poisson fixed point
-u'' + V u = eps u, -V'' = u^2 + rho.  That fixed point is stationary for
kinetic + coulomb/2 (the pair term is quadratic in the density, so its
variational factor is half of the reported one).

On the solver path every quantity is read from one potential:
``solver_objective`` builds V = V_el + V_bg for a candidate with a single
prefix-sum pass and returns the candidate's kinetic term, its Coulomb term
2 int V_bg u^2 + int V_el u^2 and the objective kinetic + coulomb/2, with
the background potential V_bg built once per solve by the caller.  The
g-kernel quartic form ``c_functional`` of a point background equals that
Coulomb term to rounding, which the tests hold as an identity.  The
discrete Hamiltonian H = -D2 + V (Dirichlet ends) lives only here: one
stencil for (H - eps) u, one Rayleigh quotient <u, H u> = kinetic +
int V u^2, one residual norm and one LAPACK factor of H - sigma serve the
eigensolve, both solvers and :func:`el_residual`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf

from .background import BackgroundCharge, PointCharge, background_potential
from .errors import NotNormalizedError
from .grid import Samples, integrate, kinetic_energy
from .kernel import _point_masses, potential_from_density


@dataclass
class EnergyBreakdown:
    """Energy split: total = kinetic + coulomb; background_const is reported, never added."""

    kinetic: float
    coulomb: float
    background_const: float
    total: float


@dataclass
class Candidate:
    """A solver iterate with the quantities read from its one potential."""

    u: Samples
    V: Samples  # V_el + V_bg
    kinetic: float
    coulomb: float  # 2 int V_bg u^2 + int V_el u^2
    objective: float  # kinetic + coulomb / 2


def solver_objective(u: Samples, v_bg: Samples) -> Candidate:
    """Evaluate a candidate u against the background potential v_bg.

    One ``potential_from_density`` call gives V_el; the objective
    kinetic + coulomb/2 is stationary on the unit sphere exactly at
    solutions of the coupled system -u'' + Vu = eps u, -V'' = u^2 + rho.
    """
    sq = u.values * u.values
    v_el = potential_from_density(u.with_values(sq)).values
    w = u.grid.weights
    kin = kinetic_energy(u)
    coul = 2.0 * float(np.dot(w, v_bg.values * sq)) + float(np.dot(w * sq, v_el))
    return Candidate(u, u.with_values(v_el + v_bg.values), kin, coul, kin + 0.5 * coul)


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
    if abs(mass - 1.0) > 1e-8:
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
    out = np.zeros_like(uv)
    out[1:-1] = -(uv[2:] - 2.0 * uv[1:-1] + uv[:-2]) / h**2 + (vv[1:-1] - eps) * uv[1:-1]
    return out


def _hamiltonian_factor(vv: np.ndarray, h: float, sigma: float):
    """LAPACK dpttrf factor (d, e) of H - sigma; None unless sigma < lambda_1."""
    if vv.size < 5:
        raise ValueError(f"the discrete Hamiltonian needs at least 5 nodes, got N = {vv.size}")
    off = np.full(vv.size - 3, -1.0 / h**2)
    d, e, info = dpttrf(2.0 / h**2 + vv[1:-1] - sigma, off, overwrite_d=True)
    return (d, e) if info == 0 else None


def _residual_norm(r: np.ndarray, h: float) -> float:
    return float(np.sqrt(h * np.dot(r[1:-1], r[1:-1])))


def _rayleigh_quotient(c: Candidate) -> float:
    """<u, H u> = kinetic + int V u^2 of a candidate whose u has zero ends."""
    return c.kinetic + float(np.dot(c.u.grid.weights, c.V.values * c.u.values**2))


def el_residual(
    u: Samples,
    epsilon: float,
    bg: BackgroundCharge,
    potential: Samples | None = None,
) -> float:
    """Discrete L2 norm of -D2 u + V u - eps u over the interior nodes.

    D2 is the standard second difference with Dirichlet ends; V is rebuilt
    from (u, bg) unless an explicit potential is supplied.
    """
    v = potential if potential is not None else effective_potential(u, bg)
    return _residual_norm(_shifted_hamiltonian(u.values, v.values, u.grid.h, epsilon), u.grid.h)


def boundary_flux_diagnostic(u: Samples, bg: BackgroundCharge) -> tuple[float, float]:
    """One-sided estimates of V V' at the two domain ends.

    The two energy conventions coincide when this boundary term vanishes at
    infinity; on a truncated grid it is reported as a diagnostic only.
    """
    v = effective_potential(u, bg).values
    h = u.grid.h
    left = v[0] * (v[1] - v[0]) / h
    right = v[-1] * (v[-1] - v[-2]) / h
    return float(left), float(right)
