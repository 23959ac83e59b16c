"""Ground-state solvers: damped SCF eigen-iteration and projected gradient.

Both methods drive the same coupled fixed point -u'' + Vu = eps u with
V = -(1/2)|x-y| * (u^2 + rho), share the tridiagonal Dirichlet ground
eigenpair kernel, preserve unit L2 mass at every accepted iterate, and
enforce a non-increasing trace of the descent objective (kinetic +
coulomb/2) after an initial transient.  Subcritical backgrounds (z < 1)
have no bound state; the solvers detect the resulting mass flight to the
domain boundary and raise :class:`DivergingEnergyError`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .background import BackgroundCharge, background_potential, recenter_shift, total_charge
from .energy import EnergyBreakdown, candidate_energy, el_residual, solver_objective
from .errors import (
    DivergingEnergyError,
    LineSearchStalledError,
    MaxIterExceededError,
    NoConvergenceError,
)
from .grid import Grid, Samples, normalize

_ALPHA_FLOOR = 1e-3
_OBJECTIVE_FLOOR = -1e4
_BOUNDARY_FRACTION = 0.9
_BOUNDARY_MASS_LIMIT = 0.1
_GD_FIRST_STEP = 1e-4  # gradient step before the first Barzilai-Borwein quotient


@dataclass
class SolverConfig:
    """Grid, damping and stopping parameters shared by both solvers."""

    L: float = 30.0
    N: int = 6001
    scf_damping: float = 0.6
    tol_energy: float = 1e-10
    tol_residual: float = 1e-7
    max_iter: int = 20000

    def __post_init__(self):
        if not (0.0 < self.scf_damping <= 1.0):
            raise ValueError(f"scf_damping must lie in (0, 1], got {self.scf_damping}")
        for name in ("tol_energy", "tol_residual"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class GroundState:
    """Converged minimizer with its multiplier, energies and trace."""

    u: Samples
    epsilon: float
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    history: list = field(repr=False)  # (objective, residual) per accepted iterate
    objective: float = 0.0


def ground_eigenpair(V: Samples) -> tuple[float, Samples]:
    """Lowest eigenpair of -D2 + V with Dirichlet ends.

    The matrix is symmetric tridiagonal with diagonal 2/h^2 + V_i and
    off-diagonal -1/h^2 over the interior nodes; the eigenvalue comes from
    bisection with Sturm sequence counts and the eigenvector from inverse
    iteration (LAPACK stebz/stein).  u is embedded with zero ends,
    normalized to unit trapezoid mass and sign-fixed so u(0) >= 0.
    """
    g = V.grid
    h = g.h
    diag = 2.0 / h**2 + V.values[1:-1]
    off = np.full(g.N - 3, -1.0 / h**2)
    vec = None
    for _ in range(2):
        try:
            w, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
            vec = vecs[:, 0]
            break
        except np.linalg.LinAlgError:
            diag = diag * (1.0 + 1e-14) + 1e-14  # jitter and retry once
    if vec is None:
        raise NoConvergenceError("tridiagonal eigensolve failed after restart")
    u = np.zeros(g.N)
    u[1:-1] = vec
    c = g.center_index
    if u[c] < 0 or (u[c] == 0 and u.sum() < 0):
        u = -u
    return float(w[0]), normalize(Samples(g, u))


def default_initial_guess(bg: BackgroundCharge, grid: Grid) -> Samples:
    """Normalized unit-width Gaussian centered at the charge barycenter."""
    p = recenter_shift(bg)
    vals = np.exp(-0.5 * (grid.x - p) ** 2)
    vals[0] = vals[-1] = 0.0
    return normalize(Samples(grid, vals))


def _boundary_mass_fraction(u: Samples) -> float:
    g = u.grid
    sq = u.values * u.values
    mask = np.abs(g.x) > _BOUNDARY_FRACTION * g.L
    total = float(np.dot(g.weights, sq))
    return float(np.dot(g.weights[mask], sq[mask])) / total


def _check_divergence(u: Samples, bg: BackgroundCharge, objective: float, history):
    if objective < _OBJECTIVE_FLOOR:
        raise DivergingEnergyError(
            f"objective fell below {_OBJECTIVE_FLOOR}; no bound state", history
        )
    z = -total_charge(bg)
    if z < 1.0 - 1e-9 and _boundary_mass_fraction(u) > _BOUNDARY_MASS_LIMIT:
        raise DivergingEnergyError(
            f"mass accumulating at the domain boundary (z = {z:.4g} < 1)", history
        )


def _warn_if_truncated(u: Samples):
    tail = _boundary_mass_fraction(u)
    if tail > 1e-10:
        warnings.warn(
            f"tail mass {tail:.2e} beyond 0.9 L; consider a larger half-width",
            RuntimeWarning,
            stacklevel=3,
        )


def _prepare_start(bg, u0, grid):
    if u0 is None:
        return default_initial_guess(bg, grid)
    if not u0.grid.same_mesh(grid):
        raise ValueError("initial guess lives on a different mesh than the config grid")
    return normalize(u0)


def scf_solve(
    bg: BackgroundCharge,
    cfg: SolverConfig | None = None,
    u0: Samples | None = None,
) -> GroundState:
    """Damped self-consistent field iteration.

    Each pass takes the ground eigenpair of -D2 + V, with V the accepted
    iterate's potential, and mixes densities, u^2 <- (1-a) u^2 + a u_new^2.
    The damping a is halved (never below 1e-3) whenever the descent
    objective would not fall by 1e-4 of the decrease its slope predicts,
    which keeps the accepted trace non-increasing.
    Stops when |delta objective| <= tol_energy and the Euler-Lagrange
    residual <= tol_residual.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    grid = Grid(cfg.L, cfg.N)
    v_bg = background_potential(bg, grid)
    cur = solver_objective(_prepare_start(bg, u0, grid), v_bg)
    alpha = cfg.scf_damping
    history: list = []
    for it in range(1, cfg.max_iter + 1):
        eps, u_lin = ground_eigenpair(cur.V)
        obj = cur.objective
        # The objective is convex in the density, so its slope along the
        # mixing direction is at most eps - <u, H u> <= 0.  Asking for a
        # share of that decrease keeps the damping from settling into a
        # two-cycle whose objective barely falls while its residual stays.
        slope = eps - cur.kinetic - float(np.dot(grid.weights, cur.V.values * cur.u.values**2))
        while True:
            dens = (1.0 - alpha) * cur.u.values**2 + alpha * u_lin.values**2
            new = solver_objective(normalize(Samples(grid, np.sqrt(dens))), v_bg)
            bound = obj + 1e-4 * alpha * slope + 1e-12 * max(1.0, abs(obj))
            if new.objective <= bound or alpha <= _ALPHA_FLOOR:
                break
            alpha *= 0.5
        res = el_residual(new.u, eps, bg, potential=new.V)
        delta = abs(new.objective - obj)
        cur = new
        history.append((cur.objective, res))
        _check_divergence(cur.u, bg, cur.objective, history)
        if delta <= cfg.tol_energy and res <= cfg.tol_residual:
            _warn_if_truncated(cur.u)
            energy = candidate_energy(cur, bg)
            return GroundState(cur.u, eps, energy, it, True, history, cur.objective)
    raise MaxIterExceededError(
        f"scf did not converge in {cfg.max_iter} iterations", history
    )


def _apply_hamiltonian(uv: np.ndarray, vv: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(uv)
    out[1:-1] = -(uv[2:] - 2.0 * uv[1:-1] + uv[:-2]) / h**2 + vv[1:-1] * uv[1:-1]
    return out


def gradient_solve(
    bg: BackgroundCharge,
    cfg: SolverConfig | None = None,
    u0: Samples | None = None,
) -> GroundState:
    """Projected gradient descent on the unit sphere.

    The descent direction is the tangent part of g = 2(-D2 u + V u), with V
    the potential the accepted iterate's objective was read from; steps
    are proposed by a Barzilai-Borwein quotient and safeguarded by Armijo
    backtracking on the descent objective, then the iterate is renormalized.
    The multiplier is reported as the Rayleigh quotient at convergence;
    stopping rules match :func:`scf_solve`.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    grid = Grid(cfg.L, cfg.N)
    w = grid.weights
    h = grid.h

    def inner(a, b):
        return float(np.dot(w * a, b))

    v_bg = background_potential(bg, grid)
    cur = solver_objective(_prepare_start(bg, u0, grid), v_bg)
    u, obj = cur.u, cur.objective
    hu = _apply_hamiltonian(u.values, cur.V.values, h)
    ray = inner(u.values, hu)
    gt = 2.0 * (hu - ray * u.values)
    prev_obj = None
    du = dg = None
    step = _GD_FIRST_STEP
    history: list = []
    for it in range(1, cfg.max_iter + 1):
        gnorm2 = inner(gt, gt)
        res = 0.5 * np.sqrt(gnorm2)
        history.append((obj, res))
        if res <= cfg.tol_residual and (
            prev_obj is None or abs(obj - prev_obj) <= cfg.tol_energy
        ):
            _warn_if_truncated(u)
            return GroundState(u, ray, candidate_energy(cur, bg), it, True, history, obj)
        if du is not None:
            denom = inner(du, dg)
            if denom > 0:
                step = inner(du, du) / denom
            step = min(max(step, 1e-12), 1e3)
        # Near the optimum the predicted decrease ~ s * ||g||^2 drops below
        # the rounding floor of the objective; the extra term keeps the
        # backtracking from rejecting such numerically flat steps.
        floor = 4e-16 * max(1.0, abs(obj))
        st = step
        while True:
            cand = u.values - st * gt
            cand[0] = cand[-1] = 0.0
            trial = solver_objective(normalize(Samples(grid, cand)), v_bg)
            if trial.objective <= obj - 1e-4 * st * gnorm2 + floor:
                break
            st *= 0.5
            if st < 1e-20:
                raise LineSearchStalledError(
                    f"no descent step found at iteration {it}", history
                )
        hu = _apply_hamiltonian(trial.u.values, trial.V.values, h)
        ray = inner(trial.u.values, hu)
        gt_new = 2.0 * (hu - ray * trial.u.values)
        du = trial.u.values - u.values
        dg = gt_new - gt
        cur, prev_obj = trial, obj
        u, obj, gt = cur.u, cur.objective, gt_new
        step = st
        _check_divergence(u, bg, obj, history)
    raise MaxIterExceededError(
        f"gradient descent did not converge in {cfg.max_iter} iterations", history
    )
