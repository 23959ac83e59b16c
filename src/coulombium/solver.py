"""Ground-state solvers: Anderson-mixed SCF and preconditioned gradient descent.

Both drive the fixed point -u'' + Vu = eps u, V = -(1/2)|x-y| * (u^2 + rho),
through unit-mass iterates whose descent objective (kinetic + coulomb/2) is
kept from rising; only SCF calls the ground eigenpair, so each checks the other.
Each method supplies only its accepted iterates, and each passes one Armijo
test, ``_descends``: SCF's Anderson candidate directly, every other step
through ``_descend``'s backtracking along the method's own path.  One
driver builds the grid, V_bg and the start (a supplied start's two end
values are zeroed), records the trace and applies the single stopping
rule: an iterate is the ground state when its Euler-Lagrange residual
(``el_residual`` at its multiplier, from the one discrete Hamiltonian in
:mod:`coulombium.energy`) is at most tol_residual and its objective moved
by at most tol_energy from the previous iterate's (the start's, for the
first).  Subcritical backgrounds (z < 1) have no bound state; ``_solve`` raises
:class:`DivergingEnergyError` as soon as an iterate carries more than 1e-10
of its mass beyond 0.9 L, where at z >= 1 a converged state's tail only
warns of truncation, and refuses any subcritical iterate that meets the
stopping rule as a box-held state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from scipy.linalg.lapack import dpttrs

from .background import BackgroundCharge, background_potential, recenter_shift, total_charge
from .energy import (Candidate, EnergyBreakdown, _background_const, _hamiltonian_factor,
                     _rayleigh_quotient, _residual_norm, _shifted_hamiltonian, candidate_energy,
                     el_residual, solver_objective)
from .errors import (
    DivergingEnergyError,
    LineSearchStalledError,
    MaxIterExceededError,
    NoConvergenceError,
    SolverError,
)
from .grid import Grid, Samples, normalize, require_same_mesh

_SCF_FIRST_MIX = 0.6  # SCF mixing weight until a step fails to decrease enough
_SCF_DEPTH = 5  # density and residual differences Anderson mixing keeps
_OBJECTIVE_FLOOR = -1e4
_BOUNDARY_FRACTION = 0.9
_TAIL_MASS_LIMIT = 1e-10  # boundary mass share beyond which z < 1 diverges and z >= 1 warns
_SUBCRITICAL = 1.0 - 1e-9  # charge ratios z below this have no bound state
# s in the gradient metric P = -D2 + V0 - min V0 + s; a smaller s brings P's
# shift nearer the ground eigenvalue, s = 1 took up to 36 iterations on
# near-critical separated wells where s = 1/4 takes at most 26
_SOBOLEV_SHIFT = 0.25
_EIGEN_MAX_STEPS = 200  # inverse-iteration steps per eigensolve


@dataclass
class SolverConfig:
    """Grid and stopping parameters shared by both solvers."""

    L: float = 30.0
    N: int = 6001
    tol_energy: float = 1e-10
    tol_residual: float = 1e-7
    max_iter: int = 20000

    def __post_init__(self):
        # a NaN compares false with everything, so test finiteness first
        if not np.isfinite(self.L):
            raise ValueError(f"L must be finite, got {self.L}")
        for name in ("tol_energy", "tol_residual"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class GroundState:
    """Converged minimizer: the accepted candidate, its multiplier, energies and trace."""

    candidate: Candidate  # u, V and the objective's terms of the accepted iterate
    epsilon: float
    residual: float  # the Euler-Lagrange residual the stopping rule read
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    history: list = field(repr=False)  # (objective, residual) per accepted iterate

    @property
    def u(self) -> Samples:
        return self.candidate.u


def ground_eigenpair(V: Samples, start: Samples | None = None) -> tuple[float, Samples]:
    """Lowest eigenpair of H = -D2 + V with Dirichlet ends, by certified inverse iteration.

    H is symmetric tridiagonal over the interior nodes, with diagonal
    2/h^2 + V_i and off-diagonal -1/h^2.  Starting from y = |start| (the box
    ground state cos(pi x / 2L) by default), each step solves
    (H - sigma) y <- y with LAPACK dpttrs on energy's dpttrf factor of H - sigma.
    dpttrf succeeds exactly when sigma < lambda_1, and then (H - sigma)^-1
    is entrywise positive, so every iterate stays nonnegative and tends to
    the positive ground state, never to a sign-changing excited one
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4).

    With rho the Rayleigh quotient and r = |H y - rho y| at |y| = 1, the
    shift starts at rho - 2r, clamped below by the Gershgorin bound min V,
    and falls halfway toward min V - 1 while dpttrf refuses it.  After each
    step it rises to rho - 2 max(r, tol) when dpttrf accepts that.  A
    refusal proves lambda_1 lies below that value, and the shift bisects
    toward it instead: a start held in a shallower well, far from the
    deepest, otherwise settles on an excited state with a tiny residual.
    Iteration stops when r <= tol = 64 eps_mach (4/h^2 + max |V|) and an
    accepted shift lies within 2 tol of rho, which certifies lambda_1 in
    (rho - 2 tol, rho]; rho is the eigenvalue returned.  u is embedded with
    zero ends and normalized to unit trapezoid mass, so u >= 0.

    Raises ValueError for a non-finite V or start, or a start that vanishes
    on the interior, and :class:`NoConvergenceError` if the step cap is hit
    or the result is not one-signed.
    """
    g = V.grid
    if not np.all(np.isfinite(V.values)):
        raise ValueError("potential must be finite")
    v = V.values[1:-1]
    if start is None:
        y = np.cos((0.5 * np.pi / g.L) * g.x)
    else:
        require_same_mesh(V.grid, start.grid)
        y = np.abs(start.values)
        if not np.all(np.isfinite(y)) or not np.any(y[1:-1]):
            raise ValueError("start must be finite and nonzero on the interior")
    y[0] = y[-1] = 0.0
    tol = 64.0 * np.finfo(float).eps * (4.0 / g.h**2 + float(np.max(np.abs(v))))
    vmin = float(np.min(v))  # Gershgorin: lambda_1 > min V
    floor = vmin - 1.0  # H - floor is strictly diagonally dominant, so dpttrf accepts it

    def rayleigh(y):
        y /= np.linalg.norm(y)
        hy = _shifted_hamiltonian(y, V.values, g.h, 0.0)
        rho = float(np.dot(y, hy))
        hy -= rho * y
        return rho, float(np.linalg.norm(hy))

    def factor(sigma):
        return _hamiltonian_factor(V.values, g.h, sigma)

    rho, res = rayleigh(y)
    sigma, above = max(rho - 2.0 * res, vmin), np.inf  # lambda_1 lies in (sigma, above]
    while (fac := factor(sigma)) is None:
        sigma, above = 0.5 * (sigma + floor), sigma
    for _ in range(_EIGEN_MAX_STEPS):
        y[1:-1] = dpttrs(*fac, y[1:-1], overwrite_b=True)[0]
        rho, res = rayleigh(y)
        target = rho - 2.0 * max(res, tol)
        if target > sigma:
            if target < above and (raised := factor(target)) is not None:
                sigma, fac = target, raised
            else:
                # lambda_1 <= target: y leans on an excited state
                above = min(above, target)
                mid = 0.5 * (sigma + above)
                if (raised := factor(mid)) is not None:
                    sigma, fac = mid, raised
                else:
                    above = mid
        if res <= tol and target <= sigma:
            break  # lambda_1 lies in (sigma, rho], within 2 tol of rho
    else:
        raise NoConvergenceError(
            f"inverse iteration uncertified after {_EIGEN_MAX_STEPS} steps "
            f"(residual {res:.3e}, tolerance {tol:.3e})"
        )
    if np.any(y < 0.0):
        raise NoConvergenceError("inverse iteration returned a sign-changing vector")
    return rho, normalize(Samples(g, y))


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


def _check_divergence(u: Samples, z: float, objective: float):
    if objective < _OBJECTIVE_FLOOR:
        raise DivergingEnergyError(f"objective fell below {_OBJECTIVE_FLOOR}; no bound state")
    if z < _SUBCRITICAL and (tail := _boundary_mass_fraction(u)) > _TAIL_MASS_LIMIT:
        raise DivergingEnergyError(
            f"tail mass {tail:.2e} beyond 0.9 L at z = {z:.10g} < 1: "
            "mass is leaving for the domain boundary, and there is no bound state"
        )


def _check_tail(u: Samples):
    """Warn when a converged state carries mass near the domain's edge."""
    tail = _boundary_mass_fraction(u)
    if tail > _TAIL_MASS_LIMIT:
        warnings.warn(
            f"tail mass {tail:.2e} beyond 0.9 L; consider a larger half-width",
            RuntimeWarning,
            stacklevel=4,  # past the driver and the public solver, to their caller
        )


def _descends(obj: float, trial: Candidate, step: float, slope: float) -> bool:
    """Armijo: trial's objective is at most obj + 1e-4 step slope + 4e-16 max(1, |obj|).

    slope < 0 is the predicted rate along the step.  The last term allows a
    flat step within rounding: near the optimum the predicted decrease falls
    below it, and every step would be rejected.
    """
    return trial.objective <= obj + 1e-4 * step * slope + 4e-16 * max(1.0, abs(obj))


def _descend(cur: Candidate, v_bg: Samples, path, step: float, slope: float):
    """The first s of step, step/2, ... (down to 1e-20) whose candidate
    ``normalize(path(s))`` descends by ``_descends``."""
    obj = cur.objective
    while step >= 1e-20:
        trial = solver_objective(normalize(Samples(cur.u.grid, path(step))), v_bg)
        if _descends(obj, trial, step, slope):
            return trial, step
        step *= 0.5
    raise LineSearchStalledError(f"no descent step from objective {obj!r} down to step 1e-20")


def _solve(name: str, iterates, bg: BackgroundCharge, cfg, u0) -> GroundState:
    """Trace, check and stop the ``(candidate, eps, residual)`` that ``iterates`` yields.

    Every :class:`SolverError` raised on the way carries the trace.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    grid = Grid(cfg.L, cfg.N)
    if u0 is not None and not u0.grid.same_mesh(grid):
        raise ValueError("initial guess lives on a different mesh than the config grid")
    if u0 is not None:
        u0 = Samples(grid, np.pad(u0.values[1:-1], 1))  # no gradient step moves the ends
    u = default_initial_guess(bg, grid) if u0 is None else normalize(u0)
    v_bg = background_potential(bg, grid)
    start = solver_objective(u, v_bg)
    prev = start.objective
    z = -total_charge(bg)
    history: list = []
    try:
        for it, (cur, eps, res) in enumerate(islice(iterates(start, v_bg), cfg.max_iter), 1):
            res = float(res)
            history.append((cur.objective, res))
            _check_divergence(cur.u, z, cur.objective)
            if res <= cfg.tol_residual and abs(cur.objective - prev) <= cfg.tol_energy:
                if z < _SUBCRITICAL:
                    raise DivergingEnergyError(f"box-held state at z = {z:.10g} < 1: "
                                               "there is no bound state")
                _check_tail(cur.u)
                energy = candidate_energy(cur, _background_const(bg, v_bg))
                return GroundState(cur, eps, res, energy, it, True, history)
            prev = cur.objective
    except SolverError as exc:
        exc.history = history
        raise
    raise MaxIterExceededError(
        f"{name} did not converge in {cfg.max_iter} iterations", history
    )


def scf_solve(
    bg: BackgroundCharge,
    cfg: SolverConfig | None = None,
    u0: Samples | None = None,
) -> GroundState:
    """Self-consistent field iteration with Anderson density mixing.

    Each pass takes the ground eigenpair of -D2 + V, with V the accepted
    iterate's potential, and mixes densities.  The eigensolve starts from
    the previous pass's eigenvector (the first from the box ground state),
    which is already near the new one, so it takes a few inverse-iteration
    steps.
    The map accelerated is rho = u^2 -> u_lin^2, u_lin the ground
    eigenvector of V[rho], with residual f = u_lin^2 - u^2.  Anderson
    mixing of depth m = 5 (Anderson 1965; Walker & Ni 2011) keeps the last
    m differences d_rho_j, d_f_j of successive passes and the Gram matrix of
    the d_f_j in the trapezoid inner product, picks gamma by least squares,
    min |f - sum_j gamma_j d_f_j|, and proposes

        rho_AA = u^2 + b f - sum_j gamma_j (d_rho_j + b d_f_j),  b = 0.6,

    clipped at 0, as the candidate normalize(sqrt(rho_AA)).  It is accepted
    when it passes ``_descends`` at step b.  Otherwise the differences are
    dropped and the pass takes a damped step, u^2 <- u^2 + a f, with the
    weight a from ``_descend`` along that path: it starts at 0.6 and the
    weight accepted in one damped pass is tried in the next.  The first pass
    has no difference and is always damped.  So every accepted iterate
    passes the one Armijo test, and the trace does not rise.
    Each iterate's multiplier is its own Rayleigh quotient <u, H u> (the
    eigenvalue belongs to the previous iterate's V) and its residual is
    ``el_residual`` there; the next pass's slope reuses that quotient.
    """

    def iterates(cur: Candidate, v_bg: Samples):
        grid = cur.u.grid
        w = grid.weights
        # ring buffers of the last _SCF_DEPTH density and residual differences,
        # and the Gram matrix of the residual differences in the trapezoid product
        d_rho, d_f = np.empty((_SCF_DEPTH, grid.N)), np.empty((_SCF_DEPTH, grid.N))
        gram = np.empty((_SCF_DEPTH, _SCF_DEPTH))
        pairs = 0  # differences taken since the last reset
        prev = None  # (u^2, f) of the previous pass
        alpha = _SCF_FIRST_MIX
        u_lin = None
        ray = _rayleigh_quotient(cur)
        while True:
            eps, u_lin = ground_eigenpair(cur.V, u_lin)
            u2 = cur.u.values**2
            f = u_lin.values**2 - u2
            # The objective is convex in the density, so its slope along the
            # mixing direction is at most eps - <u, H u> <= 0.  Asking for a
            # share of that decrease keeps the damping from settling into a
            # two-cycle whose objective barely falls while its residual stays.
            slope = eps - ray
            trial = None
            if prev is not None:
                slot, held = pairs % _SCF_DEPTH, min(pairs + 1, _SCF_DEPTH)
                np.subtract(u2, prev[0], out=d_rho[slot])
                np.subtract(f, prev[1], out=d_f[slot])
                gram[slot, :held] = gram[:held, slot] = d_f[:held] @ (w * d_f[slot])
                pairs += 1
                gamma = np.linalg.lstsq(gram[:held, :held], d_f[:held] @ (w * f), rcond=None)[0]
                rho = u2 + _SCF_FIRST_MIX * f
                rho -= gamma @ d_rho[:held] + _SCF_FIRST_MIX * (gamma @ d_f[:held])
                trial = solver_objective(normalize(Samples(grid, np.sqrt(np.maximum(rho, 0.0)))),
                                         v_bg)
                if not _descends(cur.objective, trial, _SCF_FIRST_MIX, slope):
                    trial, pairs = None, 0
            prev = (u2, f)
            if trial is None:
                trial, alpha = _descend(cur, v_bg, lambda a: np.sqrt(u2 + a * f), alpha, slope)
            cur = trial
            ray = _rayleigh_quotient(cur)
            yield cur, ray, el_residual(cur.u, ray, bg, potential=cur.V)

    return _solve("scf", iterates, bg, cfg, u0)


def gradient_solve(
    bg: BackgroundCharge,
    cfg: SolverConfig | None = None,
    u0: Samples | None = None,
) -> GroundState:
    """Sobolev-preconditioned projected gradient descent on the unit sphere.

    The Euclidean tangent gradient is g_t = 2(H - ray) u, with H = -D2 + V,
    V the potential the accepted iterate's objective was read from and ray
    its Rayleigh quotient <u, H u> = kinetic + int V u^2.  The step direction
    is g_t's Riesz representative in the metric of
    P = -D2 + V0 - min V0 + s (Dirichlet ends, s = 1/4), projected onto the
    sphere's tangent space in that metric,

        d = P^-1 g_t - (<u, P^-1 g_t> / <u, P^-1 u>) P^-1 u,   <u, d> = 0.

    V0 is the start's potential, frozen for the solve: the Sobolev inner
    product int u'v' + (V0 - min V0 + s) u v (Danaila & Kazemi 2010) removes
    both the Laplacian's 1/h^2 conditioning and the potential's growth,
    (z - 1)|x|/2 far out, so the iteration count grows neither with the mesh
    nor with z.  P is built from the start's potential, not from any
    eigenpair, so the method stays independent of SCF's eigen-step; it is
    H[V0] - (min V0 - s), factored once per solve (energy's dpttrf factor)
    and applied by one two-column dpttrs per iterate.
    Steps are proposed by the Barzilai-Borwein quotient <du, dg_t> / <dg_t, dd>
    in the P-metric (0.5 at first, clamped to [1e-6, 1e3]) and safeguarded by
    ``_descend`` along s -> u - s d with slope -<g_t, d>.  The start is the first
    iterate.  Each iterate's multiplier is its Rayleigh quotient and its
    residual is ``el_residual`` there, read from the same (H - ray) u = g_t / 2.
    """

    def iterates(cur: Candidate, v_bg: Samples):
        grid = cur.u.grid
        w = grid.weights
        h = grid.h
        # P = H[V0] - (min V0 - s) is diagonally dominant with eigenvalues
        # above s, so its factor exists
        v0 = cur.V.values
        pd, pe = _hamiltonian_factor(v0, h, float(np.min(v0[1:-1])) - _SOBOLEV_SHIFT)

        def inner(a, b):
            return float(np.dot(w * a, b))

        def tangent_gradient(c: Candidate):
            ray = _rayleigh_quotient(c)
            r = _shifted_hamiltonian(c.u.values, c.V.values, h, ray)
            gt = 2.0 * r
            sol, _ = dpttrs(pd, pe, np.column_stack((gt[1:-1], c.u.values[1:-1])))
            pg, pu = sol.T
            d = np.zeros_like(gt)
            d[1:-1] = pg - (np.dot(c.u.values[1:-1], pg) / np.dot(c.u.values[1:-1], pu)) * pu
            return ray, _residual_norm(r, h), gt, d

        ray, res, gt, d = tangent_gradient(cur)
        step = 0.5  # before the first Barzilai-Borwein quotient
        while True:
            yield cur, ray, res
            trial, st = _descend(cur, v_bg, lambda s: cur.u.values - s * d, step, -inner(gt, d))
            ray, res, gt_new, d_new = tangent_gradient(trial)
            dg = gt_new - gt
            curv, den = inner(trial.u.values - cur.u.values, dg), inner(dg, d_new - d)
            # along negative curvature the quotient means nothing: keep the step taken
            step = curv / den if curv > 0 and den > 0 else st
            step = min(max(step, 1e-6), 1e3)
            cur, gt, d = trial, gt_new, d_new

    return _solve("gradient descent", iterates, bg, cfg, u0)
