"""Ground-state solvers: Anderson-mixed SCF and preconditioned gradient descent.

Both drive the fixed point -u'' + Vu = eps u, V = -(1/2)|x-y| * (u^2 + rho),
through unit-mass iterates whose descent objective (kinetic + coulomb/2) is
kept from rising; only SCF calls the ground eigenpair, so each checks the other.
Each method supplies only its accepted iterates, and each passes one Armijo
test, ``_descends``: SCF's Anderson candidate directly, every other step
through ``_descend``'s backtracking along the method's own path.  One
driver takes the grid (a sampled background's own, a point charge's half
grid), V_bg and the start (a supplied or coarse start enters as its
absolute value with zero ends, folded onto the half axis for a point
charge), records the trace and returns u, without V, of the first iterate
to meet the single stopping rule: a residual |(H - eps) u| at its
multiplier (the Rayleigh quotient ``ray`` of its objective, from
:mod:`coulombium.energy`'s one stencil on the V it holds) of at most
tol_residual, and an objective within tol_energy of the previous
iterate's (the start's, for the first).  For a sampled background
``effective_potential(state.u, bg)`` rebuilds that V bit for bit.
A point charge's minimizer is even: the source paper (arXiv:1608.02637)
proves it symmetric decreasing, and the discrete problem on the symmetric
grid has the same symmetry and a unique minimizer.  So both methods, and
the nested start's coarse solves, iterate a point charge on the
(N + 1) / 2 nodes of [0, L], a private half grid whose weights are
folded and whose origin reflects (:mod:`coulombium.grid`), and the driver
mirrors the returned u onto the full grid, where it is even bit for bit.
Its V and residual were read on the half grid, whose sums round
otherwise: ``effective_potential(state.u, bg)`` matches that V to
rounding (at most 2.4e-13 at L = 30, N <= 60001, z in [1, 6], where V's
electron part reaches L/2 = 15), and ``el_residual`` the residual within
4 eps_mach (4/h^2 + max |V|).  Nothing detects symmetry: a sampled
background keeps its full grid.
The driver hands the start over to the method, and each method holds only
the arrays it still reads; an iterate is u, V and numbers, and only SCF
forms u^2, once a pass.  At N = 60001, where an N-vector is 0.48 MB, a
solve's traced peak above its inputs is 9 N-vectors for SCF on two wells
(one fine pass), 7 for SCF on a point charge (z = 2, one pass: 9 vectors
of the half grid, half as long, beside the full grid's x and weights and
the half grid's weights) and 9.5 for the gradient solver on it (14 of
the half grid's); ``scf_solve`` and ``gradient_solve`` say what holds
them.
Without a supplied start, a fine grid starts from solves on its coarser
nested grids (``_coarse_start`` states the rule); the default mesh
(L = 30, N = 6001) and coarser never take this path.  A ground state
exists when the background's charge ratio z = -total charge is at least 1,
and below 1 the energy is unbounded (the subcritical family in
:mod:`coulombium.diagnostics`).
``require_bound_state`` alone decides it, raising :class:`DivergingEnergyError`
for z < 1 - 1e-9; ``_solve`` calls it before it builds the grid, as the
command line does before any solve.  At z >= 1 mass near the domain's edge
on the returned state only warns of truncation.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .background import (BackgroundCharge, PointCharge, SampledCharge, background_potential,
                         recenter_shift, total_charge)
from .energy import (_SQRT2, Candidate, EnergyBreakdown, _background_const, _hamiltonian_factor,
                     _hamiltonian_scale, _residual_norm, _shifted_hamiltonian, _squares,
                     candidate_energy, dpttrf, dpttrs, solver_objective)
from .errors import (
    DivergingEnergyError,
    LineSearchStalledError,
    MaxIterExceededError,
    NoConvergenceError,
    SolverError,
)
from .grid import Grid, Samples, _HalfGrid, normalize, require_same_mesh
from .kernel import _point_masses

_SCF_FIRST_MIX = 0.6  # SCF mixing weight, and where every later pass's damped fallback starts
_SCF_DEPTH = 5  # density and residual differences Anderson mixing keeps
_BOUNDARY_FRACTION = 0.9
_TAIL_MASS_LIMIT = 1e-10  # mass share beyond 0.9 L above which a returned state warns
_SUBCRITICAL = 1.0 - 1e-9  # charge ratios z below this have no bound state
# s in the gradient metric P = H[V0] - sigma, whose shift sigma lies s to
# 3s/2 below lambda_1 of H[V0]: on 1816 near-critical corner backgrounds
# (1-3 wells, charge 1 to 3, L = 30, N = 1201) s = 1 took up to 36
# iterations where s = 1/4 takes at most 26, and on the point charges at
# N = 3001 s = 1/8, 1/4, 1/2 and 1 took at most 10, 9, 15 and 20
_SOBOLEV_SHIFT = 0.25
_EIGEN_MAX_STEPS = 200  # inverse-iteration steps per eigensolve
_EPS_MACH = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the least positive normal number
_SQRT_HALF = float(np.sqrt(0.5))
_COARSE_STRIDE = 10  # a coarse start solves on every tenth node
_FAR_STRIDE = 4 * _COARSE_STRIDE  # and first on every 40th, where that nests
# the widest coarse spacing used, the default mesh's: at L = 30 a coarse
# start cost point charges 6-27 % more time at N = 6001 (coarse spacing
# 0.1) and 35-47 % at N = 2001 (0.3), and saved 44 % on wells at N = 60001
_COARSE_MAX_H = 2.0 * 30.0 / 6000


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
        # an integer count: islice refuses a float or NaN only inside the solve,
        # and a bool is an Integral that would run a one-iteration solve
        if not (isinstance(self.max_iter, numbers.Integral) and not isinstance(self.max_iter, bool)
                and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass
class GroundState:
    """Converged minimizer u, its multiplier, energies and trace.

    Its potential V = V_el + V_bg is not kept: ``effective_potential(u, bg)``
    gives the accepted iterate's V, bit for bit for a sampled background and
    to rounding for a point charge, whose iterate lived on the half grid.
    u is on the full grid, and for a point charge even bit for bit.
    """

    u: Samples
    epsilon: float  # the multiplier: the accepted iterate's Rayleigh quotient
    objective: float  # the accepted iterate's kinetic + coulomb / 2
    residual: float  # the Euler-Lagrange residual the stopping rule read
    energy: EnergyBreakdown
    iterations: int  # on the returned state's grid; a coarse start's are not counted
    converged: bool
    history: list = field(repr=False)  # (objective, residual) per accepted fine-grid iterate


def ground_eigenpair(V: Samples, start: Samples | None = None, *,
                     _known: tuple | None = None) -> tuple[float, Samples]:
    """Lowest eigenpair of H = -D2 + V with Dirichlet ends, by certified inverse iteration.

    H is symmetric tridiagonal over the interior nodes, with diagonal
    2/h^2 + V_i and off-diagonal -1/h^2.  Starting from y = |start| (the box
    ground state cos(pi x / 2L) by default), each step solves
    (H - sigma) x = y with LAPACK dpttrs on energy's dpttrf factor of H - sigma
    and takes y <- x / |x|.
    dpttrf succeeds exactly when sigma < lambda_1, and then (H - sigma)^-1
    is entrywise positive, so every iterate stays nonnegative and tends to
    the positive ground state, never to a sign-changing excited one
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4).  On the solvers'
    half grid (a point charge's) the origin reflects, and the iteration runs
    in the coordinates y_0 / sqrt(2), y_i (i > 0), in which energy's factor
    is of a symmetric matrix whose eigenvalues are the full grid's
    even-sector ones; u returns in the grid's own coordinates.

    With rho the Rayleigh quotient and r = |H y - rho y| at |y| = 1, the
    start's rho and r come from energy's stencil, and each step reads them
    from its own solve: H x = y + sigma x, so rho = sigma + <x, y>/<x, x>
    and r = |y - (rho - sigma) x| / |x|, with no pass of the stencil.
    Iteration stops when r <= tol = 64 eps_mach (4/h^2 + max |V|) and an
    accepted shift lies within 2 tol of rho, which certifies lambda_1 in
    (rho - 2 tol, rho]; rho is the eigenvalue returned.  u is embedded with
    zero ends and normalized to unit trapezoid mass, so u >= 0.

    The first shift is the one that certificate already accepts,
    rho - tol - r^2 (Temple's bound with the gap taken as 1), wherever it
    lies above the rule's own first shift: a warm start, r^2 well below
    tol, then certifies after one factor and one solve.  If dpttrf refuses
    it, that proves lambda_1 lies below it.  The rule's shift starts at
    rho - 2r, clamped below by the Gershgorin bound min V, and falls halfway
    toward min V - 1 while dpttrf refuses it.  After each step it rises to
    rho - 2 max(r, tol) when dpttrf accepts that.  A refusal proves
    lambda_1 lies below that value, and the shift bisects toward it
    instead: a start held in a shallower well, far from the deepest,
    otherwise settles on an excited state with a tiny residual.

    SCF passes what it has read already as ``_known = (vmin, vmax,
    quotient)``: V's interior extremes, which its slope clamp reads too, and
    its iterate's rho and r, or None on a solve's first pass.  The
    iterate's multiplier <u, H u> and residual |(H - <u, H u>) u| at unit
    trapezoid mass (h |u|^2 = 1) are those of y = u / |u|.  With them the
    stencil does not run, and a warm start makes one factor and one solve.

    It holds six N-vectors at its peak: y, one buffer that takes the
    start's stencil (or is left empty) and then each step's solve in place,
    the factor of the accepted shift (two), and the factor of the shift it
    tries or, as it returns, the two of normalizing y; at N = 60001 that
    is 2.9 MB.

    Only the start's direction counts: one whose squared norm overflows or
    underflows is first divided by its largest entry, and so is a step's
    solve x, with y, on a grid so small or so large that <x, x> leaves the
    normal range.

    Raises ValueError for a non-finite V or start, or a start that vanishes
    on the interior, and :class:`NoConvergenceError` if the step cap is hit
    or the result is not one-signed.
    """
    g = V.grid
    vv = V.values
    if _known is None:
        # a NaN propagates through min and max, an infinity reaches one of them
        vmin, vmax, quotient = float(np.min(vv[g._free])), float(np.max(vv[g._free])), None
    else:
        vmin, vmax, quotient = _known
    if not np.all(np.isfinite((vmin, vmax, vv[0], vv[-1]))):
        raise ValueError("potential must be finite")
    if start is None:
        y = np.cos((0.5 * np.pi / g.L) * g.x)
    else:
        require_same_mesh(V.grid, start.grid)
        y = np.abs(start.values)
        if not np.all(np.isfinite(y)) or not np.any(y[g._free]):
            raise ValueError("start must be finite and nonzero on the interior")
    g._pin(y)
    tol = 64.0 * _EPS_MACH * _hamiltonian_scale(g.h, vmin, vmax)
    # Gershgorin: lambda_1 > min V (on a half grid, of the full grid's H,
    # whose even-sector eigenvalues its matrix has), so H - floor is
    # positive definite and dpttrf accepts it
    floor = vmin - 1.0

    def factor(sigma):
        return _hamiltonian_factor(vv, g, sigma)

    if g._reflecting:  # to the coordinates in which the factor's matrix is symmetric
        y[0] *= _SQRT_HALF
    with np.errstate(over="ignore"):
        yy = float(np.dot(y, y))
    if not _TINY <= yy < np.inf:  # the problem is scale-invariant: rescale a start
        y /= np.max(y)  # whose squares over- or underflow, and only such a start
        yy = float(np.dot(y, y))
    y /= np.sqrt(yy)
    if quotient is None:
        # the start's quotient and residual come from the stencil, whose
        # buffer then holds each step's solve; on a half grid the stencil
        # acts on y_0 sqrt(2) and its origin row returns over sqrt(2)
        y0 = y[0]
        if g._reflecting:
            y[0] *= _SQRT2
        hy = _shifted_hamiltonian(y, vv, g, 0.0)
        if g._reflecting:
            y[0] = y0
            hy[0] *= _SQRT_HALF
        rho = float(np.dot(y, hy))
        hy -= rho * y
        m, ss = _squares(hy)
        res = m * float(np.sqrt(ss))
    else:
        rho, res = quotient
        hy = np.empty_like(y)
    sigma, above = max(rho - 2.0 * res, vmin), np.inf  # lambda_1 lies in (sigma, above]
    fac = None
    if (certified := rho - tol - res * res) > sigma:  # the shift the stop rule accepts
        if (fac := factor(certified)) is None:
            above = certified  # the refusal proves lambda_1 <= certified
        else:
            sigma = certified
    while fac is None and (fac := factor(sigma)) is None:
        sigma, above = 0.5 * (sigma + floor), sigma
    yi, x = y[g._free], hy[g._free]  # views: y keeps its zero ends
    for _ in range(_EIGEN_MAX_STEPS):
        np.copyto(x, yi)
        x = dpttrs(*fac, x, overwrite_b=True)[0]  # H x = y + sigma x, in x's buffer
        xx = float(np.dot(x, x))
        if not _TINY <= xx < np.inf:  # as the start, on a tiny or huge grid: the
            scale = np.max(np.abs(x))  # pair (x, y) rescaled keeps H x = y + sigma x
            x /= scale
            yi /= scale
            xx = float(np.dot(x, x))
        offset = float(np.dot(x, yi)) / xx  # rho - sigma
        rho = sigma + offset
        yi -= offset * x  # (H - rho) x = y - (rho - sigma) x
        xnorm = np.sqrt(xx)
        m, ss = _squares(yi)
        res = m * float(np.sqrt(ss)) / xnorm
        np.divide(x, xnorm, out=yi)
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
    if g._reflecting:
        y[0] *= _SQRT2
    if np.any(y < 0.0):
        raise NoConvergenceError("inverse iteration returned a sign-changing vector")
    return rho, normalize(Samples(g, y))


def default_initial_guess(bg: BackgroundCharge, grid: Grid) -> Samples:
    """Normalized unit-width Gaussian centered at the charge barycenter."""
    p = recenter_shift(bg)
    vals = np.exp(-0.5 * (grid.x - p) ** 2)
    return normalize(Samples(grid, grid._pin(vals)))


def _check_tail(u: Samples):
    """Warn when a converged state carries mass near the domain's edge."""
    g, sq = u.grid, u.values**2
    mask = np.abs(g.x) > _BOUNDARY_FRACTION * g.L
    tail = float(np.dot(g.weights[mask], sq[mask])) / float(np.dot(g.weights, sq))
    if tail > _TAIL_MASS_LIMIT:
        warnings.warn(
            f"tail mass {tail:.2e} beyond 0.9 L; consider a larger half-width",
            RuntimeWarning,
            stacklevel=4,  # past the driver and the public solver, to their caller
        )


def _descends(cur: Candidate, trial: Candidate, step: float, slope: float) -> bool:
    """Armijo: trial's objective is at most cur's + 1e-4 step slope, within rounding.

    slope <= 0 is the predicted rate along the step.  The two objectives
    are equal to rounding when they differ by at most the sum of their
    ``rounding`` allowances (:func:`coulombium.energy.solver_objective`),
    and the test allows that flat step: near the optimum the predicted
    decrease falls below the objectives' rounding, and every step would be
    rejected, or accepted by the noise in the last bits.
    """
    return trial.objective <= cur.objective + 1e-4 * step * slope + cur.rounding + trial.rounding


def _anderson_state(grid: Grid, u2, f, gamma, d_rho, d_f) -> Samples:
    """normalize(sqrt(max(rho_AA, 0))) for the Anderson density
    rho_AA = u2 + b f - gamma @ d_rho - b (gamma @ d_f), b = 0.6."""
    rho = u2 + _SCF_FIRST_MIX * f
    rho -= gamma @ d_rho + _SCF_FIRST_MIX * (gamma @ d_f)
    return normalize(Samples(grid, np.sqrt(np.maximum(rho, 0.0, out=rho), out=rho)))


def _descend(cur: Candidate, v_bg: Samples, path, step: float, slope: float):
    """The first s of step, step/2, ... (down to 1e-20) whose candidate
    ``normalize(path(s))`` descends by ``_descends``."""
    while step >= 1e-20:
        trial = solver_objective(normalize(Samples(cur.u.grid, path(step))), v_bg)
        if _descends(cur, trial, step, slope):
            return trial, step
        step *= 0.5
    raise LineSearchStalledError(
        f"no descent step from objective {cur.objective!r} down to step 1e-20")


def _sobolev_factor(vv: np.ndarray, grid: Grid, ray: float, res: float):
    """energy's dpttrf factor of the gradient metric P = H[V0] - sigma, with
    sigma a set distance below lambda_1, the ground eigenvalue of H[V0].

    vv is the start's potential V0, and ray and res its Rayleigh quotient
    and residual.  lambda_1 lies in the bracket (min V0, ray]: -D2 is
    positive definite, and a quotient bounds lambda_1 from above.
    Bisection shrinks the bracket (lo, hi] to a width of at most gap / 2,
    testing whether dpttrf accepts the midpoint as a shift, which it does
    exactly when the midpoint lies below lambda_1 (Sylvester's law of
    inertia), and sigma = lo - gap: lambda_1 - sigma lies in (gap, 3 gap / 2].
    gap is s = 1/4 unless the bracket's first width W is so large that s is
    below sqrt(eps_mach) W, on a grid whose 1/h^2 dwarfs s; there gap is
    sqrt(eps_mach) W = 2^-26 W, so the bisection ends within 28 steps on
    every grid (27 halvings, and one where a midpoint rounds).
    A start whose residual is below gap / 2, as the nested start's is,
    needs no bisection: some eigenvalue lies within res of its quotient
    (Krylov and Weinstein; Parlett, The Symmetric Eigenvalue Problem,
    ch. 4), lambda_1 for a start near the ground state, and sigma =
    ray - res - gap, one factor.  If dpttrf refuses that shift, lambda_1
    lies below it, and the bisection runs on (min V0, ray - res - gap].
    """
    lo, hi = float(np.min(vv[grid._free])), ray  # lambda_1 in (lo, hi]
    gap = max(_SOBOLEV_SHIFT, np.sqrt(_EPS_MACH) * (hi - lo))
    if res < 0.5 * gap:
        if (fac := _hamiltonian_factor(vv, grid, ray - res - gap)) is not None:
            return fac
        hi = ray - res - gap
    # the second test ends the loop where rounding leaves no midpoint
    while hi - lo > 0.5 * gap and lo < (mid := 0.5 * (lo + hi)) < hi:
        if _hamiltonian_factor(vv, grid, mid) is None:
            hi = mid
        else:
            lo = mid
    return _hamiltonian_factor(vv, grid, lo - gap)


def require_bound_state(bg: BackgroundCharge) -> None:
    """Raise :class:`DivergingEnergyError` when z = -total_charge(bg) < 1 - 1e-9."""
    z = -total_charge(bg)
    if z < _SUBCRITICAL:
        raise DivergingEnergyError(f"subcritical charge ratio z = {z:.10g} < 1 (no bound state)")


def _restrict(bg: BackgroundCharge, coarse: Grid) -> BackgroundCharge:
    """bg restricted to ``coarse``, whose nodes are every k-th node of bg's grid.

    A point charge passes unchanged.  A sampled density's point masses
    w rho go to the two coarse nodes around them with hat weights, so the
    coarse total charge is the fine one to rounding and a well narrower
    than the coarse spacing keeps its charge.
    """
    if isinstance(bg, PointCharge):
        return bg
    m = _point_masses(bg.rho)
    stride = (m.size - 1) // (coarse.N - 1)
    blocks = m[:-1].reshape(coarse.N - 1, stride)
    t = np.arange(stride) / stride  # offsets within a coarse cell
    masses = np.zeros(coarse.N)
    masses[:-1] = blocks @ (1.0 - t)
    masses[1:] += blocks @ t
    masses[-1] += m[-1]
    # SampledCharge admits values up to 1e-12, whose averages may round above it
    return SampledCharge(Samples(coarse, np.minimum(masses / coarse.weights, 0.0)))


def _prolong(u: Samples, fine: Grid) -> Samples:
    """The natural cubic spline through u (C^2, S'' = 0 at the ends) on ``fine``.

    Every k-th node of ``fine`` is a node of u's grid, and there the spline
    keeps u's values bit for bit.  Its moments M_j = S''(X_j) solve
    M_{j-1} + 4 M_j + M_{j+1} = 6 (u_{j+1} - 2 u_j + u_{j-1}) / H^2 with
    M = 0 at the ends, by LAPACK dpttrf/dpttrs; on [X_j, X_{j+1}] at
    t = (x - X_j) / H and s = 1 - t,
    S = s u_j + t u_{j+1} + H^2/6 ((s^3 - s) M_j + (t^3 - t) M_{j+1}).
    """
    y, big_h = u.values, u.grid.h
    n = y.size - 1
    stride = (fine.N - 1) // n
    d, e, _ = dpttrf(np.full(n - 1, 4.0), np.ones(n - 2))
    moments = np.zeros(n + 1)
    moments[1:-1] = dpttrs(d, e, (6.0 / big_h**2) * (y[2:] - 2.0 * y[1:-1] + y[:-2]))[0]
    t = np.arange(stride) / stride
    s = 1.0 - t
    s3, t3 = s**3 - s, t**3 - t
    out = np.empty(fine.N)
    out[-1] = y[-1]
    cells = out[:-1].reshape(n, stride)  # a view: row j is the cell [X_j, X_{j+1})
    curve = np.empty(n)
    for k in range(stride):  # the k-th node of every cell
        cell = cells[:, k]
        np.multiply(y[:-1], s[k], out=cell)
        cell += y[1:] * t[k]
        np.multiply(moments[:-1], s3[k], out=curve)
        curve += moments[1:] * t3[k]
        curve *= big_h**2 / 6.0
        cell += curve
    return Samples(fine, out)


def _nests(n: int, stride: int) -> bool:
    """Whether every stride-th node of a grid of n + 1 nodes makes a coarse grid:
    an odd node count, and at least the 5 nodes the Hamiltonian needs."""
    return n % (2 * stride) == 0 and n >= 4 * stride


def _coarse_start(name: str, iterates, bg: BackgroundCharge, cfg, grid: Grid) -> Samples | None:
    """The nested start (Brandt, Math. Comp. 31 (1977) 333) of a solve
    without ``u0``, carried to ``grid``; None where its rule does not hold
    or a coarse solve raises a :class:`SolverError`.

    The levels are the grids of every 40th and of every tenth node of
    ``grid``, each where it nests (``_nests``: N - 1 a multiple of 80 and
    at least 160, or of 20 and at least 40; a grid with the first has the
    second).  The rule holds where the tenth-node level exists and its
    nodes lie at most 0.01 apart (``_COARSE_MAX_H``, the default mesh's
    spacing), so the default mesh and coarser grids start cold.  Each level
    solves by the same method, tolerances and ``max_iter``, on the
    background restricted by ``_restrict``: the first as any grid does (its
    own nested start where the rule holds for it, else the default start),
    the second from the first's state prolonged by ``_prolong``.  With both
    levels, Richardson's extrapolation (Phil. Trans. R. Soc. A 210 (1911)
    307) u_near + c (u_near - P u_far), c = (H_near^2 - h^2) / (H_far^2 - H_near^2),
    is taken on the tenth-node grid, where P u_far is that level's own
    start: the three-point stencil and the trapezoid rule give a discrete
    state an error in even powers of its spacing, and c removes the H^2
    term (c = 0.066 at N = 60001).  One ``_prolong`` then carries the state
    to ``grid``.  A natural cubic spline on a grid is also one on every grid
    nested in it, so prolonging twice equals prolonging once to rounding,
    and this start equals the extrapolation of the two states prolonged to
    ``grid``.
    """
    n = cfg.N - 1
    levels = [Grid(cfg.L, n // k + 1) for k in (_FAR_STRIDE, _COARSE_STRIDE) if _nests(n, k)]
    if not levels or levels[-1].h > _COARSE_MAX_H:
        return None
    u = start = None
    try:
        for coarse in levels:
            start = None if u is None else _prolong(u, coarse)
            u = _converge(name, iterates, _restrict(bg, coarse), replace(cfg, N=coarse.N), start).u
    except SolverError:
        return None
    if len(levels) == 2:
        far, near = levels
        c = (near.h**2 - grid.h**2) / (far.h**2 - near.h**2)
        u.values += c * (u.values - start.values)
    return _prolong(u, grid)


def _fold(u: Samples, mesh: Grid) -> Samples:
    """A start on ``mesh`` from samples u on its full grid, with zero Dirichlet ends.

    On the full grid it is |u|.  On a half grid it is the root mean square
    of u at x and at -x, sqrt((u(x)^2 + u(-x)^2) / 2): the density u^2
    averaged with its mirror image, with u's mass.  The objective is
    convex in the density on the unit sphere and takes a density and its
    mirror image to the same value, so the fold does not raise it; an even
    u folds to |u| on x >= 0 bit for bit.
    """
    if not mesh._reflecting:
        return Samples(mesh, mesh._pin(np.abs(u.values)))
    c = mesh.N - 1
    sq = np.square(u.values[c:])
    sq += np.square(u.values[c::-1])
    sq *= 0.5
    return Samples(mesh, mesh._pin(np.sqrt(sq, out=sq)))


def _converge(name: str, iterates, bg: BackgroundCharge, cfg: SolverConfig, u0) -> GroundState:
    """Trace and stop the ``(candidate, residual)`` that ``iterates`` yields on
    cfg's mesh (a sampled background's own grid, which the state then shares;
    for a point charge the half grid of a grid built here), from u0 or else
    from the coarse or the default start; u0 and a coarse start, both on the
    full grid, enter by one rule, ``_fold``.

    The state holds the accepted candidate's u and no V: on a sampled
    background's grid u is copied into that candidate's V buffer, and a
    point charge's is mirrored onto the full grid.
    """
    point = isinstance(bg, PointCharge)
    grid = Grid(cfg.L, cfg.N) if point else bg.rho.grid
    require_same_mesh(grid, cfg)
    if u0 is None:
        u0 = _coarse_start(name, iterates, bg, cfg, grid)
    if u0 is not None:
        require_same_mesh(u0.grid, grid)
    mesh = _HalfGrid(grid) if point else grid  # a point charge's state is even
    if u0 is not None:
        u0 = _fold(u0, mesh)
    v_bg = background_potential(bg, mesh)
    start = solver_objective(default_initial_guess(bg, mesh) if u0 is None else normalize(u0), v_bg)
    prev = start.objective
    steps = iterates(start, v_bg)
    del u0, start  # the generator alone holds the start, until its first iterate
    history: list = []
    try:
        for it, (cur, res) in enumerate(islice(steps, cfg.max_iter), 1):
            history.append((cur.objective, res))
            if res <= cfg.tol_residual and abs(cur.objective - prev) <= cfg.tol_energy:
                energy = candidate_energy(cur, _background_const(bg, v_bg))
                if point:  # mirrored onto the full grid, exactly even
                    u = Samples(grid, np.concatenate((cur.u.values[:0:-1], cur.u.values)))
                else:
                    # u moves into V's buffer, which the stopping rule has read
                    # and which the pass allocated after u.  Freed instead, V
                    # would leave a large free block at the top of glibc's heap,
                    # glibc would return it to the OS, and the next solve would
                    # fault its pages back in.
                    u = cur.V
                    np.copyto(u.values, cur.u.values)
                return GroundState(u, cur.ray, cur.objective, res, energy, it, True, history)
            prev = cur.objective
        raise MaxIterExceededError(f"{name} did not converge in {cfg.max_iter} iterations")
    except SolverError as exc:
        exc.history = history
        raise


def _solve(name: str, iterates, bg: BackgroundCharge, cfg, u0) -> GroundState:
    """The one driver both methods share: refuse, start, iterate, stop and warn.

    A subcritical background raises :class:`DivergingEnergyError`
    (``require_bound_state``), with an empty trace, before any iterate.
    Without ``u0``, a fine grid starts from coarse solves where
    ``_coarse_start``'s rule holds, and from the default start where it
    does not or a coarse solve fails.  The returned state's iterations and
    history, and the trace every :class:`SolverError` raised carries, are
    the fine grid's; only the returned state warns of tail mass.
    """
    require_bound_state(bg)
    state = _converge(name, iterates, bg, cfg if cfg is not None else SolverConfig(), u0)
    _check_tail(state.u)
    return state


def scf_solve(
    bg: BackgroundCharge,
    cfg: SolverConfig | None = None,
    u0: Samples | None = None,
) -> GroundState:
    """Self-consistent field iteration with Anderson density mixing.

    Each pass takes the ground eigenpair of -D2 + V, with V the accepted
    iterate's potential, and mixes densities.  The eigensolve starts from
    that iterate's u, on every pass and from any start, so it takes a few
    inverse-iteration steps once u is near the ground state.
    The map accelerated is rho = u^2 -> u_lin^2, u_lin the ground
    eigenvector of V[rho], with residual f = u_lin^2 - u^2.  Anderson
    mixing of depth m = 5 (Anderson 1965; Walker & Ni 2011) keeps the last
    m differences d_rho_j, d_f_j of successive passes, in rows grown one a
    pass to the passes made (a fine solve from the nested start makes 1-3),
    and the Gram matrix of the d_f_j in the trapezoid inner product, picks
    gamma by least squares,
    min |f - sum_j gamma_j d_f_j|, and proposes

        rho_AA = u^2 + b f - sum_j gamma_j (d_rho_j + b d_f_j),  b = 0.6,

    clipped at 0, as the candidate normalize(sqrt(rho_AA)).  It is accepted
    when it passes ``_descends`` at step b.  Otherwise the differences are
    dropped and the pass takes a damped step, u^2 <- u^2 + a f, with the
    weight a from ``_descend`` along that path, from b on every pass but
    the first (a carried weight only shrinks while rounding noise refuses
    good ones).  The first pass has no difference, and its search starts
    from the whole step, a = 1, whose trial is the eigenvector itself: from
    the nested start that trial meets tol_residual, and a damped one would
    not.  So every accepted iterate
    passes the one Armijo test.  Each iterate's multiplier is its own
    Rayleigh quotient <u, H u>, read with its objective (the eigenvalue
    belongs to the previous iterate's V), and its residual is
    |(H - <u, H u>) u| on the V it holds, as in the gradient solver; the
    next pass's eigensolve starts from u with both.

    A pass holds V_bg, the iterate's u and V, the last pass's u^2 and f (f
    in the eigenvector's buffer), two history rows a difference and, at its
    peak, the eigensolve's six N-vectors, before it forms u^2: 11 + 2 k in
    all after k differences.  A point charge's are vectors of the half
    grid, half as long, beside the full grid's x and weights.
    """

    def iterates(cur: Candidate, v_bg: Samples):
        grid = cur.u.grid
        w = grid.weights
        # ring buffers of the last _SCF_DEPTH density and residual differences,
        # grown a row at a time to the rows in use, and the Gram matrix of the
        # residual differences in the trapezoid product
        d_rho, d_f = np.empty((0, grid.N)), np.empty((0, grid.N))
        gram = np.empty((_SCF_DEPTH, _SCF_DEPTH))
        pairs = 0  # differences taken since the last reset
        prev = None  # (u^2, f) of the previous pass
        quotient = None  # the iterate's (ray, residual), once it has yielded them
        weight = 1.0  # a fallback's first weight: the first pass's first trial is u_lin itself
        while True:
            vi = cur.V.values[grid._free]  # H acts on the free nodes only
            vmin, vmax = float(np.min(vi)), float(np.max(vi))
            eps, u_lin = ground_eigenpair(cur.V, cur.u, _known=(vmin, vmax, quotient))
            u2 = cur.u.values * cur.u.values
            f = np.square(u_lin.values, out=u_lin.values)  # u_lin^2 - u^2, in u_lin's buffer
            f -= u2
            # The objective is convex in the density, so its slope along the
            # mixing direction is at most eps - <u, H u> <= 0.  Asking for a
            # share of that decrease keeps the damping from settling into a
            # two-cycle whose objective barely falls while its residual stays.
            # eps and <u, H u> are each rounded by up to eps_mach ||H||, so a
            # slope within eps_mach (4/h^2 + max |V|) of 0 is 0: a positive one
            # would let the Armijo test accept a rise, and a negative one would
            # ask for a decrease the objective cannot resolve.
            slope = eps - cur.ray
            if slope > -_EPS_MACH * _hamiltonian_scale(grid.h, vmin, vmax):
                slope = 0.0
            trial = None
            if prev is not None:
                slot, held = pairs % _SCF_DEPTH, min(pairs + 1, _SCF_DEPTH)
                if slot == len(d_rho):
                    d_rho = np.concatenate((d_rho, np.empty((1, grid.N))))
                    d_f = np.concatenate((d_f, np.empty((1, grid.N))))
                np.subtract(u2, prev[0], out=d_rho[slot])
                np.subtract(f, prev[1], out=d_f[slot])
                prev = None  # the previous pass's u^2 and f are read
                gram[slot, :held] = gram[:held, slot] = d_f[:held] @ (w * d_f[slot])
                pairs += 1
                gamma = np.linalg.lstsq(gram[:held, :held], d_f[:held] @ (w * f), rcond=None)[0]
                trial = solver_objective(
                    _anderson_state(grid, u2, f, gamma, d_rho[:held], d_f[:held]), v_bg)
                if not _descends(cur, trial, _SCF_FIRST_MIX, slope):
                    trial, pairs = None, 0
            prev = (u2, f)
            if trial is None:
                trial = _descend(cur, v_bg, lambda a: np.sqrt(u2 + a * f), weight, slope)[0]
            weight = _SCF_FIRST_MIX
            cur = trial
            quotient = cur.ray, _residual_norm(
                _shifted_hamiltonian(cur.u.values, cur.V.values, grid, cur.ray), grid)
            yield cur, quotient[1]

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
    is g_t's Riesz representative in the metric of P = H[V0] - sigma
    (Dirichlet ends), projected onto the sphere's tangent space in that
    metric,

        d = P^-1 g_t - (<u, P^-1 g_t> / <u, P^-1 u>) P^-1 u,   <u, d> = 0.

    V0 is the start's potential, frozen for the solve, and sigma lies s to
    3s/2 below lambda_1, the ground eigenvalue of H[V0] (s = 1/4; a fraction
    of the bracket on grids whose 1/h^2 dwarfs s): ``_sobolev_factor``
    brackets lambda_1 by bisection, each test a factor that dpttrf accepts or
    refuses, or reads it from a start already near the ground state, such as
    the nested start.  The Sobolev inner product <u, P v> removes both the
    Laplacian's 1/h^2 conditioning and the potential's growth, (z - 1)|x|/2
    far out, so the iteration count grows neither with the mesh nor with z;
    with sigma near lambda_1 a step is close to one of shifted inverse
    iteration (Danaila & Kazemi 2010; Altmann, Henning & Peterseim 2021).
    On the gd-point inputs (L = 30, N = 6001, z from 1 to 6) that takes 5-9
    iterations where the shift min V0 - s took 8-12, for 4-6 factors a solve
    where it took one.  P is built from the start's potential, not from any
    eigenpair, so the method stays independent of SCF's eigen-step: it is
    factored once per solve (energy's dpttrf factor) and applied by one
    two-column dpttrs per iterate.
    Steps are proposed by the Barzilai-Borwein quotient <du, dg_t> / <dg_t, dd>
    in the P-metric (0.5 at first, clamped to [1e-6, 1e3]) and safeguarded by
    ``_descend`` along s -> u - s d with slope -<g_t, d>.  The start is the first
    iterate.  Each iterate's multiplier is its Rayleigh quotient and its
    residual is the norm of the same (H - ray) u = g_t / 2.

    An iterate's step holds V_bg, P's factor (two N-vectors), the iterate
    and the trial (u and V each), both g_t and both d, and three more while
    it forms the quotient: 14 N-vectors, each half as long for a point
    charge, whose solve also builds the full grid's x and weights.
    """

    def iterates(cur: Candidate, v_bg: Samples):
        grid = cur.u.grid
        w = grid.weights
        free, reflecting = grid._free, grid._reflecting

        def inner(a, b):
            return float(np.dot(w * a, b))

        def residual(c: Candidate):
            gt = _shifted_hamiltonian(c.u.values, c.V.values, grid, c.ray)
            return _residual_norm(gt, grid), gt

        def direction(c: Candidate, gt):
            gt *= 2.0
            # the two right-hand sides as rows, solved in place as the columns of
            # the transpose: the rows become P^-1 g_t and P^-1 u
            uf = c.u.values[free]
            rhs = np.empty((2, uf.size))
            rhs[0], rhs[1] = gt[free], uf
            # On a half grid the factor is of T^-1 P T, T = diag(sqrt 2, 1, ...):
            # the rows become T^-2 P^-1 g_t and T^-2 P^-1 u, whose Euclidean
            # products with u are the folded weights' over 2h, and d = T^2 (...)
            if reflecting:
                rhs[:, 0] *= _SQRT_HALF
            pg, pu = dpttrs(pd, pe, rhs.T, overwrite_b=True)[0].T
            if reflecting:
                pg[0] *= _SQRT_HALF
                pu[0] *= _SQRT_HALF
            pu *= np.dot(uf, pg) / np.dot(uf, pu)
            d = np.zeros_like(gt)
            np.subtract(pg, pu, out=d[free])
            if reflecting:
                d[0] *= 2.0
            return d

        res, gt = residual(cur)
        pd, pe = _sobolev_factor(cur.V.values, grid, cur.ray, res)
        d = direction(cur, gt)
        step = 0.5  # before the first Barzilai-Borwein quotient
        while True:
            yield cur, res
            trial, st = _descend(cur, v_bg, lambda s: cur.u.values - s * d, step, -inner(gt, d))
            res, gt_new = residual(trial)
            d_new = direction(trial, gt_new)
            dg = gt_new - gt
            curv, den = inner(trial.u.values - cur.u.values, dg), inner(dg, d_new - d)
            # along negative curvature the quotient means nothing: keep the step taken
            step = curv / den if curv > 0 and den > 0 else st
            step = min(max(step, 1e-6), 1e3)
            cur, gt, d = trial, gt_new, d_new

    return _solve("gradient descent", iterates, bg, cfg, u0)
