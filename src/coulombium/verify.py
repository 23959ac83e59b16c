"""Property suites behind the ``verify`` CLI subcommand.

Each suite draws seeded random data, measures the margins of the
inequalities it exercises and reports pass/fail against the declared
tolerances; trial counts and grids are fixed in the suite's body.  The
tests draw their data from the same generators, and keep their own dense
references, smooth-bump draws and the lemmas no suite runs (tightness,
Jensen's bound, the double rearrangement) in ``tests/oracles.py``.

The seeded suites evaluate their trials as blocks of rows through the
kernels' array-level forms (``_potential_rows``, ``_b_sums`` and
``_b_dot``, ``_g_form`` and ``rearrange._rearrange_rows``), which give
every row the bits of the one-row public call.  ``forms`` compares C+'s
four iterated-integral orders (``_c_plus_forms``), which live only here:
the package evaluates C+ in one order, ``kernel.c_plus``.  One rule sizes
the blocks: as many rows as fit ``_BLOCK_BYTES`` (128 KiB), so the few
block arrays a suite holds at a time stay in a 2 MiB L2 cache, and each
suite reuses its block buffers from block to block instead of building
all its trials and temporaries at once.  A ``(k, N)`` draw from a NumPy
generator is the same stream as k draws of N, so ``forms``, ``rearrange``
and ``innerprod`` draw and evaluate one block at a time and give a seed
the same data, and the same report, as a trial-by-trial loop.  ``bnorm``'s
stream gives all u, then all v, then all scales, so it keeps all of u,
draws v a block at a time, and reads the scaled u in a second sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import delta_approximant
from .diagnostics import unboundedness_scan
from .grid import Grid, Samples
from .kernel import (
    _b_dot,
    _b_sums,
    _g_form,
    _half_axis,
    _potential_rows,
    _quartic_root,
    _require_zero_mean,
    _suffix_sums,
    coulomb_pair_energy,
)
from .rearrange import _rearrange_rows


@dataclass
class SuiteReport:
    name: str
    metrics: dict
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self):
        out = [f"suite {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for k in sorted(self.metrics):
            out.append(f"  {k} = {self.metrics[k]:.6g}")
        out.extend(f"  FAIL: {msg}" for msg in self.failures)
        return out


def random_density(grid, rng, rows=None):
    """Rough nonnegative nodewise-random density, or a ``(rows, N)`` block of them.

    One density comes back as :class:`Samples`, a block as an array whose
    rows are what ``rows`` successive one-density draws would give.
    """
    vals = rng.random(grid.N if rows is None else (rows, grid.N))
    return Samples(grid, vals) if rows is None else vals


def random_zero_mean_compact(grid, rng, rows=None):
    """Random rough samples, zero outside a core and exactly zero-mean.

    As :func:`random_density`: :class:`Samples`, or a ``(rows, N)`` block
    of successive draws.  Raises ValueError for N < 7, where the two-node
    margins leave at most one core node, which a zero mean sets to 0.
    """
    if grid.N < 7:
        raise ValueError(f"a zero-mean compact draw needs at least 7 nodes, got N = {grid.N}")
    margin = max(2, grid.N // 8)
    core = slice(margin, grid.N - margin)
    shape = () if rows is None else (rows,)
    vals = np.zeros(shape + (grid.N,))
    vals[..., core] = rng.standard_normal(shape + (grid.N - 2 * margin,))
    mean = np.vecdot(grid.weights, vals)
    vals[..., core] -= (mean / float(np.sum(grid.weights[core])))[..., None]
    return Samples(grid, vals) if rows is None else vals


# bytes of one (rows, N) block of float rows: a suite holds a few such
# arrays at a time, so its working set stays inside a 2 MiB L2 cache
_BLOCK_BYTES = 128 * 1024


def _block_rows(n: int) -> int:
    """Rows of n nodes that fit the block budget, at least one."""
    return max(1, _BLOCK_BYTES // (8 * n))


def _blocks(trials: int, n: int) -> list:
    """Consecutive row slices that cover ``trials`` rows of n nodes, one block each."""
    rows = _block_rows(n)
    return [slice(s, min(s + rows, trials)) for s in range(0, trials, rows)]


def _c_plus_forms(t: np.ndarray, m: np.ndarray, h: float):
    """C+ of each row of half-axis point masses m at nodes t in four orders.

    A: 2 * int f(x) ( int_0^x y f(y) dy ) dx
    B: 2 * int y f(y) ( int_y^inf f(x) dx ) dy
    C: int_0^inf ( int_z^inf f(x) dx )^2 dz, which ``c_plus`` evaluates
    D: int f(x) ( int_0^x ( int_z^inf f(y) dy ) dz ) dx

    Each order sums the same double sum over the masses of the open
    half-axis (``kernel._half_axis``), from one set of suffix sums S and
    one t m.  Every reduction is an ``np.vecdot`` of contiguous rows, so
    each row has the bits of a one-row ``np.dot``.  Returns (A, B, C, D),
    one value per row each.
    """
    tm = t * m
    S = _suffix_sums(m)
    diag = np.vecdot(tm, m)
    a = 2.0 * np.vecdot(m, np.cumsum(tm, axis=-1) - tm) + diag  # cumsum - tm = sum_{k<j} t_k m_k
    b = 2.0 * np.vecdot(tm, S - m) + diag  # S - m = sum_{k>j} m_k
    d = np.vecdot(m, h * np.cumsum(S, axis=-1))  # h * sum_{i<=j} S_i
    return a, b, h * np.vecdot(S, S), d


def forms_suite(seed=0) -> SuiteReport:
    """Agreement of C+'s four orders on 100 random nonnegative densities.

    The densities are drawn and evaluated a block at a time, the four
    orders in one ``_c_plus_forms`` call per block, whose order C for each
    row is :func:`c_plus` on the row alone.
    """
    rng = np.random.default_rng(seed)
    trials, grid = 100, Grid(10.0, 401)
    vals = np.empty((4, trials))
    for blk in _blocks(trials, grid.N):
        t, m = _half_axis(random_density(grid, rng, rows=blk.stop - blk.start), grid)
        vals[:, blk] = _c_plus_forms(t, m, grid.h)
    scale = np.max(np.abs(vals), axis=0)
    worst = float(np.max((np.max(vals, axis=0) - np.min(vals, axis=0)) / scale))
    fails = [] if worst <= 1e-9 else [f"four-form deviation {worst:.3e} > 1e-9"]
    return SuiteReport("forms", {"max_rel_deviation": worst}, fails)


def bnorm_suite(seed=0) -> SuiteReport:
    """Norm axioms for the quartic functional on 1000 random sample pairs.

    The stream gives all u, then all v, then all scales lambda, so all u
    are drawn at once and then v a block at a time.  Each block of pairs
    takes the half-axis suffix sums (``_b_sums``) of u^2, v^2, (u+v)^2 and
    (u-v)^2, one square at a time, into buffers that every block reuses;
    b[u^2, u^2], b[v^2, v^2], b[u^2, v^2] and the norms are dots of those
    sums.  Once the scales are drawn, a second sweep over u does the same
    for (lambda u)^2.  Each row has the bits of :func:`b_form` and
    :func:`b_norm` on the row alone.  The four axioms (homogeneity,
    triangle, Cauchy-Schwarz for b on squares, uniform convexity) are then
    tested on all pairs at once.
    """
    rng = np.random.default_rng(seed)
    pairs, grid = 1000, Grid(8.0, 201)
    blocks = _blocks(pairs, grid.N)
    u = rng.standard_normal((pairs, grid.N))
    rows = blocks[0].stop  # the largest block
    v, sq = np.empty((2, rows, grid.N))
    sums_u, sums_v, sums_w = np.empty((3, rows, 2, grid.center_index))

    def square_sums(values, out):
        """Suffix sums of values^2 into ``out``, the square formed in ``sq``."""
        k = len(values)
        np.multiply(values, values, out=sq[:k])
        return _b_sums(sq[:k], grid, out=out[:k])

    b = np.empty((5, pairs))  # b[s, s] for u^2, v^2, (lambda u)^2, (u+v)^2, (u-v)^2
    buv = np.empty(pairs)  # b[u^2, v^2]
    for blk in blocks:
        k = blk.stop - blk.start
        ub, vb = u[blk], rng.standard_normal(out=v[:k])
        su, sv = square_sums(ub, sums_u), square_sums(vb, sums_v)
        b[0, blk], b[1, blk] = _b_dot(su, su, grid.h), _b_dot(sv, sv, grid.h)
        buv[blk] = _b_dot(su, sv, grid.h)
        for i, combine in ((3, np.add), (4, np.subtract)):
            s = square_sums(combine(ub, vb, out=sq[:k]), sums_w)
            b[i, blk] = _b_dot(s, s, grid.h)
    lam = rng.uniform(-3.0, 3.0, pairs)
    for blk in blocks:
        lu = np.multiply(lam[blk, None], u[blk], out=sq[:blk.stop - blk.start])
        s = square_sums(lu, sums_w)
        b[2, blk] = _b_dot(s, s, grid.h)
    bu, bv, blam, bsum, bdif = _quartic_root(b)
    scaled = np.abs(lam) * bu
    viol_h = np.count_nonzero(np.abs(blam - scaled) > 1e-12 * (1.0 + scaled))
    worst_t = float(np.max(bsum - bu - bv))
    viol_t = np.count_nonzero(bsum > bu + bv + 1e-12)
    viol_cs = np.count_nonzero(buv - np.sqrt(b[0] * b[1]) > 1e-12)
    uc = bdif**4 + bsum**4 - 4.0 * (bu**2 + bv**2) ** 2
    worst_uc = float(np.max(uc))
    viol_uc = np.count_nonzero(uc > 1e-10)
    total = viol_h + viol_t + viol_cs + viol_uc
    fails = [f"{total} axiom violations over {pairs} pairs"] if total else []
    return SuiteReport(
        "bnorm",
        {
            "homogeneity_violations": viol_h,
            "triangle_violations": viol_t,
            "cauchy_schwarz_violations": viol_cs,
            "uniform_convexity_violations": viol_uc,
            "worst_triangle_excess": worst_t,
            "worst_convexity_excess": worst_uc,
        },
        fails,
    )


def rearrange_suite(seed=0) -> SuiteReport:
    """Equimeasurability, Hardy-Littlewood and interaction monotonicity (z=1), 200 trials.

    The densities are drawn and rearranged a block at a time; the
    Hardy-Littlewood sides int f |x| >= int f* |x| and the interactions
    before and after are read from each block, each row with the bits of
    the one-density calls.
    """
    rng = np.random.default_rng(seed)
    trials, grid = 200, Grid(6.0, 241)
    gv = np.abs(grid.x)
    blocks = _blocks(trials, grid.N)
    fx = np.empty((blocks[0].stop, grid.N))  # f |x| of a block
    unequal = np.empty(trials, dtype=bool)
    hl, dc = np.empty((2, trials))
    for blk in blocks:
        f = random_density(grid, rng, rows=blk.stop - blk.start)
        fstar = _rearrange_rows(f, grid)
        unequal[blk] = np.any(np.sort(f, axis=-1) != np.sort(fstar, axis=-1), axis=-1)
        fxb = fx[:len(f)]
        hl[blk] = np.vecdot(grid.weights, np.multiply(fstar, gv, out=fxb))
        hl[blk] -= np.vecdot(grid.weights, np.multiply(f, gv, out=fxb))
        dc[blk] = _g_form(fstar, grid, 1.0) - _g_form(f, grid, 1.0)
    equi_fail = np.count_nonzero(unequal)
    worst_hl, worst_c = float(np.max(hl)), float(np.max(dc))
    ok = equi_fail == 0 and worst_hl <= 1e-10 and worst_c <= 1e-10
    return SuiteReport(
        "rearrange",
        {
            "equimeasurability_failures": equi_fail,
            "worst_hardy_littlewood_excess": worst_hl,
            "worst_interaction_increase": worst_c,
        },
        [] if ok else ["rearrangement inequality violated"],
    )


def counterexample_suite() -> SuiteReport:
    """Slope of the widening-family interaction against log(n+1), z = 0.5, n = 10, 20, 40, 80.

    The asymptotic prediction is slope z-1; the finite-n remainder drifts,
    so the measured slope is reported with the +-0.03 window verdict.
    """
    z = 0.5
    res = unboundedness_scan(z, (10, 20, 40, 80))
    slope_err = abs(res.slope - (z - 1.0))
    kin_last = res.metrics[-1].kinetic
    o1 = [
        mtr.c_value - (z - 1.0) * np.log(mtr.n + 1.0) for mtr in res.metrics
    ]
    fails = [] if slope_err <= 0.03 else [
        f"slope {res.slope:.4f} outside {z - 1.0} +- 0.03 at n <= {res.metrics[-1].n}"
    ]
    return SuiteReport(
        "counterexample",
        {
            "slope": res.slope,
            "target_slope": z - 1.0,
            "slope_error": slope_err,
            "kinetic_at_largest_n": kin_last,
            "o1_span": max(o1) - min(o1),
        },
        fails,
    )


def delta_suite() -> SuiteReport:
    """Log-log decay of the mollifier self-energy (target slope -1), n = 1, 2, 4, 8."""
    n_list = (1, 2, 4, 8)
    grid = Grid(1.25, 641)
    energies = []
    for n in n_list:
        d = delta_approximant(n, grid)
        energies.append(-coulomb_pair_energy(d, d))
    slope = float(np.polyfit(np.log(n_list), np.log(energies), 1)[0])
    ok = -1.1 <= slope <= -0.9
    fails = [] if ok else [f"self-energy slope {slope:.4f} outside [-1.1, -0.9]"]
    return SuiteReport("delta", {"loglog_slope": slope}, fails)


def innerprod_suite(seed=0) -> SuiteReport:
    """Positivity and the Dirichlet-form identity of the -|x-y| inner product, 500 trials.

    The zero-mean samples f are drawn a block at a time and each block's
    potentials V built once; <f, f> = int 2 V f and the Dirichlet form
    2 int V'^2 are both read from V, each row with the bits of
    :func:`neg_kernel_inner_product` and of ``2 * kinetic_energy`` on the
    row alone.  A row that is not zero-mean raises
    :class:`NonZeroMeanError` naming its trial, as the one-row inner
    product does.
    """
    rng = np.random.default_rng(seed)
    trials, grid = 500, Grid(10.0, 401)
    blocks = _blocks(trials, grid.N)
    work = np.empty((blocks[0].stop, grid.N))  # the potential's input, 2 V, then V's steps
    ip, ident = np.empty((2, trials))
    for blk in blocks:
        f = random_zero_mean_compact(grid, rng, rows=blk.stop - blk.start)
        _require_zero_mean(f, grid, "f", first_row=blk.start)
        m = np.multiply(grid.weights, f, out=f)
        w = work[:len(m)]
        np.copyto(w, m)
        v = _potential_rows(w, grid.x)
        ip[blk] = np.vecdot(m, np.multiply(v, 2.0, out=w))
        dv = np.subtract(v[..., 1:], v[..., :-1], out=w[..., 1:])  # np.diff
        ident[blk] = np.vecdot(dv, dv)
    ident = 2.0 * (ident / grid.h)
    rel = np.abs(ip - ident) / np.maximum(np.abs(ip), 1e-300)
    min_ip, worst_rel = float(np.min(ip)), float(np.max(rel))
    ok = min_ip > 0.0 and worst_rel <= 1e-12
    return SuiteReport(
        "innerprod",
        {"min_inner_product": min_ip, "worst_identity_rel_err": worst_rel},
        [] if ok else ["positivity or Dirichlet identity violated"],
    )


SUITES = {
    "forms": forms_suite,
    "bnorm": bnorm_suite,
    "rearrange": rearrange_suite,
    "counterexample": counterexample_suite,
    "delta": delta_suite,
    "innerprod": innerprod_suite,
}
