import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulombium import (
    Grid,
    NonZeroMeanError,
    Samples,
    b_form,
    b_norm,
    c_functional,
    kinetic_energy,
    neg_kernel_inner_product,
    potential_from_density,
    symmetric_decreasing_rearrangement,
    verify,
)
from coulombium.verify import random_density, random_zero_mean_compact
from oracles import c_plus_by_dots, hardy_littlewood_check


@settings(max_examples=40, deadline=None, database=None)
@given(half=st.integers(2, 400), L=st.floats(0.5, 40.0), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 9))
def test_block_draws_are_successive_one_row_draws(half, L, seed, rows):
    # a suite's block keeps the data its seed gave trial by trial (the
    # zero-mean draw needs N >= 7)
    grid = Grid(L, 2 * half + 1)
    draws = [
        lambda rng, rows=None: random_density(grid, rng, rows=rows),
    ]
    if grid.N >= 7:
        draws.append(lambda rng, rows=None: random_zero_mean_compact(grid, rng, rows=rows))
    for draw in draws:
        block = draw(np.random.default_rng(seed), rows=rows)
        rng = np.random.default_rng(seed)
        assert block.shape == (rows, grid.N)
        for i in range(rows):
            assert np.array_equal(block[i], draw(rng).values)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("rows", [None, 2])
def test_zero_mean_draw_refuses_a_grid_below_seven_nodes(n, rows):
    # N = 3 leaves no core and N = 5 one node, which the zero mean sets to 0
    with pytest.raises(ValueError, match=f"at least 7 nodes, got N = {n}"):
        random_zero_mean_compact(Grid(1.0, n), np.random.default_rng(0), rows=rows)


def test_zero_mean_draw_on_seven_nodes_is_nonzero_and_zero_mean():
    grid = Grid(1.0, 7)
    f = random_zero_mean_compact(grid, np.random.default_rng(0))
    assert np.any(f.values != 0.0)
    assert abs(float(np.dot(grid.weights, f.values))) <= 1e-15


def test_forms_suite_fails_a_perturbed_form(monkeypatch):
    forms = verify._c_plus_forms

    def perturbed(t, m, h):
        a, b, c, d = forms(t, m, h)
        return a, b, c, d * (1.0 + 1e-6)

    monkeypatch.setattr(verify, "_c_plus_forms", perturbed)
    rep = verify.forms_suite(seed=0)
    assert not rep.passed
    assert rep.metrics["max_rel_deviation"] > 1e-9


def test_rearrange_suite_fails_an_increasing_rearrangement(monkeypatch):
    # the values laid out by increasing |x|: equimeasurable, but it moves mass outwards
    def increasing(f, grid):
        out = np.empty_like(f)
        out[..., np.argsort(np.abs(grid.x), kind="stable")] = np.sort(f, axis=-1)
        return out

    monkeypatch.setattr(verify, "_rearrange_rows", increasing)
    rep = verify.rearrange_suite(seed=0)
    assert not rep.passed
    assert rep.metrics["equimeasurability_failures"] == 0
    assert rep.metrics["worst_hardy_littlewood_excess"] > 0.0
    assert rep.metrics["worst_interaction_increase"] > 0.0


def test_innerprod_suite_fails_a_scaled_potential(monkeypatch):
    # <f, f> scales by 1 + 1e-3, the Dirichlet form by its square
    rows = verify._potential_rows
    monkeypatch.setattr(verify, "_potential_rows", lambda m, x: rows(m, x) * (1.0 + 1e-3))
    rep = verify.innerprod_suite(seed=0)
    assert not rep.passed
    assert rep.metrics["worst_identity_rel_err"] > 1e-6


def test_innerprod_suite_fails_a_potential_off_by_a_part_in_a_billion(monkeypatch):
    # the identity is exact on the grid (rounding leaves about 4e-15), so
    # a kernel off by 1e-9 reads an identity error of about 1e-9
    rows = verify._potential_rows
    monkeypatch.setattr(verify, "_potential_rows", lambda m, x: rows(m, x) * (1.0 + 1e-9))
    rep = verify.innerprod_suite(seed=0)
    assert not rep.passed
    assert 1e-10 < rep.metrics["worst_identity_rel_err"] < 1e-8


def test_innerprod_suite_refuses_a_row_that_is_not_zero_mean(monkeypatch):
    draw = verify.random_zero_mean_compact

    def offset(grid, rng, rows=None):
        f = draw(grid, rng, rows=rows)
        f[17] += 1e-3
        return f

    monkeypatch.setattr(verify, "random_zero_mean_compact", offset)
    with pytest.raises(NonZeroMeanError, match=r"integral of f\[17\]"):
        verify.innerprod_suite(seed=0)


def test_innerprod_suite_names_a_bad_row_by_its_trial(monkeypatch):
    # trial 417 lies beyond the first block; the error counts rows from the
    # suite's first trial, not the block's
    draw, drawn = verify.random_zero_mean_compact, []

    def offset(grid, rng, rows=None):
        f = draw(grid, rng, rows=rows)
        if sum(drawn) <= 417 < sum(drawn) + rows:
            f[417 - sum(drawn)] += 1e-3
        drawn.append(rows)
        return f

    monkeypatch.setattr(verify, "random_zero_mean_compact", offset)
    with pytest.raises(NonZeroMeanError, match=r"integral of f\[417\]"):
        verify.innerprod_suite(seed=0)
    assert drawn[0] < 417


def _loop_metrics(name, seed):
    """A suite's metrics trial by trial through the public one-row calls: the loop reference."""
    rng = np.random.default_rng(seed)
    if name == "forms":
        grid, worst = Grid(10.0, 401), 0.0
        for _ in range(100):
            f = random_density(grid, rng)
            vals = c_plus_by_dots(f.values, grid)
            worst = max(worst, (max(vals) - min(vals)) / max(abs(v) for v in vals))
        return {"max_rel_deviation": worst}
    if name == "rearrange":
        grid, worst_hl, worst_c, equi = Grid(6.0, 241), -np.inf, -np.inf, 0
        for _ in range(200):
            f = random_density(grid, rng)
            fstar = symmetric_decreasing_rearrangement(f)
            equi += not np.array_equal(np.sort(f.values), np.sort(fstar.values))
            lhs, rhs = hardy_littlewood_check(f, lambda a: a)
            worst_hl = max(worst_hl, rhs - lhs)
            worst_c = max(worst_c, c_functional(fstar, 1.0) - c_functional(f, 1.0))
        return {"equimeasurability_failures": equi, "worst_hardy_littlewood_excess": worst_hl,
                "worst_interaction_increase": worst_c}
    if name == "bnorm":
        # the suite's three block draws, then pair by pair; the axioms are
        # read from the per-pair values with the suite's array arithmetic
        grid, pairs = Grid(8.0, 201), 1000
        u, v = rng.standard_normal((pairs, grid.N)), rng.standard_normal((pairs, grid.N))
        lam = rng.uniform(-3.0, 3.0, pairs)
        norms, cs = [], []
        for ui, vi, li in zip(u, v, lam):
            norms.append([b_norm(Samples(grid, w)) for w in (ui, vi, li * ui, ui + vi, ui - vi)])
            usq, vsq = Samples(grid, ui**2), Samples(grid, vi**2)
            cs.append(b_form(usq, vsq) - np.sqrt(b_form(usq, usq) * b_form(vsq, vsq)))
        bu, bv, blam, bsum, bdif = np.array(norms).T
        scaled = np.abs(lam) * bu
        uc = bdif**4 + bsum**4 - 4.0 * (bu**2 + bv**2) ** 2
        return {
            "homogeneity_violations": np.count_nonzero(
                np.abs(blam - scaled) > 1e-12 * (1.0 + scaled)),
            "triangle_violations": np.count_nonzero(bsum > bu + bv + 1e-12),
            "cauchy_schwarz_violations": np.count_nonzero(np.array(cs) > 1e-12),
            "uniform_convexity_violations": np.count_nonzero(uc > 1e-10),
            "worst_triangle_excess": float(np.max(bsum - bu - bv)),
            "worst_convexity_excess": float(np.max(uc)),
        }
    grid, min_ip, worst = Grid(10.0, 401), np.inf, 0.0
    for _ in range(500):
        f = random_zero_mean_compact(grid, rng)
        ip = neg_kernel_inner_product(f, f)
        ident = 2.0 * kinetic_energy(potential_from_density(f))
        min_ip, worst = min(min_ip, ip), max(worst, abs(ip - ident) / max(abs(ip), 1e-300))
    return {"min_inner_product": min_ip, "worst_identity_rel_err": worst}


@pytest.mark.filterwarnings("ignore::coulombium.errors.NormalizationWarning")  # random mass
@pytest.mark.parametrize("name", ["forms", "bnorm", "rearrange", "innerprod"])
@pytest.mark.parametrize("seed", [3, 2024])
def test_block_suites_give_the_loop_metrics_bit_for_bit(name, seed):
    assert verify.SUITES[name](seed=seed).metrics == _loop_metrics(name, seed)


@pytest.mark.filterwarnings("ignore::coulombium.errors.NormalizationWarning")  # random mass
@pytest.mark.parametrize("name", ["forms", "bnorm", "rearrange", "innerprod"])
@pytest.mark.parametrize("rows", [1, 7])
def test_any_block_size_gives_the_loop_metrics_bit_for_bit(name, rows, monkeypatch):
    # one row a block, and 7, which leaves every suite a short last block
    monkeypatch.setattr(verify, "_block_rows", lambda n: rows)
    assert verify.SUITES[name](seed=3).metrics == _loop_metrics(name, 3)


@pytest.mark.parametrize("name,budget_mb", [
    ("forms", 0.5), ("bnorm", 2.8), ("rearrange", 0.85), ("innerprod", 0.85),
    ("counterexample", 2.0)])
def test_a_suite_holds_a_bounded_working_set(name, budget_mb):
    # Each budget is about 10-25 % above the measured traced peak (0.40,
    # 2.52, 0.73, 0.73 and 1.81 MB).  The seeded suites hold a few 128 KiB
    # blocks, and bnorm all of its u (1.6 MB); the counterexample scan holds
    # four half-grid arrays at n = 80 (0.44 MB each).  Suites that build all
    # their trials and temporaries at once peak at 0.88, 5.34, 1.60, 6.55
    # and 2.70 MB.
    suite = verify.SUITES[name]
    run = suite if name == "counterexample" else lambda: suite(seed=0)
    run()  # warm
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= budget_mb * 1e6
