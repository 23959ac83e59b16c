"""Tests of the benchmark harness's own helpers.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import threading
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# -- percentiles and spreads -----------------------------------------------


def test_latency_summary_reports_only_backed_percentiles():
    assert measure.latency_summary([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}
    hundred = measure.latency_summary(range(1, 101))
    assert hundred["p50"] == 50.5
    assert hundred["p90"] == 90  # ten samples (91..100) lie beyond it
    assert "p99" not in hundred  # only one would
    assert "p90" not in measure.latency_summary(range(1, 100))  # 9 beyond
    assert measure.latency_summary(range(1, 1001))["p99"] == 990


def test_latency_summary_rejects_empty():
    with pytest.raises(ValueError):
        measure.latency_summary([])


# -- failure accounting ----------------------------------------------------


def _op(outcome_check):
    return workloads.Op("k", {}, lambda d: None, outcome_check)


def test_failures_count_honest_failures_and_wrong_results():
    recs = [{"stop_reason": r} for r in
            ("converged", "expected_verdict", "max_iter", "stalled", "no_convergence", "wrong")]
    assert measure.failures(recs) == (4, 1)
    assert measure.failures([]) == (0, 0)


def test_pass_count_is_fixed_by_the_workload_not_by_the_clock(tmp_path):
    calls = []
    op = _op(lambda o: ("converged", {}))
    op.run = lambda d: calls.append(d)
    w = workloads.Workload("w", [op, op], lambda d: None, pass_s=6.0)
    assert [run.pass_count(w, s) for s in (1, 6, 29.9, 30)] == [1, 1, 4, 5]
    walls, recs, _ = run.timed_passes(w, spans.Tracer(spans=False), 3, str(tmp_path), False)
    assert len(walls) == 3 and len(recs) == 6 and len(calls) == 6


def test_check_passes_turns_a_crashing_check_into_a_wrong_op():
    def boom(_outcome):
        raise KeyError("missing column")

    ops = [_op(lambda o: ("converged", {})), _op(lambda o: ("stalled", {})), _op(boom)]
    results = [(op, None, 0.1, {"solver.iterations": 7}) for op in ops]
    recs = run.check_pass("w", 0, results, False)
    assert [r["stop_reason"] for r in recs] == ["converged", "stalled", measure.WRONG]
    assert recs[0]["iterations"] == 7
    assert "check_error" in recs[2]["details"]
    assert measure.failures(recs) == (2, 1)


def test_stop_reason_maps_solver_errors():
    errors = types.SimpleNamespace(
        MaxIterExceededError=type("M", (Exception,), {}),
        LineSearchStalledError=type("L", (Exception,), {}),
        DivergingEnergyError=type("D", (Exception,), {}),
        NoConvergenceError=type("N", (Exception,), {}),
    )
    pkg = types.SimpleNamespace(errors=errors)
    assert workloads.stop_reason(pkg, errors.MaxIterExceededError()) == "max_iter"
    assert workloads.stop_reason(pkg, errors.LineSearchStalledError()) == "stalled"
    assert workloads.stop_reason(pkg, errors.DivergingEnergyError()) == "diverged"
    assert workloads.stop_reason(pkg, RuntimeError()) == measure.WRONG


# -- spans: self time ------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans.covered_length([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert spans.covered_length([], 0, 1) == 0.0


def test_nested_self_time():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    outer = tr.enter("outer")
    clock.t = 2.0
    inner = tr.enter("inner")
    clock.t = 5.0
    tr.exit(inner)
    clock.t = 6.0
    inner2 = tr.enter("inner")
    clock.t = 7.0
    tr.exit(inner2)
    clock.t = 10.0
    tr.exit(outer)
    assert tr.calls == {"outer": 1, "inner": 2}
    assert tr.busy == {"outer": 10.0, "inner": 4.0}
    assert tr.self_time == {"outer": 6.0, "inner": 4.0}


def test_threaded_spans_are_adopted_by_the_submitting_span():
    tr = spans.Tracer()
    go = threading.Barrier(2, timeout=5)

    def worker():
        frame = tr.enter("solve")
        go.wait()  # both solves are open at the same time
        time.sleep(0.2)
        tr.exit(frame)

    scan = tr.enter("scan")
    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    tr.exit(scan)

    # Both solves ran in parallel under the scan: about twice its wall time.
    assert 1.5 < tr.pooled["solve"] / tr.busy["scan"] <= 2.05
    assert "scan" not in tr.pooled
    # Parallel children are covered once, not subtracted twice.
    assert 0.0 <= tr.self_time["scan"] < 0.5 * tr.busy["scan"]
    assert tr.calls["solve"] == 2


def test_spans_opened_and_closed_concurrently_stay_consistent():
    tr = spans.Tracer()
    errors = []

    def worker():
        try:
            for _ in range(2000):
                outer = tr.enter("solve")
                tr.exit(tr.enter("step"))
                tr.exit(outer)
        except Exception as exc:  # surfaced below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose races
    try:
        scan = tr.enter("scan")
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        tr.exit(scan)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and not any(t.is_alive() for t in threads)
    assert tr.calls == {"scan": 1, "solve": 8000, "step": 8000}
    assert tr.pooled["solve"] == pytest.approx(tr.busy["solve"])
    assert "step" not in tr.pooled  # nested on the worker, not adopted


def test_counting_tracer_records_calls_without_spans():
    tr = spans.Tracer(spans=False)
    f = tr.wrap("f", lambda x: x + 1)
    assert f(1) == 2 and f(2) == 3
    assert tr.calls == {"f": 2} and tr.busy == {}


def test_wrapper_observes_exceptions_and_reraises():
    seen = []
    tr = spans.Tracer()

    def fail():
        raise ValueError("x")

    w = tr.wrap("fail", fail, observe=lambda t, r, e: seen.append(type(e)))
    with pytest.raises(ValueError):
        w()
    assert seen == [ValueError] and tr.calls["fail"] == 1 and "fail" in tr.busy


def test_verdict_refuses_a_gain_when_the_head_fails_more_ops():
    base = [10.0, 10.2, 10.1, 9.9, 10.3, 10.0, 9.8, 10.1, 10.2, 10.0]
    head = [b - 2.0 for b in base]
    assert compare.verdict(base, head, "lower", 0.25, 10, False) == "gain"
    assert compare.verdict(base, head, "lower", 0.25, 10, True).startswith("no gain")
    worse = [b * 1.5 for b in base]
    assert compare.verdict(base, worse, "lower", 0.25, 0, False) == "regression"


# -- install / restore -----------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    core = types.ModuleType("fakepkg.core")

    def work(x):
        return 2 * x

    core.work = work
    user = types.ModuleType("fakepkg.user")
    user.work = work  # as after "from .core import work"
    user.TABLE = {"w": work}
    user.use = lambda x: user.work(x)
    root = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", root), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user, work


def test_install_wraps_every_reference_and_restores(fake_package):
    core, user, work = fake_package
    tr = spans.Tracer()
    restore, absent = spans.install(
        tr,
        [("core.work", "fakepkg.core", "work", None),
         ("core.renamed", "fakepkg.core", "no_longer_here", None)],
        package="fakepkg",
    )
    assert absent == ["core.renamed"]
    assert user.use(3) == 6 and user.TABLE["w"](1) == 2 and core.work(0) == 0
    assert tr.calls["core.work"] == 3
    restore()
    assert core.work is work and user.work is work and user.TABLE["w"] is work


def test_layer_metrics_reports_absent_names_as_null():
    tr = spans.Tracer()
    values = run.layer_metrics(tr, ["kernel.b_form"], 2.0, 2.5)
    assert values["kernel.b_form.calls"] is None
    assert values["kernel.b_norm.calls"] == 0
    assert values["trace.overhead_frac"] == pytest.approx(0.25)
    assert set(values) == {name for name, _ in run.PER_LAYER}


# -- check helpers ---------------------------------------------------------


def test_half_abs_potential_matches_the_dense_sum():
    x = np.linspace(-3.0, 3.0, 61)
    w = checks.trapezoid_weights(x)
    f = np.random.default_rng(0).random(x.size)
    dense = -0.5 * (np.abs(x[:, None] - x[None, :]) @ (w * f))
    assert np.allclose(checks.half_abs_potential(x, w, f), dense, rtol=0, atol=1e-12)


def test_counterexample_slope_is_the_documented_value():
    assert checks.counterexample_slope() == pytest.approx(-0.3158, abs=5e-4)


# -- inputs and the benchmark file -----------------------------------------


def test_stratified_draws_one_per_stratum_and_repeat():
    a = workloads.stratified(np.random.default_rng(5), 1.0, 6.0, 5)
    b = workloads.stratified(np.random.default_rng(5), 1.0, 6.0, 5)
    assert a == b and a == sorted(a)
    for i, v in enumerate(a):
        assert 1.0 + i < v <= 2.0 + i


def test_scf_inputs_repeat_for_a_seed():
    assert workloads.scf_inputs(3) == workloads.scf_inputs(3)
    assert workloads.scf_inputs(3) != workloads.scf_inputs(4)


def test_benchmark_file_lists_the_metrics_the_harness_emits():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
