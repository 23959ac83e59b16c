#!/usr/bin/env python3
"""Time to a ground state on three workloads, with a separate traced run.

    python3 perfbench/run.py --workload gd-point --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, one process each
    python3 perfbench/run.py --trace 1       # traced run of every workload

One run builds the workload's op list from ``--seed``, does one untimed
warm-up op, then times a fixed number of whole passes over the op list:
``--seconds`` divided by the workload's nominal pass time, at least one.
The count does not depend on how fast the host is, so a seed always gives
the same ops, and the same failures.  Every op is checked after the timed
region.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A JSON-lines record per op goes to ``perfbench/out/records/``.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with a non-zero code and prints no result.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("gd-point", "scf-sampled-fine", "cli-sweep")
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 7  # this process plus six set-up probes
CHILD_TIMEOUT = 170

# Gated end-to-end metrics (the last-line JSON).  op_s.p50 and fail_frac are
# printed above it but not gated: see README.md.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Spanned package functions, named <module>.<function>.  Calls and busy time
# are reported for _CALLS_BUSY, busy time for _BUSY_ONLY; cli.main is
# spanned too, only so that cli.self_s includes its own time.
_CALLS_BUSY = [
    "solver.ground_eigenpair", "solver.gradient_solve", "solver.scf_solve",
    "energy.solver_objective", "energy.effective_potential", "energy.el_residual",
    "energy.total_energy", "background.background_potential",
    "kernel.potential_from_density", "kernel.c_functional", "kernel.coulomb_pair_energy",
    "kernel.c_plus", "kernel.b_norm", "kernel.b_form", "grid.normalize",
]
_BUSY_ONLY = [
    "rearrange.symmetric_decreasing_rearrangement", "diagnostics.unboundedness_scan",
    "verify.forms", "verify.bnorm", "verify.rearrange", "verify.counterexample",
    "verify.delta", "verify.innerprod", "cli.cmd_scan", "cli.cmd_solve", "cli.cmd_verify",
]
PER_LAYER = (
    [("solver.iterations", "count"), ("solver.solves", "count"),
     ("solver.linesearch.evals", "count"), ("solver.linesearch.accept_ratio", "ratio")]
    + [(f"{n}.{s}", u) for n in _CALLS_BUSY for s, u in (("calls", "count"), ("busy_s", "s"))]
    + [("energy.solver_objective.self_s", "s")]
    + [(f"{n}.busy_s", "s") for n in _BUSY_ONLY]
    + [("cli.scan.pool_ratio", "ratio"), ("cli.self_s", "s"), ("trace.overhead_frac", "ratio")]
)
SOLVERS = ("solver.gradient_solve", "solver.scf_solve")
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def observe_solve(tracer, result, exc):
    if exc is None:
        iterations = getattr(result, "iterations", 0)
    else:
        iterations = len(getattr(exc, "history", None) or [])
    tracer.add("solver.iterations", iterations)
    tracer.add("solver.solves")


def trace_targets():
    """(span name, module, attribute, observer) for the traced run."""
    targets = []
    for name in _CALLS_BUSY + _BUSY_ONLY + ["cli.main"]:
        layer, func = name.split(".", 1)
        attr = f"{func}_suite" if layer == "verify" else func
        targets.append((name, f"coulombium.{layer}", attr,
                        observe_solve if name in SOLVERS else None))
    return targets


def count_targets():
    """The few names counted in untraced runs, for the per-op records."""
    return [t for t in trace_targets()
            if t[0] in SOLVERS + ("energy.solver_objective", "solver.ground_eigenpair")]


def import_package(src):
    init = os.path.join(src, "coulombium", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no coulombium package at {src}")
    sys.path.insert(0, src)
    pkg = importlib.import_module("coulombium")
    importlib.import_module("coulombium.cli")
    if os.path.realpath(pkg.__file__) != os.path.realpath(init):
        sys.exit(f"error: imported coulombium from {pkg.__file__}, not {src}")
    return pkg


def pass_count(workload, seconds):
    """Passes a run of ``seconds`` makes: fixed by the workload, not timed."""
    return max(1, int(seconds // workload.pass_s))


def timed_passes(workload, tracer, passes, scratch, traced):
    """Time ``passes`` whole passes over the op list.

    Each pass is checked right after its timed region and its outcomes are
    dropped, so memory does not grow with the number of passes.  Returns
    the pass wall times, the per-op records and the peak RSS in MB read at
    the end of the last timed region.
    """
    walls, records = [], []
    for _ in range(passes):
        pass_dir = os.path.join(scratch, f"pass{len(walls)}")
        os.makedirs(pass_dir)
        results = []
        t_pass = time.perf_counter()
        for op in workload.ops:
            before = tracer.snapshot()
            t = time.perf_counter()
            try:
                outcome = op.run(pass_dir)
            except Exception as exc:  # a failed op is recorded, not fatal
                outcome = exc
            dt = time.perf_counter() - t
            after = tracer.snapshot()
            counts = {k: v - before.get(k, 0) for k, v in after.items()}
            results.append((op, outcome, dt, counts))
        walls.append(time.perf_counter() - t_pass)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records += check_pass(workload.name, len(walls) - 1, results, traced)
        del results
    return walls, records, peak_rss_mb


def check_pass(workload_name, pass_index, results, traced):
    """Run every op's check; returns the per-op records."""
    records = []
    for i, (op, outcome, dt, counts) in enumerate(results):
        try:
            reason, details = op.check(outcome)
        except Exception as exc:  # a check that cannot read the output fails the op
            reason, details = measure.WRONG, {"check_error": repr(exc)}
        records.append({
            "workload": workload_name, "traced": traced, "pass": pass_index, "op": i,
            "kind": op.kind, "input": op.input,
            "iterations": counts.get("solver.iterations", 0),
            "solves": counts.get("solver.solves", 0),
            "objective_evals": counts.get("energy.solver_objective.calls", 0),
            "eigensolves": counts.get("solver.ground_eigenpair.calls", 0),
            "stop_reason": reason, "seconds": dt, "details": details,
        })
    return records


def layer_metrics(tracer, absent, untraced_wall, traced_wall):
    values = {}
    for name, stat in ((n, s) for n in _CALLS_BUSY for s in ("calls", "busy_s")):
        table, zero = (tracer.calls, 0) if stat == "calls" else (tracer.busy, 0.0)
        values[f"{name}.{stat}"] = None if name in absent else table.get(name, zero)
    for name in _BUSY_ONLY:
        values[f"{name}.busy_s"] = None if name in absent else tracer.busy.get(name, 0.0)
    obj = "energy.solver_objective"
    values[f"{obj}.self_s"] = None if obj in absent else tracer.self_time.get(obj, 0.0)
    solvers_absent = all(s in absent for s in SOLVERS)
    iterations = None if solvers_absent else tracer.counts.get("solver.iterations", 0)
    evals = values[f"{obj}.calls"]
    values["solver.iterations"] = iterations
    values["solver.solves"] = None if solvers_absent else tracer.counts.get("solver.solves", 0)
    values["solver.linesearch.evals"] = evals
    values["solver.linesearch.accept_ratio"] = (
        None if iterations is None or evals is None else (iterations / evals if evals else 0.0)
    )
    # Only cmd_scan hands solves to the pool, so adopted solver spans are
    # exactly the solves run under scans.
    scan_wall = tracer.busy.get("cli.cmd_scan", 0.0)
    pooled = sum(tracer.pooled.get(s, 0.0) for s in SOLVERS)
    values["cli.scan.pool_ratio"] = (
        None if "cli.cmd_scan" in absent else (pooled / scan_wall if scan_wall else 0.0)
    )
    values["cli.self_s"] = sum(
        (v for k, v in tracer.self_time.items() if k.startswith("cli.")), 0.0
    )
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values


def setup_probe_times(args, count):
    """Set-up time of ``count`` fresh processes doing this run's set-up."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", "--src", args.src]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                              check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def run_one(args):
    for var in PINNED_THREADS:  # one BLAS/OpenMP thread, set before NumPy loads
        os.environ[var] = "1"
    import workloads  # loads NumPy, so only after the pinning above

    pkg = import_package(args.src)
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    if args.workload == "cli-sweep":
        # Keep the scan pool within the cores this process may run on.
        os.environ["COULOMBIUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, pkg)
        counter = spans.Tracer(spans=False)
        restore, _ = spans.install(counter, count_targets())
        workload.warmup(scratch)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            restore()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        walls, records, peak_rss_mb = timed_passes(
            workload, counter, pass_count(workload, args.seconds), scratch, traced=False
        )
        restore()
        untraced_wall = statistics.median(walls)
        if args.trace:
            tracer = spans.Tracer()
            restore, absent = spans.install(tracer, trace_targets())
            try:
                (traced_wall,), traced_records, _ = timed_passes(
                    workload, tracer, 1, os.path.join(scratch, "traced"), traced=True
                )
            finally:
                restore()
            records += traced_records
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rec_path = os.path.join(OUT, "records",
                            f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.jsonl")
    with open(rec_path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r, default=float) + "\n")

    latencies = [r["seconds"] for r in records if not r["traced"]]
    lat = measure.latency_summary(latencies)
    attempted = len(records)
    failed, wrong = measure.failures(records)
    reasons = collections.Counter(r["stop_reason"] for r in records)

    print(f"workload {args.workload} seed {args.seed}: {len(workload.ops)} ops x "
          f"{len(walls)} pass(es){' + 1 traced pass' if args.trace else ''}")
    print(f"  stop reasons {json.dumps(reasons, sort_keys=True)}; records {rec_path}")
    print(f"  fail_frac = {failed / attempted:.4f} ({failed}/{attempted} ops, {wrong} wrong)")
    higher = "".join(f", op_s.{k} = {v:.4f} s" for k, v in lat.items() if k not in ("n", "p50"))
    print(f"  op_s.p50 = {lat['p50']:.4f} s over {lat['n']} untraced ops"
          + (higher or " (too few ops for a higher percentile)"))
    if args.trace:
        values = layer_metrics(tracer, absent, untraced_wall, traced_wall)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        if absent:
            print(f"  absent (wrapped name not found): {', '.join(absent)}")
    else:
        setups = [setup_s] + setup_probe_times(args, SETUP_SAMPLES - 1)
        values = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, m in metrics.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name} = {shown} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a fresh process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace)), "--src", args.src]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the coulombium package")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.src = os.path.abspath(args.src)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
