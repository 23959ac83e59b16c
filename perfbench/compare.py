#!/usr/bin/env python3
"""Compare two source trees with the same benchmark code, alternating sides.

    python3 perfbench/compare.py --base ../parent --head . --workload gd-point

Each pair runs ``run.py`` once per side on the same seed, in fresh
processes, with the side that goes first alternating from pair to pair.
``--base`` and ``--head`` are checkouts holding ``src/coulombium``; the
benchmark code is always this directory's.  For every end-to-end metric it
prints each side's median and quartiles, how many pairs the head won, and
a verdict: a gain needs the head to win at least 9 of 10 pairs, the
medians to differ by more than the base's quartile spread, and the head to
fail no larger share of its ops than the base (median of
``failed / attempted`` over the runs: a faster side fits more passes into
a run, so raw counts would not compare); a regression is
a head median worse than the base's by more than the metric's bound.  Every
verdict reads "invalid" when any head run returned a wrong result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_side(src, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--src", src]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    return json.loads(proc.stdout.splitlines()[-1])


def verdict(base, head, better, bound, wins, more_failures):
    b_med, h_med = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4)
    sign = -1.0 if better == "lower" else 1.0
    if wins >= 0.9 * len(base) and abs(h_med - b_med) > q3 - q1:
        return "no gain (head fails more ops)" if more_failures else "gain"
    if sign * (h_med - b_med) < -bound * b_med:
        return "regression"
    if q3 - q1 > bound * b_med:
        return "unresolved (spread wider than bound)"
    return "no change within bound"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sides = {"base": os.path.join(os.path.abspath(args.base), "src"),
             "head": os.path.join(os.path.abspath(args.head), "src")}
    results = {"base": [], "head": []}
    for i in range(args.runs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            results[side].append(run_side(sides[side], args.workload,
                                          args.first_seed + i, args.seconds))
        print(f"pair {i + 1}/{args.runs} done ({order[0]} first)", file=sys.stderr)
    fail_frac = {side: statistics.median(r["failed"] / r["attempted"] for r in runs)
                 for side, runs in results.items()}
    print(f"{args.workload} fail_frac (median over runs): base {fail_frac['base']:.4f}, "
          f"head {fail_frac['head']:.4f}")
    wrong = sum(1 for r in results["head"] if not r["correct"])
    for name, m in spec.items():
        base = [r["metrics"][name]["value"] for r in results["base"]]
        head = [r["metrics"][name]["value"] for r in results["head"]]
        lower = m["better"] == "lower"
        wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        row = []
        for label, vals in (("base", base), ("head", head)):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            row.append(f"{label} {med:.4g} [{q1:.4g}, {q3:.4g}]")
        result = (f"invalid ({wrong} head runs returned wrong results)" if wrong else
                  verdict(base, head, m["better"], m["bound"], wins,
                          fail_frac["head"] > fail_frac["base"]))
        print(f"{args.workload} {name} ({m['unit']}): {'; '.join(row)}; head won "
              f"{wins}/{len(base)}; {result}")


if __name__ == "__main__":
    main()
