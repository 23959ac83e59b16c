"""Small statistics used by the benchmark: percentiles and failure counts."""

from __future__ import annotations

import math
import statistics


def latency_summary(samples, higher=(90, 99), beyond=10):
    """Median and every higher percentile backed by enough samples.

    A percentile q is reported only when at least ``beyond`` samples lie
    above its nearest rank ceil(q/100 * n), so no reported figure rests on
    a handful of slow ops.  Returns ``{"n": n, "p50": ..., "p90": ...}``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "p50": statistics.median(xs)}
    for q in higher:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= beyond:
            out[f"p{q}"] = xs[rank - 1]
    return out


# Stop reasons of an op whose result passed its check.  Every other reason
# is a failure: an honest one ("max_iter", "stalled", "diverged",
# "eigensolve", "no_convergence") or WRONG.
OK_REASONS = ("converged", "expected_verdict")
# The program returned a result and the check found it wrong.
WRONG = "wrong"


def failures(records):
    """(failed, wrong) op counts; an op fails unless its check passed."""
    failed = sum(1 for r in records if r["stop_reason"] not in OK_REASONS)
    wrong = sum(1 for r in records if r["stop_reason"] == WRONG)
    return failed, wrong
