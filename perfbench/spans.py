"""Thread-aware spans and call counters, recorded from outside the package.

The benchmark never edits ``coulombium``.  ``install`` swaps chosen package
functions for wrappers in every ``coulombium`` module namespace (and in
module-level dicts such as ``verify.SUITES``) and returns a function that
puts the originals back.  A wrapped name that no longer exists is reported
as absent instead of raising, so a later refactor turns a metric into
``null`` rather than crashing the run.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Frame:
    __slots__ = ("name", "start", "parent", "adopted", "children")

    def __init__(self, name, start, parent, adopted):
        self.name = name
        self.start = start
        self.parent = parent
        self.adopted = adopted
        self.children = []


class Tracer:
    """Per-name calls, busy time and self time, plus named counters.

    With ``spans=False`` a wrapper only counts calls (and runs its observer),
    which is what the untraced runs use to fill the per-op records.

    With spans on, each thread keeps its own parent stack.  A span opened on
    a thread whose stack is empty (a pool worker) is adopted by the newest
    open span of a thread whose own stack does not start with an adopted
    span, i.e. by the command that handed the work to the pool.  Self time
    is duration minus the union of the children's intervals, so children
    running in parallel on pool threads are not subtracted twice.
    ``pooled`` sums, per name, the busy time of adopted spans: the work
    that ran on pool threads.

    Stacks are pushed, popped and read only under the lock, so a thread
    looking for an adoptive parent never sees another thread's stack
    change under it.
    """

    def __init__(self, spans=True, clock=time.perf_counter):
        self.spans = spans
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.pooled: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list] = {}

    # -- counters -------------------------------------------------------
    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self):
        """Copy of call counts and counters, for per-op differences."""
        with self._lock:
            out = dict(self.counts)
            out.update({f"{k}.calls": v for k, v in self.calls.items()})
        return out

    # -- spans ----------------------------------------------------------
    def enter(self, name):
        start = self.clock()
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            if not self.spans:
                return None
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack:
                frame = _Frame(name, start, stack[-1], False)
            else:
                parent = self._adoptive_parent(stack)
                frame = _Frame(name, start, parent, parent is not None)
            stack.append(frame)
        return frame

    def _adoptive_parent(self, own):
        """Newest open span of a non-worker thread; caller holds the lock."""
        best = None
        for stack in self._stacks.values():
            if stack is own or not stack or stack[0].adopted:
                continue
            top = stack[-1]
            if best is None or top.start > best.start:
                best = top
        return best

    def exit(self, frame):
        if frame is None:
            return
        end = self.clock()
        dur = end - frame.start
        with self._lock:
            own = dur - covered_length(frame.children, frame.start, end)
            self._stacks[threading.get_ident()].pop()
            if frame.parent is not None:
                frame.parent.children.append((frame.start, end))
            self.busy[frame.name] = self.busy.get(frame.name, 0.0) + dur
            self.self_time[frame.name] = self.self_time.get(frame.name, 0.0) + own
            if frame.adopted:
                self.pooled[frame.name] = self.pooled.get(frame.name, 0.0) + dur

    def wrap(self, name, fn, observe=None):
        """Wrapper that records a span (or a call) named ``name`` around fn.

        ``observe(tracer, result, exc)`` runs after the call, outside the
        span, with the return value or the exception raised.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.exit(frame)
                if observe is not None:
                    observe(self, None, exc)
                raise
            self.exit(frame)
            if observe is not None:
                observe(self, result, None)
            return result

        return wrapper


def install(tracer, targets, package="coulombium"):
    """Wrap each ``(span_name, module, attr, observe)`` target in place.

    Every global of every loaded ``package`` module that is the original
    function, and every value of a module-level dict that is, is replaced.
    Returns ``(restore, absent)``: a function undoing all replacements and
    the span names whose target could not be found.
    """
    modules = [
        m
        for n, m in sorted(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]
    undo = []
    absent = []
    for name, modname, attr, observe in targets:
        mod = sys.modules.get(modname)
        orig = getattr(mod, attr, None) if mod is not None else None
        if not callable(orig):
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, orig, observe)
        for m in modules:
            ns = vars(m)
            for key, val in list(ns.items()):
                if val is orig:
                    ns[key] = wrapper
                    undo.append((ns, key, orig))
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            val[k2] = wrapper
                            undo.append((val, k2, orig))

    def restore():
        for container, key, orig in reversed(undo):
            container[key] = orig
        undo.clear()

    return restore, absent
