"""Timing loop, span tracer and small statistics helpers for the benchmark.

A workload is a list of instances.  One pass runs every instance once, in an
order drawn from the workload seed; a run repeats passes until its time is
used up and reports medians over passes.  Spans are recorded only when a
pass is traced, and stay in memory until the run writes them out.
"""
from __future__ import annotations

import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# Percentiles tried for a tail, highest first; one is used only when at least
# TAIL_MIN_BEYOND samples lie beyond it.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Outcome:
    """What one instance returned, and whether every check on it held."""

    ok: bool
    detail: str = ""
    value: Optional[int] = None
    expected: Optional[int] = None
    exhausted: Optional[bool] = None
    exit_code: Optional[int] = None


@dataclass
class Instance:
    """One checked unit of work; run() takes the tracer of the pass."""

    id: str
    run: Callable[["Tracer"], Outcome]


class _Hot:
    """Count, total time and hits of one hot call inside one open span."""

    __slots__ = ("count", "total", "hits")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.hits = 0


class Tracer:
    """Spans around calls into the package's layers.

    A disabled tracer only calls through.  An enabled one records, for each
    call, a span with its name, start, end, parent span and instance id, and
    an optional dict of attributes derived from the result.  Hot calls made
    below the open span (the detector inside an oracle search) are folded
    into one aggregate record per (parent span, name).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.aggregates: list[dict] = []
        self._stack: list[int] = []
        self._hot: list[dict[str, _Hot]] = []
        self.instance = ""
        self.phase = ""

    def call(self, name: str, fn, *args, note=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent,
               "instance": self.instance, "phase": self.phase,
               "start": 0.0, "end": 0.0, "attrs": None}
        self.spans.append(rec)
        self._stack.append(sid)
        self._hot.append({})
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            for hot_name, h in self._hot.pop().items():
                self.aggregates.append({
                    "name": hot_name, "parent": sid,
                    "instance": self.instance, "phase": self.phase,
                    "count": h.count, "total_s": h.total, "hits": h.hits})
        if note is not None:
            rec["attrs"] = note(result)
        return result

    def hot(self, name: str, seconds: float, hit: bool) -> None:
        """Add one hot call to the innermost open span."""
        if not self._hot:
            return
        bucket = self._hot[-1]
        h = bucket.get(name)
        if h is None:
            h = bucket[name] = _Hot()
        h.count += 1
        h.total += seconds
        h.hits += hit

    def self_seconds(self, phase: str) -> dict[str, float]:
        """Per layer (the span-name prefix), span time of one phase that
        its child spans do not cover."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        for agg in self.aggregates:
            child_time[agg["parent"]] += agg["total_s"]
        out: dict[str, float] = {}
        for rec in self.spans:
            if rec["phase"] == phase:
                layer = rec["name"].split(".", 1)[0]
                own = rec["end"] - rec["start"] - child_time[rec["id"]]
                out[layer] = out.get(layer, 0.0) + own
        for agg in self.aggregates:
            if agg["phase"] == phase:
                layer = agg["name"].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + agg["total_s"]
        return out


def install_hook(module, attr: str, tracer: Tracer, name: str):
    """Wrap module.attr so each call is folded into the tracer as hot.

    Returns a function that restores the original, or None when the
    attribute does not exist (the metric is then reported as not measured).
    """
    orig = getattr(module, attr, None)
    if orig is None:
        return None
    clock = time.perf_counter
    add = tracer.hot

    def wrapped(*args, **kwargs):
        t0 = clock()
        result = orig(*args, **kwargs)
        add(name, clock() - t0, result is not None)
        return result

    setattr(module, attr, wrapped)
    return lambda: setattr(module, attr, orig)


@dataclass
class PassRecord:
    traced: bool
    total_s: float
    times: dict[str, float] = field(default_factory=dict)
    outcomes: dict[str, Outcome] = field(default_factory=dict)


def run_pass(instances: list[Instance], rng: random.Random,
             tracer: Tracer) -> PassRecord:
    """Run every instance once in a seeded order; a failure never aborts."""
    order = list(instances)
    rng.shuffle(order)
    rec = PassRecord(traced=tracer.enabled, total_s=0.0)
    clock = time.perf_counter
    start = clock()
    for inst in order:
        tracer.instance = inst.id
        t0 = clock()
        try:
            out = inst.run(tracer)
        except Exception as exc:  # a crash is a failed instance
            out = Outcome(False, f"{type(exc).__name__}: {exc}")
        rec.times[inst.id] = clock() - t0
        rec.outcomes[inst.id] = out
    rec.total_s = clock() - start
    return rec


def run_loop(instances: list[Instance], seconds: float, rng: random.Random,
             tracer: Tracer, hook: Callable[[], Optional[Callable]]
             ) -> list[PassRecord]:
    """Repeat passes until the next one would overrun the time budget.

    Untraced runs make only untraced passes.  Traced runs alternate
    untraced and traced passes, starting untraced, and make at least one
    of each so that the tracing overhead can be taken from the same run.
    hook() installs the hot-call wrappers for a traced pass and returns the
    function that removes them (or None).
    """
    plain = Tracer(enabled=False)
    passes: list[PassRecord] = []
    start = time.perf_counter()
    while True:
        traced = tracer.enabled and len(passes) % 2 == 1
        if traced:
            tracer.phase = f"pass{len(passes)}"
            restore = hook()
            try:
                passes.append(run_pass(instances, rng, tracer))
            finally:
                if restore is not None:
                    restore()
        else:
            passes.append(run_pass(instances, rng, plain))
        elapsed = time.perf_counter() - start
        need_both = tracer.enabled and len(passes) < 2
        typical = statistics.median(p.total_s for p in passes)
        if not need_both and elapsed + typical > seconds:
            return passes


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def tail(xs) -> tuple[float, str]:
    """Highest standard percentile with TAIL_MIN_BEYOND samples beyond it."""
    xs = sorted(xs)
    for level in TAIL_LEVELS:
        if len(xs) * (100.0 - level) / 100.0 >= TAIL_MIN_BEYOND:
            idx = min(len(xs) - 1, int(len(xs) * level / 100.0))
            return xs[idx], f"p{level:g}"
    return median(xs), "p50"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
