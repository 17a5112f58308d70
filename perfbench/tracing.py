"""Span tracing and timing statistics for the switchbeam benchmark.

The tracer wraps the public functions of every loaded ``switchbeam`` module
from outside the package: each original function object is replaced by its
wrapper in every module namespace that holds it, so a call is traced whether
it goes through the defining module, a ``from .x import f`` site or the
package root.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or -1).  Spans live in memory; the harness aggregates them
when a run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: Scalar helpers called thousands of times per operation.  They are counted,
#: not timed: a span per call would cost more than the call itself.  Their
#: time is part of the calling function's self time.
COUNT_ONLY = frozenset({
    "harmonic_analysis.path_coefficient",
    "harmonic_analysis.combined_coefficient",
    "circuit_model.circuit_efficiency",
})

#: Helpers cheaper than a counting wrapper (tens of thousands of calls per
#: operation); left unwrapped, their time is their caller's self time.
UNWRAPPED = frozenset({
    "array_model.wrap_unit",
    "schedule_design.steering_onset",
    "modulation.amplitude_of_alpha",
    "circuit_model.total_drain_efficiency",
    "formats.format_float",
})


def _schedule_size(schedule) -> tuple[int, int]:
    cfg = schedule.config
    return cfg.n_elements, cfg.path_count


def _work_coefficient_vector(tracer, args, kwargs, result):
    n, paths = _schedule_size(args[0])
    tracer.counters["harmonic_analysis.path_coefficients"] += n * paths


def _work_total_power(tracer, args, kwargs, result):
    n, _ = _schedule_size(args[0])
    tracer.counters["harmonic_analysis.total_power.pairs"] += n * (n + 1) // 2
    tracer.schedules.add(hash(args[0]))


def _work_array_factor(tracer, args, kwargs, result):
    n, _ = _schedule_size(args[0])
    theta = args[2] if len(args) > 2 else kwargs["theta"]
    points = getattr(theta, "size", 1)
    tracer.counters["harmonic_analysis.array_factor.points"] += points * n


def _work_text_out(tracer, args, kwargs, result):
    tracer.counters["formats.bytes_out"] += len(result.encode("utf-8"))


#: Work counted from argument sizes and results, keyed by span name.
WORK = {
    "harmonic_analysis.coefficient_vector": _work_coefficient_vector,
    "harmonic_analysis.total_power": _work_total_power,
    "harmonic_analysis.array_factor": _work_array_factor,
    "formats.dump_json": _work_text_out,
    "formats.write_csv": _work_text_out,
}


class Tracer:
    """Collects spans and counters while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.schedules: set[int] = set()
        self.distinct_schedules = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def end_unit(self) -> None:
        """Close the accounting of one unit of work (an operation or a CLI child)."""
        self.distinct_schedules += len(self.schedules)
        self.schedules.clear()

    def wrap(self, fn, name: str):
        counters = self.counters
        calls_key = name + ".calls"
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.enabled:
                    counters[calls_key] += 1
                return fn(*args, **kwargs)
            return counted

        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            counters[calls_key] += 1
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                work(self, args, kwargs, result)
            return result
        return traced

    def install(self, package: str = "switchbeam") -> None:
        """Wrap every public function of the loaded ``package`` modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        wrappers = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not callable(value) or isinstance(value, type)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                name = module.__name__.rsplit(".", 1)[-1] + "." + attr
                if name not in UNWRAPPED:
                    wrappers[id(value)] = (value, self.wrap(value, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes negative and a badly nested
    trace shows up as a gap in :func:`nesting_gap`.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def nesting_gap(spans, selfs) -> float:
    """Relative gap between summed self times and summed root durations.

    For properly nested spans every instant of a root span belongs to exactly
    one span's self time, so the sums agree to rounding.
    """
    roots = sum(end - start for name, start, end, parent in spans if parent < 0)
    if roots <= 0:
        return 0.0
    return abs(sum(selfs) - roots) / roots


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """Value at the highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``.  With ``beyond`` samples or fewer there
    is no such percentile and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n
