"""Span tracing installed from outside the program.

:func:`traced` wraps the public entry point of every layer a scenario
campaign crosses, records one span per call (name, start, end, parent)
and restores the originals on exit, so untraced campaigns in the same
process run the unmodified code. Spans stay in memory; the caller writes
them out when the benchmark run ends.

Spans that measure memory (``peak=True``) run under ``tracemalloc``,
which is started when the outermost such span opens and stopped when it
closes. Nested peak spans each keep their own high-water mark: an inner
span resets the tracemalloc peak, so on entry it first folds the peak
reached so far into the enclosing span's record.
"""

from __future__ import annotations

import functools
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One call of one layer entry point."""

    span_id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    #: Highest tracemalloc bytes above the span's entry level
    #: (peak spans only).
    peak_bytes: Optional[int] = None
    #: Work counters read from the call's arguments and return value.
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _PeakFrame:
    base: int
    high: int


class Tracer:
    """In-memory span recorder with nesting-safe tracemalloc peaks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._peaks: List[_PeakFrame] = []
        self._started_tracemalloc = False

    @contextmanager
    def span(self, name: str, peak: bool = False) -> Iterator[Span]:
        parent = self._open[-1].span_id if self._open else None
        record = Span(len(self.spans), name, parent, 0.0)
        self.spans.append(record)
        self._open.append(record)
        if peak:
            self._enter_peak()
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            if peak:
                record.peak_bytes = self._exit_peak()
            self._open.pop()

    def _enter_peak(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        current, peak = tracemalloc.get_traced_memory()
        if self._peaks:
            outer = self._peaks[-1]
            outer.high = max(outer.high, peak)
        tracemalloc.reset_peak()
        self._peaks.append(_PeakFrame(base=current, high=current))

    def _exit_peak(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        frame = self._peaks.pop()
        frame.high = max(frame.high, peak)
        if self._peaks:
            outer = self._peaks[-1]
            outer.high = max(outer.high, frame.high)
        elif self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False
        return frame.high - frame.base


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    A layer's calls run one after another on one thread, so children
    never overlap and the covered time is the sum of their durations.
    """
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
#: Counter extractors: (args, kwargs, result) -> {counter: value}; a
#: method's ``args`` start with ``self``.
CountFn = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Dict[str, int]]


def _plan_counts(args, kwargs, plan) -> Dict[str, int]:
    return {
        "directives": len(plan.directives),
        "transmissions": plan.n_transmissions,
    }


def _interval_counts(args, kwargs, result) -> Dict[str, int]:
    return {"intervals": int(result[0].size)}


def _repair_counts(args, kwargs, outcome) -> Dict[str, int]:
    n_devices = kwargs["n_devices"] if "n_devices" in kwargs else args[1]
    return {
        "rounds": outcome.rounds,
        "draws": outcome.rounds * int(n_devices) * outcome.base_segments,
    }


def _wrap(
    tracer: Tracer,
    fn: Callable,
    name: str,
    peak: bool = False,
    counts: Optional[CountFn] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, peak=peak) as span:
            result = fn(*args, **kwargs)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
        return result

    return wrapper


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _entry_points() -> List[Tuple[Any, str, str, bool, Optional[CountFn]]]:
    """``(owner, attribute, span name, peak, counts)`` per entry point.

    Module-level functions are patched where the calling module looked
    them up, since ``from x import f`` binds the name at import time.
    """
    import repro.scenarios.runner as runner
    import repro.setcover.incremental as incremental
    import repro.setcover.windows as windows
    from repro.core.base import GroupingMechanism
    from repro.core.plan import MulticastPlan
    from repro.grouping.policy import GroupingPolicy
    from repro.setcover.incremental import IncrementalSweep
    from repro.sim.executor import CampaignExecutor

    points: List[Tuple[Any, str, str, bool, Optional[CountFn]]] = [
        (runner, "generate_fleet", "traffic.generate", False, None),
        (runner, "partition_fleet", "multicast.partition", False, None),
        (runner, "simulate_repair_rounds", "multicast.repair", True,
         _repair_counts),
        (incremental, "coverage_intervals", "setcover.intervals", False,
         _interval_counts),
        (windows, "coverage_intervals", "setcover.intervals", False,
         _interval_counts),
        (IncrementalSweep, "__init__", "setcover.sweep_build", True, None),
        (IncrementalSweep, "select", "setcover.select", False,
         lambda args, kwargs, result: {"selections": 1}),
        (CampaignExecutor, "execute", "sim.execute", False, None),
        (MulticastPlan, "validate", "core.validate", False, None),
    ]
    for cls in _subclasses(GroupingMechanism):
        if "plan" in vars(cls):
            points.append((cls, "plan", "core.plan", False, _plan_counts))
    for cls in _subclasses(GroupingPolicy):
        if "group" in vars(cls):
            points.append((cls, "group", "grouping.group", False, None))
    return points


@contextmanager
def _patched(
    points: List[Tuple[Any, str]], wrap: Callable[[Callable, int], Callable]
) -> Iterator[None]:
    """Replace ``owner.attr`` by ``wrap(original, i)``, then restore."""
    saved = []
    try:
        for i, (owner, attr) in enumerate(points):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original, i))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install span wrappers on every layer entry point, then restore."""
    points = _entry_points()

    def wrap(original: Callable, i: int) -> Callable:
        _, _, name, peak, counts = points[i]
        return _wrap(tracer, original, name, peak, counts)

    with _patched([(owner, attr) for owner, attr, *_ in points], wrap):
        yield tracer


@contextmanager
def captured_plans(sink: List[Tuple[Any, Any]]) -> Iterator[None]:
    """Append ``(fleet, plan)`` for every mechanism ``plan`` call."""
    from repro.core.base import GroupingMechanism

    def wrap(original: Callable, i: int) -> Callable:
        @functools.wraps(original)
        def capture(self, fleet, *args, **kwargs):
            plan = original(self, fleet, *args, **kwargs)
            sink.append((fleet, plan))
            return plan

        return capture

    owners = [cls for cls in _subclasses(GroupingMechanism)
              if "plan" in vars(cls)]
    with _patched([(cls, "plan") for cls in owners], wrap):
        yield
