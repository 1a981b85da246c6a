"""Span-based tracing with a near-zero-overhead no-op default.

The engine and the campaign runner are instrumented against the
:class:`NullTracer` singleton by default: every instrumentation point is
either a no-op method call or guarded by ``tracer.enabled``, so the
uninstrumented hot path stays within the benchmark guard's overhead
budget (``benchmarks/test_obs_overhead.py``).

Opting in (``Tracer()``, or ``--trace`` on ``campaign run``) records
:class:`SpanEvent` entries — name, start, duration, attributes — bounded
by ``max_events`` (oldest kept, surplus counted in ``n_dropped``, with a
one-time warning and a ``tracer_events_dropped`` counter when a metrics
registry is attached).  :meth:`Tracer.to_chrome` converts the buffer
into the Chrome ``trace_event`` JSON format, loadable in
``chrome://tracing`` / Perfetto.

Fleet runs span several processes whose ``perf_counter`` clocks are not
comparable; :func:`wall_offset` plus :meth:`Tracer.export_spans` move
spans onto the wall clock at ship time, and :func:`merge_chrome_trace`
stitches per-worker span lanes (synthetic pid per worker, ``M``
metadata naming each lane) and instant annotations (leases, heartbeats,
re-issues) into one merged trace.

:class:`StageClock` is the cheap companion used inside
``CrossLevelEngine.run_batch``: one ``perf_counter`` call per stage
boundary, laps collected as ``(stage, start_s, duration_s)`` tuples that
feed both the stage-seconds histograms and (when tracing) per-stage
spans.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.logging import warn_once


def wall_offset() -> float:
    """Offset converting this process's ``perf_counter`` timestamps to
    wall-clock seconds (``wall = perf + offset``).

    Captured once per shipment; good to well under a millisecond, which
    is plenty for stitching cross-process trace lanes.
    """
    return time.time() - time.perf_counter()


@dataclass
class SpanEvent:
    """One completed span, in seconds on the ``perf_counter`` clock."""

    name: str
    start_s: float
    duration_s: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self, offset_s: float = 0.0) -> dict:
        """JSON-able form, optionally shifted onto another clock."""
        return {
            "name": self.name,
            "start_s": self.start_s + offset_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanEvent":
        return cls(
            name=data["name"],
            start_s=float(data["start_s"]),
            duration_s=float(data["duration_s"]),
            attrs=dict(data.get("attrs") or {}),
        )


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Default tracer: every operation is a constant-time no-op."""

    enabled = False

    def span(self, name: str, **attrs):
        return _NULL_SPAN

    def add_event(self, name, start_s, duration_s, **attrs) -> None:
        pass

    def add_laps(self, laps, **attrs) -> None:
        pass


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._tracer.add_event(
            self.name,
            self._start,
            time.perf_counter() - self._start,
            **self.attrs,
        )
        return False


class Tracer:
    """Recording tracer with a bounded in-memory buffer.

    Pass ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) to
    surface buffer overflow as a ``tracer_events_dropped`` counter; the
    first drop also warns once so data loss is never invisible.
    """

    enabled = True

    def __init__(self, max_events: int = 200_000, metrics=None):
        self.max_events = max(1, max_events)
        self.events: List[SpanEvent] = []
        self.n_dropped = 0
        self.metrics = metrics
        self._drop_warned = False

    def span(self, name: str, **attrs) -> _Span:
        """Context manager timing a code block into one span."""
        return _Span(self, name, attrs)

    def add_event(self, name, start_s, duration_s, **attrs) -> None:
        """Record an already-measured span (explicit timestamps)."""
        if len(self.events) >= self.max_events:
            self.n_dropped += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "tracer_events_dropped", deterministic=False
                ).inc()
            if not self._drop_warned:
                self._drop_warned = True
                warn_once(
                    f"tracer-events-dropped:{id(self)}",
                    f"tracer buffer full ({self.max_events} events): "
                    "further spans are dropped and counted in "
                    "tracer_events_dropped",
                )
            return
        self.events.append(SpanEvent(name, start_s, duration_s, attrs))

    def add_laps(
        self, laps: List[Tuple[str, float, float]], **attrs
    ) -> None:
        """Record a :class:`StageClock` lap list as one span per lap."""
        for stage, start_s, duration_s in laps:
            self.add_event(stage, start_s, duration_s, **attrs)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_spans(self, offset_s: Optional[float] = None) -> List[dict]:
        """JSON-able span dicts, shifted onto the wall clock by default.

        This is the shipping format fleet workers post back with a chunk
        result; the coordinator's clock differs, so spans must leave the
        process already normalized.
        """
        if offset_s is None:
            offset_s = wall_offset()
        return [event.to_dict(offset_s) for event in self.events]

    def to_chrome(
        self, pid: Optional[int] = None, tid: int = 0
    ) -> dict:
        """The buffer as a Chrome ``trace_event`` JSON object.

        Complete ("ph": "X") events with microsecond timestamps, suitable
        for ``chrome://tracing`` and Perfetto.
        """
        if pid is None:
            pid = os.getpid()
        trace_events = [
            _chrome_complete(event.to_dict(), pid, tid)
            for event in self.events
        ]
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"n_dropped": self.n_dropped},
        }


# ----------------------------------------------------------------------
# merged (multi-lane) Chrome traces
# ----------------------------------------------------------------------
def _chrome_complete(span: dict, pid: int, tid: int) -> dict:
    return {
        "name": span["name"],
        "ph": "X",
        "ts": round(span["start_s"] * 1e6, 3),
        "dur": round(span["duration_s"] * 1e6, 3),
        "pid": pid,
        "tid": tid,
        "args": dict(span.get("attrs") or {}),
    }


def chrome_instant(
    name: str, t_s: float, pid: int, tid: int = 0, **attrs: object
) -> dict:
    """An ``i`` (instant) trace event — lease grants, heartbeats,
    expiries — pinned to one lane at wall time ``t_s``."""
    return {
        "name": name,
        "ph": "i",
        "s": "t",  # thread-scoped tick mark
        "ts": round(t_s * 1e6, 3),
        "pid": pid,
        "tid": tid,
        "args": dict(attrs),
    }


def merge_chrome_trace(
    lanes: Sequence[dict],
    instants: Iterable[dict] = (),
    n_dropped: int = 0,
) -> dict:
    """Stitch per-process span lanes into one Chrome trace.

    ``lanes`` is a sequence of ``{"pid": int, "tid": int, "name": str,
    "spans": [span dicts on the wall clock]}``; each lane gets
    ``process_name``/``thread_name`` metadata so Perfetto shows one
    labelled track per worker.  ``instants`` are pre-built events from
    :func:`chrome_instant` (coordinator-side annotations).
    """
    events: List[dict] = []
    for lane in lanes:
        pid = int(lane["pid"])
        tid = int(lane.get("tid", 0))
        name = str(lane.get("name", f"pid-{pid}"))
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
        for span in lane.get("spans", ()):
            events.append(_chrome_complete(span, pid, tid))
    events.extend(instants)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"n_dropped": n_dropped},
    }


class StageClock:
    """Accumulates ``(stage, start_s, duration_s)`` laps per sample."""

    __slots__ = ("laps", "_mark")
    active = True

    def __init__(self):
        self.laps: List[Tuple[str, float, float]] = []
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.laps.append((stage, self._mark, now - self._mark))
        self._mark = now

    def total_seconds(self) -> float:
        return sum(duration for _, _, duration in self.laps)

    def stage_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for stage, _, duration in self.laps:
            totals[stage] = totals.get(stage, 0.0) + duration
        return totals


class _NullClock:
    __slots__ = ()
    active = False

    def lap(self, stage: str) -> None:
        pass


NULL_CLOCK = _NullClock()
