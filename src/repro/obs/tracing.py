"""Span-based tracing with a near-zero-overhead no-op default.

The campaign runner and its schedulers are instrumented against the
:class:`NullTracer` singleton by default: every instrumentation point is
either a no-op method call or guarded by ``tracer.enabled``.

Opting in (``Tracer()``, or ``--trace`` on ``campaign run``) records
:class:`SpanEvent` entries — name, start, duration, attributes — bounded
by ``max_events`` (oldest kept, surplus counted in ``n_dropped``, with a
one-time warning and a ``tracer_events_dropped`` counter when a metrics
registry is attached).

The engine holds no tracer.  :class:`StageClock` is its cheap companion
inside ``CrossLevelEngine.evaluate``: one ``perf_counter`` call per stage
boundary, laps collected as ``(stage, start_s, duration_s)`` tuples that
feed the stage-seconds histograms and come back on the result.  A traced
chunk turns them into span dicts with :func:`lap_spans`.

A run spans several processes (fork workers, fleet workers) whose
``perf_counter`` clocks are not comparable, so spans leave their process
on the wall clock (:func:`wall_offset`, :meth:`Tracer.export_spans`,
:func:`lap_spans`).  :class:`RunTrace` gathers one run's spans into one
lane per process — the runner's own plus one per worker — with instant
annotations (leases, heartbeats, re-issues), and :func:`merge_chrome_trace`
stitches them into one Chrome ``trace_event`` document, loadable in
``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import threading
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


NULL_TRACER = NullTracer()


#: Default span budget of a tracer, and of each lane of a run's trace.
MAX_EVENTS = 200_000


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

    def __init__(self, max_events: int = MAX_EVENTS, metrics=None):
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


def lap_spans(laps: Sequence[Tuple[str, float, float]], **attrs) -> List[dict]:
    """:class:`StageClock` laps as span dicts on the wall clock, one per
    lap: the shipping format of :meth:`Tracer.export_spans`."""
    offset_s = wall_offset()
    return [
        {
            "name": stage,
            "start_s": start_s + offset_s,
            "duration_s": duration_s,
            "attrs": dict(attrs),
        }
        for stage, start_s, duration_s in laps
    ]


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


#: Synthetic pid of the runner's lane; worker lanes take the pids after
#: it.  Fleet test workers are threads of one process, so real pids
#: would collapse every lane into one track.
RUNNER_PID = 1


class RunTrace:
    """One run's trace: the runner's lane, one lane per worker, instants.

    The runner's lane holds its tracer's spans plus those of chunks run
    in its own process (``worker`` None); each fork or fleet worker that
    ships spans gets a lane of its own, and an instant pins to its
    worker's lane (the runner's when that worker has none).  A lane
    keeps at most ``max_events`` spans, the runner tracer's budget; the
    surplus is counted in ``otherData.n_dropped``.  Fleet telemetry
    arrives on HTTP handler threads while the runner exports, hence the
    lock.
    """

    def __init__(self, tracer=None, trace_id: Optional[str] = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_id = trace_id
        self.max_events = getattr(self.tracer, "max_events", MAX_EVENTS)
        self.n_dropped = 0
        self._lanes: Dict[Optional[str], List[dict]] = {}
        self._instants: List[Tuple[str, float, Optional[str], dict]] = []
        self._lock = threading.Lock()

    def add_spans(
        self,
        worker: Optional[str],
        spans: Sequence[dict],
        n_dropped: int = 0,
    ) -> None:
        """Append wall-clock span dicts to ``worker``'s lane."""
        with self._lock:
            self.n_dropped += n_dropped
            if not spans:
                return
            lane = self._lanes.setdefault(worker, [])
            used = len(lane)
            if worker is None:
                used += len(getattr(self.tracer, "events", ()))
            kept = spans[: max(0, self.max_events - used)]
            lane.extend(kept)
            self.n_dropped += len(spans) - len(kept)

    def add_instant(
        self, name: str, worker: Optional[str] = None, **attrs: object
    ) -> None:
        """Queue an instant annotation (lease grant, heartbeat, expiry)
        at the current wall time, pinned to ``worker``'s lane."""
        with self._lock:
            self._instants.append((name, time.time(), worker, dict(attrs)))

    def build(self) -> Optional[dict]:
        """The merged Chrome trace, or None when there is nothing to
        write: the runner does not trace and no worker shipped spans."""
        with self._lock:
            if not (self.tracer.enabled or any(self._lanes.values())):
                return None
            n_dropped = self.n_dropped
            runner = list(self._lanes.get(None, ()))
            if self.tracer.enabled:
                runner = self.tracer.export_spans() + runner
                n_dropped += self.tracer.n_dropped
            lanes = []
            if runner:
                lanes.append(
                    {"pid": RUNNER_PID, "name": "runner", "spans": runner}
                )
            workers = sorted(w for w in self._lanes if w is not None)
            pid_of = {w: RUNNER_PID + 1 + i for i, w in enumerate(workers)}
            for worker in workers:
                lanes.append(
                    {
                        "pid": pid_of[worker],
                        "name": f"worker {worker}",
                        "spans": self._lanes[worker],
                    }
                )
            instants = [
                chrome_instant(name, t_s, pid_of.get(w, RUNNER_PID), **attrs)
                for name, t_s, w, attrs in self._instants
            ]
            trace = merge_chrome_trace(lanes, instants, n_dropped=n_dropped)
        if self.trace_id is not None:
            trace["otherData"]["trace_id"] = self.trace_id
        return trace


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
