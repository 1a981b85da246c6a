"""Tracer and stage-clock tests: no-op default, span recording, bounded
buffer, Chrome export, and the run's one trace — lanes per process,
instants, and the merge helpers under it."""

import logging
import time

import pytest

from repro.obs import (
    NULL_CLOCK,
    NULL_TRACER,
    MetricsRegistry,
    SpanEvent,
    StageClock,
    Tracer,
    reset_warn_once,
)
from repro.obs.tracing import (
    RUNNER_PID,
    RunTrace,
    chrome_instant,
    lap_spans,
    merge_chrome_trace,
    wall_offset,
)


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", chunk=3) as span:
            span.set(more=1)
        NULL_TRACER.add_event("x", 0.0, 1.0)

    def test_null_clock_records_nothing(self):
        assert NULL_CLOCK.active is False
        NULL_CLOCK.lap("draw")


class TestTracer:
    def test_span_records_duration_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", chunk=2) as span:
            span.set(extra="yes")
            time.sleep(0.001)
        (event,) = tracer.events
        assert event.name == "work"
        assert event.duration_s >= 0.001
        assert event.attrs == {"chunk": 2, "extra": "yes"}

    def test_buffer_bounded_with_drop_count(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.add_event("e", float(i), 0.1)
        assert len(tracer.events) == 2
        assert tracer.n_dropped == 3

    def test_chrome_export_shape(self):
        """A tracer's spans reach the Chrome trace as the runner's lane:
        named metadata, then complete events on the wall clock."""
        tracer = Tracer()
        tracer.add_event("stage", 1.0, 0.5, chunk=0)
        chrome = RunTrace(tracer).build()
        meta, event = chrome["traceEvents"][:2], chrome["traceEvents"][2]
        assert [(m["ph"], m["name"], m["args"]) for m in meta] == [
            ("M", "process_name", {"name": "runner"}),
            ("M", "thread_name", {"name": "runner"}),
        ]
        assert event["ts"] == pytest.approx(
            (1.0 + wall_offset()) * 1e6, abs=5e4
        )
        del event["ts"]
        assert event == {
            "name": "stage",
            "ph": "X",
            "dur": 500_000.0,
            "pid": RUNNER_PID,
            "tid": 0,
            "args": {"chunk": 0},
        }
        assert chrome["otherData"]["n_dropped"] == 0
        assert chrome["displayTimeUnit"] == "ms"

    def test_drop_surfaces_metric_and_one_time_warning(self, caplog):
        reset_warn_once()
        registry = MetricsRegistry()
        tracer = Tracer(max_events=1, metrics=registry)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            for i in range(4):
                tracer.add_event("e", float(i), 0.1)
        assert tracer.n_dropped == 3
        counter = registry.counter(
            "tracer_events_dropped", deterministic=False
        )
        assert counter.value == 3
        assert not counter.deterministic
        assert caplog.text.count("tracer buffer full") == 1

    def test_export_spans_normalizes_to_wall_clock(self):
        tracer = Tracer()
        start = time.perf_counter()
        tracer.add_event("work", start, 0.5, chunk=1)
        (span,) = tracer.export_spans()
        # Shipped start must be on the wall clock (epoch seconds), not
        # the process-local perf_counter origin.
        assert abs(span["start_s"] - (start + wall_offset())) < 0.05
        assert span["duration_s"] == 0.5
        assert span["attrs"] == {"chunk": 1}
        # Round-trips through the shipping format.
        assert SpanEvent.from_dict(span).name == "work"


class TestMergedTrace:
    def test_lanes_get_named_metadata_and_synthetic_pids(self):
        lanes = [
            {"pid": 2, "tid": 0, "name": "worker w0",
             "spans": [{"name": "chunk.evaluate", "start_s": 1.0,
                        "duration_s": 0.2, "attrs": {"chunk": 0}}]},
            {"pid": 3, "tid": 0, "name": "worker w1", "spans": []},
        ]
        trace = merge_chrome_trace(lanes, n_dropped=2)
        meta = {
            (e["pid"], e["name"]): e["args"]["name"]
            for e in trace["traceEvents"] if e["ph"] == "M"
        }
        assert meta[(2, "process_name")] == "worker w0"
        assert meta[(3, "process_name")] == "worker w1"
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [(s["name"], s["pid"]) for s in spans] == [
            ("chunk.evaluate", 2)
        ]
        assert trace["otherData"]["n_dropped"] == 2

    def test_instants_ride_along(self):
        instant = chrome_instant("lease.grant", 1.5, 2, chunk=4)
        assert instant["ph"] == "i"
        assert instant["s"] == "t"
        assert instant["ts"] == pytest.approx(1.5e6)
        trace = merge_chrome_trace([], [instant])
        assert trace["traceEvents"] == [instant]


class TestRunTrace:
    SPAN = {"name": "draw", "start_s": 5.0, "duration_s": 0.1, "attrs": {}}

    def test_nothing_to_write_without_tracing_or_shipped_spans(self):
        trace = RunTrace()
        trace.add_instant("lease.grant", worker="w0", chunk=0)
        trace.add_spans("w0", [])
        assert trace.build() is None
        trace.add_spans("w0", [self.SPAN])
        assert trace.build() is not None

    def test_one_lane_per_process_with_instants_pinned(self):
        tracer = Tracer()
        tracer.add_event("chunk.merge", 1.0, 0.1)
        trace = RunTrace(tracer, trace_id="t1")
        trace.add_spans("w1", [self.SPAN])
        trace.add_spans("w0", [self.SPAN, self.SPAN])
        trace.add_spans(None, [self.SPAN])  # a chunk run in-process
        trace.add_instant("lease.grant", worker="w1", chunk=3)
        trace.add_instant("lease.expired", worker="gone", chunk=4)
        chrome = trace.build()
        lanes = {
            e["pid"]: e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert lanes == {
            RUNNER_PID: "runner",
            RUNNER_PID + 1: "worker w0",
            RUNNER_PID + 2: "worker w1",
        }
        per_lane = {}
        for e in chrome["traceEvents"]:
            if e["ph"] == "X":
                per_lane.setdefault(lanes[e["pid"]], []).append(e["name"])
        assert per_lane == {
            "runner": ["chunk.merge", "draw"],
            "worker w0": ["draw", "draw"],
            "worker w1": ["draw"],
        }
        instants = {
            e["name"]: e["pid"] for e in chrome["traceEvents"]
            if e["ph"] == "i"
        }
        # A worker without a lane pins to the runner's.
        assert instants == {
            "lease.grant": RUNNER_PID + 2,
            "lease.expired": RUNNER_PID,
        }
        assert chrome["otherData"]["trace_id"] == "t1"

    def test_lanes_are_bounded_by_the_tracer_budget(self):
        tracer = Tracer(max_events=3)
        tracer.add_event("chunk.run", 1.0, 0.1)
        trace = RunTrace(tracer)
        trace.add_spans("w0", [self.SPAN] * 5, n_dropped=2)
        trace.add_spans(None, [self.SPAN] * 5)
        chrome = trace.build()
        pids = [e["pid"] for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert pids.count(RUNNER_PID) == 3       # tracer's 1 + 2 shipped
        assert pids.count(RUNNER_PID + 1) == 3
        assert chrome["otherData"]["n_dropped"] == 2 + 2 + 3


class TestStageClock:
    def test_laps_partition_elapsed_time(self):
        clock = StageClock()
        time.sleep(0.001)
        clock.lap("draw")
        time.sleep(0.002)
        clock.lap("transient")
        time.sleep(0.001)
        clock.lap("transient")
        totals = clock.stage_totals()
        assert set(totals) == {"draw", "transient"}
        assert totals["transient"] >= 0.003
        assert clock.total_seconds() == sum(totals.values())
        # Laps are contiguous: each starts where the previous ended.
        for (_, s0, d0), (_, s1, _) in zip(clock.laps, clock.laps[1:]):
            assert s1 == s0 + d0

    def test_lap_spans_ship_one_wall_clock_span_per_lap(self):
        start = time.perf_counter()
        spans = lap_spans(
            [("draw", start, 0.5), ("restart", start + 0.5, 0.25)], chunk=7
        )
        assert [s["name"] for s in spans] == ["draw", "restart"]
        assert all(s["attrs"] == {"chunk": 7} for s in spans)
        assert spans[1]["duration_s"] == 0.25
        # Same clock as Tracer.export_spans: epoch seconds.
        assert abs(spans[0]["start_s"] - (start + wall_offset())) < 0.05
        assert SpanEvent.from_dict(spans[0]).name == "draw"
