"""Fleet telemetry: trace propagation, shipped spans/metrics/logs, the
run's one Chrome trace, events.jsonl, SLO quantiles, and stragglers.

The load-bearing invariant mirrors the e2e suite: telemetry shipping is
*on by default* in every fleet test, so the bit-identical guarantee is
continuously exercised with telemetry flowing.  This module checks the
observability surfaces themselves — that the data shipped out-of-band
actually lands where operators look for it, and that turning it off is
honoured end to end.
"""

import json

from repro.campaign import CampaignSpec, StoppingConfig
from repro.campaign.store import TRACE_FILE, RunStore
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.events import EventBus
from repro.obs import MetricsRegistry, reset_warn_once
from repro.obs.fleet_metrics import FLEET_STRAGGLERS
from repro.service import ServiceClient

from tests.fleet.helpers import (
    assert_bit_identical,
    fleet_server,
    run_local_baseline,
    slow_stub_factory,
    stub_factory,
    wait_terminal,
    workers,
)

SPEC = CampaignSpec(
    seed=41, chunk_size=25, stopping=StoppingConfig(n_samples=150)
)


def run_fleet(server, spec=SPEC, n_workers=2, engine_factory=stub_factory,
              telemetry=True):
    client = ServiceClient(server.url)
    response = client.submit(spec)
    with workers(server.url, n_workers, engine_factory=engine_factory,
                 telemetry=telemetry):
        wait_terminal(server.service, response["job_id"])
    job = server.service.get_job(response["job_id"])
    assert job.state == "done"
    return job


def run_store(server, job):
    return RunStore(server.service.runs_dir / job.run_id)


def read_trace(store):
    """The run's one trace; a fleet run writes no second trace file."""
    assert [p.name for p in store.path.glob("trace*.json")] == ["trace.json"]
    return json.loads((store.path / TRACE_FILE).read_text())


def trace_lanes(trace):
    """Map synthetic pid -> lane name from the trace's M metadata."""
    return {
        event["pid"]: event["args"]["name"]
        for event in trace["traceEvents"]
        if event["ph"] == "M" and event["name"] == "process_name"
    }


class TestMergedTrace:
    def test_one_lane_per_worker_covering_the_chunk_lifecycle(
        self, tmp_path
    ):
        with fleet_server(tmp_path) as server:
            # A per-chunk delay keeps a worker busy while the others take
            # leases; with instant chunks one worker can drain the queue
            # alone and leave a single lane.
            job = run_fleet(
                server, n_workers=3, engine_factory=slow_stub_factory(0.2)
            )
            trace = read_trace(run_store(server, job))
        lanes = trace_lanes(trace)
        worker_lanes = {
            pid for pid, name in lanes.items() if name.startswith("worker ")
        }
        assert len(worker_lanes) >= 2  # ≥2 workers contributed spans
        span_names = {
            event["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "X" and event["pid"] in worker_lanes
        }
        assert {"chunk.evaluate", "chunk.post"} <= span_names
        # Every span is correlated: run + chunk + lease + trace ids.
        for event in trace["traceEvents"]:
            if event["ph"] == "X" and event["name"] == "chunk.evaluate":
                assert event["args"]["trace_id"] == (
                    trace["otherData"]["trace_id"]
                )
                assert "chunk" in event["args"]
                assert "lease_id" in event["args"]

    def test_lease_annotations_pin_to_worker_lanes(self, tmp_path):
        with fleet_server(tmp_path) as server:
            job = run_fleet(server, n_workers=2)
            trace = read_trace(run_store(server, job))
        instants = [
            event for event in trace["traceEvents"] if event["ph"] == "i"
        ]
        names = {event["name"] for event in instants}
        assert {"lease.grant", "chunk.accepted"} <= names
        lanes = trace_lanes(trace)
        for event in instants:
            assert event["pid"] in lanes

    def test_worker_gate_disables_shipping_but_not_the_result(
        self, tmp_path
    ):
        """Workers started with ``telemetry=False`` (``repro worker
        --no-telemetry``): same estimate, same records, but no spans
        shipped, so no trace file and no shipped-span accounting."""
        local_service, local_job = run_local_baseline(tmp_path, SPEC)
        with fleet_server(tmp_path) as server:
            job = run_fleet(server, n_workers=2, telemetry=False)
            assert_bit_identical(
                local_service, local_job, server.service, job
            )
            store = run_store(server, job)
            metrics_text = ServiceClient(server.url).metrics_text()
        assert not list(store.path.glob("trace*.json"))
        assert "fleet_telemetry_spans_total" not in metrics_text


class TestEventsJsonl:
    def test_run_lifecycle_is_recorded_with_one_trace_id(self, tmp_path):
        with fleet_server(tmp_path) as server:
            job = run_fleet(server, n_workers=2)
            events = run_store(server, job).read_events()
        kinds = [event["type"] for event in events]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_closed"
        assert "lease_granted" in kinds
        assert "chunk_accepted" in kinds
        trace_ids = {event["trace_id"] for event in events}
        assert len(trace_ids) == 1
        # 150 samples / 25 per chunk = 6 chunks, each granted+accepted.
        assert kinds.count("chunk_accepted") == 6
        for event in events:
            if event["type"] == "lease_granted":
                assert event["queue_wait_s"] >= 0
            assert event["t"] > 0

    def test_expired_lease_lands_in_events_and_trace(self, tmp_path):
        """The kill-a-worker scenario is visible end to end: the expiry
        and the re-issued grant are in events.jsonl and the merged
        trace, and the re-run chunk's spans come from the surviving
        workers."""
        import time

        with fleet_server(tmp_path, lease_ttl_s=0.4) as server:
            client = ServiceClient(server.url)
            response = client.submit(SPEC)
            deadline = time.monotonic() + 30
            grant = client.lease("doomed")
            while grant.get("idle") and time.monotonic() < deadline:
                time.sleep(0.05)
                grant = client.lease("doomed")
            assert not grant.get("idle"), "never got a lease"
            assert grant["trace_id"], "grants must carry the trace id"
            with workers(server.url, 2):
                wait_terminal(server.service, response["job_id"])
            job = server.service.get_job(response["job_id"])
            assert job.state == "done"
            store = run_store(server, job)
            events = store.read_events()
            trace = read_trace(store)
        kinds = {event["type"] for event in events}
        assert "lease_expired" in kinds
        reissues = [
            event for event in events
            if event["type"] == "lease_granted" and event.get("reassigned")
        ]
        assert reissues, "the doomed chunk was re-granted"
        instant_names = {
            event["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "i"
        }
        assert {"lease.expired", "lease.reissue"} <= instant_names
        # The dead worker shipped nothing: every span lane belongs to a
        # live worker, yet all 6 chunks' evaluate spans are present.
        lanes = trace_lanes(trace)
        assert set(lanes.values()) <= {"worker w0", "worker w1"}
        evaluated = {
            event["args"]["chunk"]
            for event in trace["traceEvents"]
            if event["ph"] == "X" and event["name"] == "chunk.evaluate"
        }
        assert evaluated == set(range(6))

    def test_worker_log_records_are_folded_in(self, tmp_path):
        with fleet_server(tmp_path) as server:
            job = run_fleet(server, n_workers=2)
            events = run_store(server, job).read_events()
        logs = [event for event in events if event["type"] == "log"]
        assert logs, "workers ship structured log records"
        for record in logs:
            assert record["worker"] in {"w0", "w1"}
            assert "message" in record
            assert "run_id" in record  # correlation context survived

    def test_shipped_log_worker_key_cannot_shadow_the_leaseholder(
        self, tmp_path
    ):
        """Worker log records carry a bound ``worker`` context key; the
        coordinator attributes the event to the *leaseholder* it heard
        from, never to whatever the record claims (regression: the
        collision used to raise and 500 every chunk post)."""
        from repro.fleet.telemetry import RunTelemetry

        store = RunStore(tmp_path / "run")
        assembler = RunTelemetry(store, "tid")
        assembler.ingest(
            "w0",
            {
                "logs": [
                    {
                        "type": "log",
                        "worker": "imposter",
                        "message": "hello",
                    }
                ]
            },
        )
        events = store.read_events()
        assert len(events) == 1
        assert events[0]["worker"] == "w0"
        assert events[0]["message"] == "hello"

    def test_events_file_tolerates_torn_tail(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_event({"type": "run_started", "t": 1.0})
        with (tmp_path / "run" / "events.jsonl").open("a") as handle:
            handle.write('{"type": "torn')
        events = store.read_events()
        assert [event["type"] for event in events] == ["run_started"]


class TestSloMetrics:
    def test_quantiles_exposed_on_the_metrics_endpoint(self, tmp_path):
        with fleet_server(tmp_path) as server:
            # A per-chunk delay keeps one worker busy while the other
            # takes a lease; with instant chunks one worker can drain the
            # queue alone and w0 reports no roundtrips.
            run_fleet(
                server, n_workers=2, engine_factory=slow_stub_factory(0.2)
            )
            text = ServiceClient(server.url).metrics_text()
        for series in (
            'fleet_chunk_roundtrip_seconds_p50{worker="w0"}',
            'fleet_chunk_roundtrip_seconds_p99{worker="w0"}',
            'fleet_lease_wait_seconds_p50{worker="w0"}',
            "fleet_queue_wait_seconds_p50",
            "fleet_queue_wait_seconds_p99",
            "fleet_telemetry_spans_total",
        ):
            assert series in text, series

    def test_shipped_worker_metrics_reach_the_run_export(self, tmp_path):
        """Worker-side counters (runtime cache hits/misses) merge into
        the run's metrics.jsonl — flagged non-deterministic, so the
        parity-checked deterministic view never sees them."""
        with fleet_server(tmp_path) as server:
            job = run_fleet(server, n_workers=2)
            merged = run_store(server, job).read_metrics()
        shipped = {
            entry["name"]: entry
            for entry in merged
            if entry["name"].startswith("worker_runtime_cache_")
        }
        assert "worker_runtime_cache_misses_total" in shipped
        assert all(not entry["deterministic"] for entry in shipped.values())


class TestStragglerDetection:
    def _coordinator(self):
        reset_warn_once()
        coordinator = FleetCoordinator(
            metrics=MetricsRegistry(), events=EventBus()
        )
        return coordinator

    def test_flags_after_warmup_and_publishes(self):
        coordinator = self._coordinator()
        for _ in range(coordinator.straggler_min_samples):
            coordinator._note_roundtrip("w0", 0.1, "job-1", None)
        coordinator._note_roundtrip("w1", 1.0, "job-1", None)
        counter = coordinator.metrics.counter(
            FLEET_STRAGGLERS, deterministic=False, worker="w1"
        )
        assert counter.value == 1
        events = coordinator.events.events_after("job-1", 0)
        assert [event["type"] for _, event in events] == ["straggler"]
        (_, event), = events
        assert event["worker"] == "w1"
        assert event["roundtrip_s"] == 1.0

    def test_detector_is_disarmed_during_warmup(self):
        coordinator = self._coordinator()
        coordinator._note_roundtrip("w0", 50.0, "job-1", None)
        assert coordinator.events.events_after("job-1", 0) == []

    def test_normal_spread_is_not_flagged(self):
        coordinator = self._coordinator()
        for seconds in (0.10, 0.11, 0.09, 0.12, 0.10, 0.13, 0.11):
            coordinator._note_roundtrip("w0", seconds, "job-1", None)
        assert coordinator.events.events_after("job-1", 0) == []


class TestOutOfBandTelemetry:
    def test_post_telemetry_verb_accepts_for_active_run(self, tmp_path):
        """A worker whose lease died still gets its spans into the
        merged trace via POST /v1/telemetry."""
        import time

        with fleet_server(tmp_path) as server:
            client = ServiceClient(server.url)
            response = client.submit(SPEC)
            deadline = time.monotonic() + 30
            grant = client.lease("lonely")
            while grant.get("idle") and time.monotonic() < deadline:
                time.sleep(0.05)
                grant = client.lease("lonely")
            assert not grant.get("idle")
            answer = client.post_telemetry({
                "worker": "lonely",
                "job_id": grant["job_id"],
                "telemetry": {
                    "worker": "lonely",
                    "spans": [{"name": "chunk.evaluate", "start_s": 1.0,
                               "duration_s": 0.5,
                               "attrs": {"chunk": grant["chunk"]}}],
                },
            })
            assert answer == {"accepted": True}
            with workers(server.url, 2):
                wait_terminal(server.service, response["job_id"])
            job = server.service.get_job(response["job_id"])
            trace = read_trace(run_store(server, job))
        assert "worker lonely" in trace_lanes(trace).values()

    def test_unknown_job_is_a_polite_no(self, tmp_path):
        with fleet_server(tmp_path) as server:
            answer = ServiceClient(server.url).post_telemetry(
                {"worker": "w9", "job_id": "nope", "telemetry": {}}
            )
        assert answer["accepted"] is False
        assert "nope" in answer["reason"]

    def test_malformed_shipped_metrics_cannot_kill_the_run(self, tmp_path):
        """Garbage in a telemetry bundle is dropped, never fatal, and
        the campaign still completes bit-identically."""
        local_service, local_job = run_local_baseline(tmp_path, SPEC)
        with fleet_server(tmp_path) as server:
            client = ServiceClient(server.url)
            response = client.submit(SPEC)
            client.post_telemetry({
                "worker": "vandal",
                "job_id": response["job_id"],
                "telemetry": {
                    "spans": ["not-a-span", {"no-name": 1}],
                    "metrics": [{"name": 7}, "junk"],
                    "logs": ["junk", {"message": "ok"}],
                    "n_dropped": "many",
                },
            })
            with workers(server.url, 2):
                wait_terminal(server.service, response["job_id"])
            job = server.service.get_job(response["job_id"])
            assert job.state == "done"
            assert_bit_identical(
                local_service, local_job, server.service, job
            )
