"""Shared fixtures for fleet tests: a fleet-mode service over HTTP plus
in-process worker threads driving real :class:`FleetWorker` loops."""

from __future__ import annotations

import contextlib
import threading
import time

from repro.campaign.store import RunStore, record_to_dict
from repro.fleet import FleetWorker
from repro.obs.metrics import deterministic_view
from repro.service import (
    DISPATCH_FLEET,
    EvaluationService,
    ServiceClient,
    ServiceServer,
)

from tests.campaign.stubs import BernoulliEngine, StubSampler


def stub_factory(spec):
    return BernoulliEngine(p=0.3), StubSampler()


def slow_stub_factory(delay_s):
    def factory(spec):
        return BernoulliEngine(p=0.3, delay_s=delay_s), StubSampler()

    return factory


class WorkerHandle:
    """A FleetWorker running on a daemon thread, stoppable from tests."""

    def __init__(self, url, worker_id, engine_factory=stub_factory,
                 poll_s=0.05, max_chunks=None, telemetry=True):
        self.worker = FleetWorker(
            ServiceClient(url, timeout_s=10),
            worker_id=worker_id,
            poll_s=poll_s,
            engine_factory=engine_factory,
            max_chunks=max_chunks,
            telemetry=telemetry,
        )
        self.thread = threading.Thread(
            target=self.worker.run, name=f"test-{worker_id}", daemon=True
        )

    def start(self):
        self.thread.start()
        return self

    def stop(self, timeout_s=10.0):
        self.worker.stop()
        self.thread.join(timeout=timeout_s)


@contextlib.contextmanager
def fleet_server(tmp_path, lease_ttl_s=5.0, checkpoint_every=2,
                 name="fleet-runs"):
    service = EvaluationService(
        tmp_path / name,
        dispatch=DISPATCH_FLEET,
        lease_ttl_s=lease_ttl_s,
        checkpoint_every=checkpoint_every,
    )
    # Fast expiry detection in tests.
    service.fleet.sweep_interval_s = 0.1
    server = ServiceServer(service, port=0)
    server.start()
    try:
        yield server
    finally:
        server.stop(cancel_running=True)


@contextlib.contextmanager
def workers(url, n, engine_factory=stub_factory, poll_s=0.05,
            telemetry=True):
    handles = [
        WorkerHandle(
            url, f"w{i}", engine_factory=engine_factory, poll_s=poll_s,
            telemetry=telemetry,
        ).start()
        for i in range(n)
    ]
    try:
        yield handles
    finally:
        for handle in handles:
            handle.stop()


def run_local_baseline(tmp_path, spec, name="local-runs"):
    """The single-node reference: same spec, in-process dispatch."""
    service = EvaluationService(
        tmp_path / name, engine_factory=stub_factory, checkpoint_every=2
    )
    job, cache_hit = service.submit(spec)
    assert not cache_hit
    service.start()
    try:
        wait_terminal(service, job.job_id)
    finally:
        service.stop()
    assert service.get_job(job.job_id).state == "done"
    return service, job


def wait_terminal(service, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if service.get_job(job_id).terminal:
            return
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


def chunk_log_dicts(runs_dir, run_id):
    """The run's consumed chunk log as exact JSON record dicts."""
    store = RunStore(runs_dir / run_id)
    return [
        (entry.index, [record_to_dict(r) for r in entry.records])
        for entry in store.replay_chunks()
    ]


def det_metric_view(runs_dir, run_id):
    """Deterministic subset of the run's exported merged metrics."""
    return deterministic_view(RunStore(runs_dir / run_id).read_metrics())


def assert_bit_identical(local_service, local_job, fleet_service, fleet_job):
    """SSF, records, and deterministic metrics equal across dispatches."""
    local = local_service.job_result(local_job.job_id)
    fleet = fleet_service.job_result(fleet_job.job_id)
    assert fleet["ssf"] == local["ssf"]
    assert fleet["n_samples"] == local["n_samples"]
    assert fleet["n_success"] == local["n_success"]
    assert fleet["ci_low"] == local["ci_low"]
    assert fleet["ci_high"] == local["ci_high"]
    assert chunk_log_dicts(
        fleet_service.runs_dir, fleet_job.run_id
    ) == chunk_log_dicts(local_service.runs_dir, local_job.run_id)
    assert det_metric_view(
        fleet_service.runs_dir, fleet_job.run_id
    ) == det_metric_view(local_service.runs_dir, local_job.run_id)
