"""SweepRunner waits on its members' event streams: the sweep ends when
its last member ends, not at the next status poll, and its timeout
holds to within one long-poll turn (stub engine, one job thread)."""

import contextlib
import json
import time

import pytest

from repro.errors import SweepError
from repro.service import EvaluationService, ServiceClient, ServiceServer
from repro.sweep import SweepRunner, SweepSpec, SweepStore

from tests.campaign.stubs import BernoulliEngine, StubSampler


def sweep_spec(n_samples: int = 60, seeds=(1, 2, 3)) -> SweepSpec:
    return SweepSpec(
        name="watch-sweep",
        base={
            "benchmark": "write",
            "sampler": "random",
            "chunk_size": 20,
            "stopping": {"mode": "fixed", "n_samples": n_samples},
        },
        axes={"seed": seeds},
    )


@contextlib.contextmanager
def serve(root, delay_s: float = 0.05):
    """A live one-job-thread service whose stub engine sleeps ``delay_s``
    per chunk, so every member is still running at the first status
    check."""
    service = EvaluationService(
        root,
        max_concurrency=1,
        engine_factory=lambda spec: (
            BernoulliEngine(p=0.3, delay_s=delay_s),
            StubSampler(),
        ),
    )
    server = ServiceServer(service, port=0)
    server.start()
    try:
        yield server
    finally:
        server.stop(cancel_running=True)


def run_sweep(server, root, spec, **kwargs):
    """Run the sweep to its report; returns its store and wall time."""
    store = SweepStore.create(root, spec, sweep_id="watch")
    runner = SweepRunner(spec, store, ServiceClient(server.url), **kwargs)
    start = time.monotonic()
    runner.run()
    return store, time.monotonic() - start


class TestEventWait:
    def test_sweep_ends_with_its_last_member_not_the_next_poll(
        self, tmp_path
    ):
        spec = sweep_spec()
        with serve(tmp_path / "slow-runs") as server:
            slow, elapsed = run_sweep(
                server, tmp_path / "slow-sweeps", spec, poll_s=30
            )
        with serve(tmp_path / "fast-runs") as server:
            fast, _ = run_sweep(
                server, tmp_path / "fast-sweeps", spec, poll_s=0.05
            )
        assert elapsed < 5.0
        assert slow.read_report_text() == fast.read_report_text()

    def test_timeout_holds_to_within_one_turn(self, tmp_path):
        # Fifty one-second chunks: the member cannot finish in 1 s, nor
        # within one 30 s poll.
        spec = sweep_spec(n_samples=1000, seeds=(1,))
        store = SweepStore.create(tmp_path / "sweeps", spec, sweep_id="late")
        with serve(tmp_path / "runs", delay_s=1.0) as server:
            runner = SweepRunner(
                spec, store, ServiceClient(server.url),
                timeout_s=1, poll_s=30,
            )
            start = time.monotonic()
            with pytest.raises(
                SweepError, match="timed out with 1 of 1 points unfinished"
            ):
                runner.run()
            elapsed = time.monotonic() - start
        assert elapsed < 5.0

    def test_logged_point_states_keep_their_order(self, tmp_path):
        spec = sweep_spec()
        with serve(tmp_path / "runs") as server:
            store, _ = run_sweep(server, tmp_path / "sweeps", spec, poll_s=30)
        states = {}
        for line in (store.path / "points.jsonl").read_text().splitlines():
            entry = json.loads(line)
            states.setdefault(entry["label"], []).append(entry["state"])
        order = ("queued", "running", "done")
        assert len(states) == 3
        for label, seen in states.items():
            assert seen[-1] == "done", (label, seen)
            ranks = [order.index(state) for state in seen]
            assert ranks == sorted(set(ranks)), (label, seen)
