"""SweepRunner against an embedded evaluation service (stub engine).

Covers the tentpole acceptance path: an 8-point design space executes
through the service job queue, a second identical invocation is served
entirely from the content-addressed result cache, and the comparative
report carries per-point SSF ± CI, a Pareto table, and a regression
verdict against a pinned baseline.
"""

import json

import pytest

from repro.errors import EvaluationError, SweepError
from repro.service import (
    EvaluationService,
    ServiceClient,
    ServiceServer,
)
from repro.sweep import (
    SweepRunner,
    SweepSpec,
    SweepStore,
    report_json,
    sweep_status,
)

from tests.campaign.stubs import BernoulliEngine, StubSampler

SWEEP = SweepSpec(
    name="hardening-sweep",
    base={
        "benchmark": "write",
        "sampler": "random",
        "chunk_size": 20,
        "stopping": {"mode": "fixed", "n_samples": 40},
    },
    axes={
        "variant": ("none", "parity"),
        "window": (40, 50),
        "seed": (1, 2),
    },
)


def stub_factory(spec):
    return BernoulliEngine(p=0.3), StubSampler()


@pytest.fixture()
def server(tmp_path):
    service = EvaluationService(
        tmp_path / "runs", max_concurrency=2, engine_factory=stub_factory
    )
    server = ServiceServer(service, port=0)
    server.start()
    yield server
    server.stop(cancel_running=True)


def run_sweep(server, tmp_path, sweep_id, spec=SWEEP, **kwargs):
    store = SweepStore.create(tmp_path / "sweeps", spec, sweep_id=sweep_id)
    runner = SweepRunner(
        spec,
        store,
        ServiceClient(server.url),
        poll_s=0.05,
        timeout_s=120.0,
        **kwargs,
    )
    return runner, store, runner.run()


class TestSweepExecution:
    def test_eight_points_execute_through_the_service_queue(
        self, server, tmp_path
    ):
        runner, store, report = run_sweep(server, tmp_path, "cold")
        assert report["n_points"] == 8
        assert len(server.service.jobs) == 8
        for job in server.service.jobs.values():
            assert job.state == "done"
        for row in report["points"]:
            assert row["ci_low"] <= row["ssf"] <= row["ci_high"]
            assert row["n_samples"] == 40
            assert row["area_um2"] > 0
        # parity points cost area over the baseline variant
        overhead = {
            row["axes"]["variant"]: row["area_overhead"]
            for row in report["points"]
        }
        assert overhead["none"] == 0.0
        assert overhead["parity"] > 0.0
        assert report["pareto"], "Pareto front must not be empty"
        assert report["regression"]["verdict"] == "no_baseline"

    def test_second_invocation_is_all_cache_hits(self, server, tmp_path):
        _, _, cold = run_sweep(server, tmp_path, "cold")
        _, store, warm = run_sweep(server, tmp_path, "warm")
        status = sweep_status(store)
        assert status["n_cached"] == 8
        assert status["cache_hit_ratio"] == 1.0
        # The canonical report ignores cache provenance entirely.
        assert report_json(warm) == report_json(cold)

    def test_restarted_service_serves_sweep_from_durable_cache(
        self, server, tmp_path
    ):
        run_sweep(server, tmp_path, "cold")
        server.stop()
        # Fresh service over the same runs dir: fresh metrics registry,
        # warm content-addressed cache — the acceptance criterion's
        # "hit ratio 1.0 on /v1/metrics".
        service = EvaluationService(
            tmp_path / "runs", engine_factory=stub_factory
        )
        restarted = ServiceServer(service, port=0)
        restarted.start()
        try:
            _, _, _ = run_sweep(restarted, tmp_path, "warm")
            metrics = ServiceClient(restarted.url).metrics_text()
            assert "service_cache_hit_ratio 1" in metrics
        finally:
            restarted.stop(cancel_running=True)

    def test_rerun_on_same_store_returns_the_existing_report(
        self, server, tmp_path
    ):
        runner, store, report = run_sweep(server, tmp_path, "once")
        again = SweepRunner(
            SWEEP, store, ServiceClient(server.url), poll_s=0.05
        ).run()
        assert report_json(again) == report_json(report)

    def test_progress_events_stream_on_the_sweep_topic(
        self, server, tmp_path
    ):
        runner, store, _ = run_sweep(server, tmp_path, "events")
        events = [e for _, e in runner.events.events_after("events", 0)]
        kinds = [e["type"] for e in events]
        assert kinds[0] == "sweep_started"
        assert "point" in kinds
        assert "sweep_progress" in kinds
        assert kinds[-2:] == ["sweep_complete", "end"]
        started = events[0]
        assert started["n_points"] == 8

    def test_point_log_survives_for_offline_status(self, server, tmp_path):
        _, store, _ = run_sweep(server, tmp_path, "status")
        status = sweep_status(store)  # no client: durable log only
        assert status["n_submitted"] == 8
        assert status["complete"] is True
        assert status["states"]["done"] + status["states"]["cached"] == 8


class TestRegression:
    def test_pinned_baseline_verdicts(self, server, tmp_path):
        _, store, report = run_sweep(server, tmp_path, "base")
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(report_json(report))

        import dataclasses

        pinned = dataclasses.replace(
            SWEEP, baseline_report=str(baseline_path)
        )
        _, _, second = run_sweep(
            server, tmp_path, "regress", spec=pinned
        )
        regression = second["regression"]
        assert regression["verdict"] == "pass"
        assert regression["baseline"]["name"] == "hardening-sweep"
        assert len(regression["points"]) == 8
        assert all(
            row["verdict"] == "unchanged" for row in regression["points"]
        )

    def test_regressed_verdict_when_baseline_ci_is_below(
        self, server, tmp_path
    ):
        _, _, report = run_sweep(server, tmp_path, "base")
        doctored = json.loads(report_json(report))
        for row in doctored["points"]:
            row["ci_low"] = 0.0
            row["ci_high"] = 1e-9  # far below any real estimate
        baseline_path = tmp_path / "doctored.json"
        baseline_path.write_text(json.dumps(doctored))

        import dataclasses

        pinned = dataclasses.replace(
            SWEEP, baseline_report=str(baseline_path)
        )
        _, _, second = run_sweep(
            server, tmp_path, "regressed", spec=pinned
        )
        assert second["regression"]["verdict"] == "regressed"

    def test_missing_baseline_fails_before_fan_out(self, server, tmp_path):
        import dataclasses

        pinned = dataclasses.replace(
            SWEEP, baseline_report=str(tmp_path / "nope.json")
        )
        store = SweepStore.create(
            tmp_path / "sweeps", pinned, sweep_id="nobase"
        )
        runner = SweepRunner(
            pinned, store, ServiceClient(server.url), poll_s=0.05
        )
        with pytest.raises(SweepError, match="cannot load baseline"):
            runner.run()
        assert not server.service.jobs  # nothing was submitted


class TestFailurePropagation:
    def test_failed_point_fails_the_sweep_naming_the_label(self, tmp_path):
        def flaky_factory(spec):
            if spec.seed == 13:
                raise EvaluationError("injected engine failure")
            return BernoulliEngine(p=0.3), StubSampler()

        service = EvaluationService(
            tmp_path / "runs", engine_factory=flaky_factory
        )
        server = ServiceServer(service, port=0)
        server.start()
        try:
            spec = SweepSpec(
                name="flaky",
                base=dict(SWEEP.base),
                axes={"seed": (1, 13)},
            )
            store = SweepStore.create(
                tmp_path / "sweeps", spec, sweep_id="flaky"
            )
            runner = SweepRunner(
                spec, store, ServiceClient(server.url), poll_s=0.05
            )
            with pytest.raises(SweepError, match=r"\(seed=13\)"):
                runner.run()
            assert store.read_report() is None
        finally:
            server.stop(cancel_running=True)
