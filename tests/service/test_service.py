"""EvaluationService: dedup, caching, execution, cancel, recovery."""

import json
import time

import pytest

from repro.campaign import CampaignSpec, RunStore, StoppingConfig, spec_hash
from repro.errors import ServiceError
from repro.service import EvaluationService
from repro.service.jobs import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    Job,
)

from tests.campaign.stubs import BernoulliEngine, StubSampler

SPEC = CampaignSpec(
    seed=5, chunk_size=20, stopping=StoppingConfig(n_samples=80)
)


def stub_factory(delay_s: float = 0.0):
    def factory(spec):
        return BernoulliEngine(p=0.3, delay_s=delay_s), StubSampler()

    return factory


def make_service(tmp_path, **kwargs) -> EvaluationService:
    kwargs.setdefault("engine_factory", stub_factory())
    return EvaluationService(tmp_path / "runs", **kwargs)


def wait_terminal(service, job_id, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = service.get_job(job_id)
        if job.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


class TestSubmitAndExecute:
    def test_submit_runs_campaign_to_done(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            job, cache_hit = service.submit(SPEC)
            assert not cache_hit
            assert job.state == STATE_QUEUED
            done = wait_terminal(service, job.job_id)
            assert done.state == STATE_DONE
            result = service.job_result(job.job_id)
            assert result["n_samples"] == 80
            assert 0.0 <= result["ssf"] <= 1.0
            assert result["ci_low"] <= result["ssf"] <= result["ci_high"]
        finally:
            service.stop()

    def test_identical_spec_runs_once_and_hits_cache(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            first, hit1 = service.submit(SPEC)
            wait_terminal(service, first.job_id)
            second, hit2 = service.submit(SPEC)
            assert (hit1, hit2) == (False, True)
            assert second.run_id == first.run_id
            assert service.job_result(second.job_id)["ssf"] == (
                service.job_result(first.job_id)["ssf"]
            )
            # Exactly one run directory: the campaign executed once.
            assert RunStore.list_runs(service.runs_dir) == [first.run_id]
        finally:
            service.stop()

    def test_active_duplicate_coalesces(self, tmp_path):
        service = make_service(tmp_path)  # workers not started
        a, _ = service.submit(SPEC)
        b, hit = service.submit(SPEC)
        assert b.job_id == a.job_id
        assert not hit
        assert service.queue.depth() == 1
        service.stop(wait=False)

    def test_failed_jobs_do_not_dedup(self, tmp_path):
        def broken(spec):
            raise RuntimeError("boom")

        service = make_service(tmp_path, engine_factory=broken)
        service.start()
        try:
            job, _ = service.submit(SPEC)
            failed = wait_terminal(service, job.job_id)
            assert failed.state == STATE_FAILED
            assert "boom" in failed.error
            retry, hit = service.submit(SPEC)
            assert retry.job_id != job.job_id
            assert not hit
        finally:
            service.stop()

    def test_result_of_unfinished_job_is_409(self, tmp_path):
        service = make_service(tmp_path)
        job, _ = service.submit(SPEC)
        with pytest.raises(ServiceError) as err:
            service.job_result(job.job_id)
        assert err.value.status == 409
        service.stop(wait=False)

    def test_unknown_job_is_404(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(ServiceError) as err:
            service.get_job("nope")
        assert err.value.status == 404
        service.stop(wait=False)


class TestCacheFromDisk:
    def test_prior_cli_run_is_served_without_new_work(self, tmp_path):
        from repro.campaign import CampaignRunner

        runs = tmp_path / "runs"
        store = RunStore.create(runs, SPEC, run_id="cli-run")
        CampaignRunner(
            SPEC,
            store=store,
            engine=BernoulliEngine(p=0.3),
            sampler=StubSampler(),
            n_workers=1,
        ).run()

        service = EvaluationService(runs, engine_factory=stub_factory())
        job, hit = service.submit(SPEC)
        assert hit
        assert job.state == STATE_DONE
        assert job.run_id == "cli-run"
        assert service.queue.depth() == 0
        service.stop(wait=False)

    def test_interrupted_run_is_adopted_for_resume(self, tmp_path):
        runs = tmp_path / "runs"
        RunStore.create(runs, SPEC, run_id="partial")  # no samples yet
        service = EvaluationService(runs, engine_factory=stub_factory())
        job, hit = service.submit(SPEC)
        assert not hit
        assert job.run_id == "partial"
        service.start()
        try:
            done = wait_terminal(service, job.job_id)
            assert done.state == STATE_DONE
        finally:
            service.stop()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        service = make_service(tmp_path)  # no workers running
        job, _ = service.submit(SPEC)
        cancelled = service.cancel(job.job_id)
        assert cancelled.state == STATE_CANCELLED
        assert service.queue.depth() == 0
        service.stop(wait=False)

    def test_cancel_running_job_interrupts_campaign(self, tmp_path):
        slow = CampaignSpec(
            seed=5, chunk_size=10, stopping=StoppingConfig(n_samples=400)
        )
        service = make_service(
            tmp_path, engine_factory=stub_factory(delay_s=0.05)
        )
        service.start()
        try:
            job, _ = service.submit(slow)
            deadline = time.monotonic() + 10
            while (
                service.get_job(job.job_id).state == STATE_QUEUED
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            service.cancel(job.job_id)
            final = wait_terminal(service, job.job_id)
            assert final.state == STATE_CANCELLED
            # The interrupted run stays resumable on disk.
            checkpoint = RunStore(
                service.runs_dir / job.run_id
            ).read_checkpoint()
            assert checkpoint["status"] in ("interrupted", "running")
        finally:
            service.stop(cancel_running=True)

    def test_cancel_between_pop_and_execute_wins(self, tmp_path):
        """A popped job is still ``queued`` until its worker marks it
        ``running``; a cancel that lands in between must stick, and the
        worker must not start the campaign."""
        service = make_service(tmp_path)  # no workers: drive one by hand
        job, _ = service.submit(SPEC)
        assert service.queue.pop(timeout=0) is job
        assert service.cancel(job.job_id).state == STATE_CANCELLED
        service._execute(job)
        assert service.get_job(job.job_id).state == STATE_CANCELLED
        assert not (service.runs_dir / job.run_id).exists()
        service.stop(wait=False)

    def test_cancel_terminal_job_is_noop(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            job, _ = service.submit(SPEC)
            wait_terminal(service, job.job_id)
            assert service.cancel(job.job_id).state == STATE_DONE
        finally:
            service.stop()


class TestRecovery:
    def test_restart_requeues_active_jobs(self, tmp_path):
        service = make_service(tmp_path)  # never started: job stays queued
        job, _ = service.submit(SPEC)
        service.stop(wait=False)

        reborn = make_service(tmp_path)
        assert reborn.get_job(job.job_id).state == STATE_QUEUED
        assert reborn.queue.depth() == 1
        reborn.start()
        try:
            done = wait_terminal(reborn, job.job_id)
            assert done.state == STATE_DONE
        finally:
            reborn.stop()

    def test_finished_job_long_poll_ends_after_restart(self, tmp_path):
        """The event bus lives in memory, so after a restart a finished
        job's topic is empty; its long poll must still answer ``end``
        rather than ``events: [], end: false`` on every call."""
        from repro.service.router import ApiRequest, ApiRouter

        service = make_service(tmp_path)
        service.start()
        try:
            job, _ = service.submit(SPEC)
            wait_terminal(service, job.job_id)
        finally:
            service.stop()

        reborn = make_service(tmp_path)
        try:
            response = ApiRouter(reborn).handle(
                ApiRequest(
                    "GET",
                    f"/v1/campaigns/{job.job_id}/events",
                    query={"poll": "1", "after": "0"},
                )
            )
        finally:
            reborn.stop(wait=False)
        assert response.status == 200
        page = json.loads(response.body)
        assert page["events"] == []
        assert page["next_after"] == 0
        assert page["end"] is True


    def test_replayed_surrogate_job_fails_without_crashing(self, tmp_path):
        """A job queued for the removed surrogate engine, replayed from
        an old job store, ends ``failed``; the service keeps working."""
        service = make_service(tmp_path)
        service.store.record_submit(
            Job(
                job_id="old",
                spec={**SPEC.to_dict(), "engine": "surrogate"},
                spec_hash="0" * 64,
                run_id="old",
            )
        )
        service.stop(wait=False)

        reborn = make_service(tmp_path)
        assert reborn.get_job("old").state == STATE_QUEUED
        reborn.start()
        try:
            failed = wait_terminal(reborn, "old")
            assert failed.state == STATE_FAILED
            assert "surrogate" in failed.error
            job, _ = reborn.submit(SPEC)
            assert wait_terminal(reborn, job.job_id).state == STATE_DONE
        finally:
            reborn.stop()


class TestMetrics:
    def test_queue_and_cache_metrics(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            job, _ = service.submit(SPEC)
            wait_terminal(service, job.job_id)
            service.submit(SPEC)  # hit
            m = service.metrics
            assert m.value(
                "service_cache_requests_total", outcome="hit"
            ) == 1
            assert m.value(
                "service_cache_requests_total", outcome="miss"
            ) == 1
            assert m.value("service_cache_hit_ratio") == 0.5
            assert m.value("service_jobs", state="done") == 1
            assert m.value("service_queue_depth") == 0
            text = service.metrics_text()
            assert "service_queue_depth 0" in text
            assert 'service_jobs{state="done"} 1' in text
        finally:
            service.stop()

    def test_priorities_order_execution(self, tmp_path):
        service = make_service(tmp_path)  # pop manually, no workers
        low = CampaignSpec(seed=1, stopping=StoppingConfig(n_samples=10))
        high = CampaignSpec(seed=2, stopping=StoppingConfig(n_samples=10))
        service.submit(low, priority=0)
        job_high, _ = service.submit(high, priority=9)
        assert service.queue.pop(0.01).job_id == job_high.job_id
        service.stop(wait=False)
