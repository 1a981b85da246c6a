"""The evaluation service: submit → dedup/cache → queue → run → serve.

:class:`EvaluationService` is the long-lived core behind the HTTP API
(and usable directly, embedded).  One instance owns

* a durable :class:`~repro.service.jobs.JobStore` (crash-safe job
  table),
* a :class:`~repro.service.cache.ResultCache` over the campaign runs
  directory (finished identical specs are served instantly, interrupted
  ones are resumed),
* a bounded pool of worker threads driving
  :class:`~repro.campaign.runner.CampaignRunner` — each job is one
  durable campaign run, so every crash-safety property of the campaign
  layer (fsynced chunk log, bit-identical resume) carries over to the
  service,
* a :class:`~repro.obs.metrics.MetricsRegistry` exposing queue depth,
  jobs by state, and the cache hit ratio (``GET /v1/metrics``).

Submission semantics, in lookup order for an incoming spec hash:

1. an *active* (queued/running) job with the same hash → coalesce onto
   it (no new work, ``cache_hit`` false);
2. a *done* job, or any finished run directory, with the same hash →
   answer from the cache (``cache_hit`` true, zero new samples);
3. an *interrupted* run directory with the same hash → new job that
   resumes it, reusing every logged sample;
4. otherwise → new job, fresh run directory named after the job id.

Failed and cancelled jobs never satisfy dedup, so resubmitting after a
failure retries cleanly.
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
from typing import Callable, Dict, Optional, Tuple, Union

from repro.campaign.hooks import CampaignHooks, HookChain
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.spec_hash import spec_hash
from repro.campaign.store import RunStore, SPEC_FILE
from repro.errors import JobCancelled, ReproError, ServiceError
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.events import EVENT_END, EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_report
from repro.obs.service_metrics import (
    record_cache_request,
    record_submission,
    update_job_gauges,
)
from repro.service.artifacts import ArtifactStore, ensure_precharac
from repro.service.cache import ResultCache, result_payload
from repro.service.jobs import (
    ACTIVE_STATES,
    JOB_STATES,
    Job,
    JobQueue,
    JobStore,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    new_job_id,
)
from repro.utils.durable import atomic_write

#: ``engine_factory(spec) -> (engine, sampler)``; tests inject stubs here.
EngineFactory = Callable[[CampaignSpec], Tuple[object, object]]

#: How jobs are executed: in-process fork pool vs. distributed fleet.
DISPATCH_LOCAL = "local"
DISPATCH_FLEET = "fleet"


class _JobEventHook(CampaignHooks):
    """Streams campaign progress onto the service event bus.

    Every consumed chunk publishes a ``progress`` event on the job's
    topic; SSE / long-poll subscribers on
    ``GET /v1/campaigns/<id>/events`` see them live.
    """

    def __init__(self, bus: EventBus, job_id: str):
        self.bus = bus
        self.job_id = job_id

    def on_batch(self, chunk_index, n_new, estimator, decision=None) -> None:
        self.bus.publish(
            self.job_id,
            {
                "type": "progress",
                "job_id": self.job_id,
                "chunk": chunk_index,
                "n_samples": estimator.n_samples,
                "ssf": estimator.ssf,
            },
        )

    def on_checkpoint(self, snapshot: dict) -> None:
        event = {"type": "checkpoint", "job_id": self.job_id}
        event.update(snapshot)
        self.bus.publish(self.job_id, event)


class _CancelHook(CampaignHooks):
    """Aborts the campaign between chunk merges once cancel is requested.

    Raising from ``on_batch`` rides the runner's interrupt path: the
    run checkpoints as ``interrupted`` (still resumable) before the
    exception reaches the worker.
    """

    def __init__(self, job: Job):
        self.job = job

    def on_batch(self, chunk_index, n_new, estimator, decision=None) -> None:
        if self.job.cancel_requested:
            raise JobCancelled(f"job {self.job.job_id} cancelled")


class EvaluationService:
    """Queued, cached, multi-tenant SSF evaluation over campaign runs."""

    def __init__(
        self,
        runs_dir: Union[str, pathlib.Path],
        state_dir: Optional[Union[str, pathlib.Path]] = None,
        max_concurrency: int = 1,
        campaign_workers: int = 1,
        checkpoint_every: int = 5,
        engine_factory: Optional[EngineFactory] = None,
        metrics: Optional[MetricsRegistry] = None,
        dispatch: str = DISPATCH_LOCAL,
        lease_ttl_s: float = 10.0,
    ):
        if dispatch not in (DISPATCH_LOCAL, DISPATCH_FLEET):
            raise ServiceError(f"unknown dispatch mode {dispatch!r}")
        self.runs_dir = pathlib.Path(runs_dir)
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.store = JobStore(
            state_dir if state_dir is not None else self.runs_dir / "service"
        )
        self.cache = ResultCache(self.runs_dir)
        self.artifacts = ArtifactStore(self.runs_dir / "artifacts")
        self.max_concurrency = max(1, max_concurrency)
        self.campaign_workers = max(1, campaign_workers)
        self.checkpoint_every = checkpoint_every
        self.engine_factory = engine_factory
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.dispatch = dispatch
        self.events = EventBus()
        self.fleet: Optional[FleetCoordinator] = (
            FleetCoordinator(
                metrics=self.metrics,
                lease_ttl_s=lease_ttl_s,
                events=self.events,
            )
            if dispatch == DISPATCH_FLEET
            else None
        )
        self.queue = JobQueue()
        self._lock = threading.RLock()
        self._threads: list = []
        self._stopping = threading.Event()

        self.jobs: Dict[str, Job] = self.store.load()
        self._seq = max((j.seq for j in self.jobs.values()), default=-1) + 1
        self._recover()
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Re-queue work interrupted by a crash.

        Jobs logged ``running`` at replay died with the previous
        process.  Their run directories are durable, so they go back on
        the queue and the worker resumes them from the chunk log.
        """
        pending = sorted(
            (j for j in self.jobs.values() if j.state in ACTIVE_STATES),
            key=lambda j: (-j.priority, j.seq),
        )
        for job in pending:
            if job.state == STATE_RUNNING:
                self._update(job, state=STATE_QUEUED)
            self.queue.push(job)

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        with self._lock:
            if self._threads:
                return
            if self.fleet is not None:
                self.fleet.start()
            for i in range(self.max_concurrency):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-service-worker-{i}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def stop(self, wait: bool = True, cancel_running: bool = False) -> None:
        """Stop the worker pool.

        ``cancel_running`` asks in-flight campaigns to abort at their
        next chunk merge (they checkpoint as interrupted and stay
        resumable); otherwise running jobs finish their campaign.
        """
        self._stopping.set()
        if cancel_running:
            with self._lock:
                for job in self.jobs.values():
                    if job.state == STATE_RUNNING:
                        job.cancel_requested = True
        self.queue.close()
        if wait:
            for thread in self._threads:
                thread.join()
        if self.fleet is not None:
            self.fleet.stop()
        self._threads = []

    # ------------------------------------------------------------------
    # submission / dedup / cache
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec, priority: int = 0) -> Tuple[Job, bool]:
        """Register a spec; returns ``(job, cache_hit)``.

        Never blocks on evaluation: a cache hit returns a synthetic
        ``done`` job bound to the finished run, anything else returns a
        queued (or already-active) job to poll.
        """
        digest = spec_hash(spec)
        with self._lock:
            record_submission(self.metrics)
            active = self._find_job(digest, ACTIVE_STATES)
            if active is not None:
                record_cache_request(self.metrics, hit=False)
                self._refresh_gauges()
                return active, False

            done = self._find_job(digest, (STATE_DONE,))
            if done is not None and self.cache.run_hash(done.run_id) == digest:
                record_cache_request(self.metrics, hit=True)
                self._refresh_gauges()
                return done, True

            hit = self.cache.lookup_complete(digest)
            if hit is not None:
                job = Job(
                    job_id=new_job_id(),
                    spec=spec.to_dict(),
                    spec_hash=digest,
                    run_id=hit.run_id,
                    priority=priority,
                    seq=self._next_seq(),
                    state=STATE_DONE,
                    result=result_payload(
                        RunStore(self.runs_dir / hit.run_id)
                    ),
                    cache_hit=True,
                )
                self.store.record_submit(job)
                self.jobs[job.job_id] = job
                record_cache_request(self.metrics, hit=True)
                self._refresh_gauges()
                return job, True

            record_cache_request(self.metrics, hit=False)
            job_id = new_job_id()
            # Partial-run reuse: an interrupted run with this hash is
            # adopted and resumed instead of starting from sample zero.
            job = Job(
                job_id=job_id,
                spec=spec.to_dict(),
                spec_hash=digest,
                run_id=self.cache.lookup_partial(digest) or job_id,
                priority=priority,
                seq=self._next_seq(),
            )
            self.store.record_submit(job)
            self.jobs[job.job_id] = job
            self.queue.push(job)
            self._refresh_gauges()
            self.events.publish(
                job.job_id,
                {
                    "type": "state",
                    "job_id": job.job_id,
                    "state": job.state,
                    "error": None,
                },
            )
            return job, False

    def submit_many(
        self, specs, priority: int = 0
    ) -> list:
        """Submit a batch of specs; returns ``[(job, cache_hit), ...]``
        in input order.

        Each spec goes through the exact single-submit dedup path, so
        duplicate specs inside one batch coalesce onto one job just as
        they would across batches.  The batch holds the service lock
        once, keeping fan-out atomic with respect to concurrent
        submitters.
        """
        with self._lock:
            return [self.submit(spec, priority=priority) for spec in specs]

    def _find_job(self, digest: str, states) -> Optional[Job]:
        candidates = [
            j
            for j in self.jobs.values()
            if j.spec_hash == digest and j.state in states
        ]
        return min(candidates, key=lambda j: j.seq) if candidates else None

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    # ------------------------------------------------------------------
    # job access
    # ------------------------------------------------------------------
    def get_job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return job

    def job_status(self, job_id: str) -> dict:
        """Job record plus live progress read from the run's durable
        checkpoint and exported :mod:`repro.obs` metrics."""
        job = self.get_job(job_id)
        payload = job.to_dict()
        payload["queue_depth"] = self.queue.depth()
        run_path = self.runs_dir / job.run_id
        if (run_path / SPEC_FILE).exists():
            store = RunStore(run_path)
            checkpoint = store.read_checkpoint()
            payload["run_status"] = checkpoint.get("status")
            payload["n_samples"] = checkpoint.get("n_samples", 0)
            payload["ssf"] = checkpoint.get("ssf")
            for metric in store.read_metrics():
                if metric["name"] == "campaign_n_samples":
                    payload["n_samples_live"] = metric["value"]
        return payload

    def job_result(self, job_id: str) -> dict:
        job = self.get_job(job_id)
        if job.state == STATE_FAILED:
            raise ServiceError(
                f"job {job_id} failed: {job.error}", status=409
            )
        if job.state != STATE_DONE:
            raise ServiceError(
                f"job {job_id} is {job.state}, result not ready", status=409
            )
        payload = result_payload(RunStore(self.runs_dir / job.run_id))
        payload["job_id"] = job.job_id
        payload["spec_hash"] = job.spec_hash
        payload["cache_hit"] = job.cache_hit
        return payload

    def job_report(self, job_id: str) -> str:
        """Rendered observability report for the job's run."""
        job = self.get_job(job_id)
        store = RunStore(self.runs_dir / job.run_id)
        snapshot = store.read_metrics()
        if not snapshot:
            raise ServiceError(
                f"job {job_id} has no exported metrics yet", status=409
            )
        return render_report(
            snapshot, title=f"Run report: {store.run_id} (job {job_id})"
        )

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job immediately, a running one at its next
        chunk merge; terminal jobs are left untouched."""
        with self._lock:
            job = self.get_job(job_id)
            if job.state == STATE_QUEUED:
                self._update(job, state=STATE_CANCELLED)
            elif job.state == STATE_RUNNING:
                job.cancel_requested = True
                self.store.record_update(job.job_id, cancel_requested=True)
            self._refresh_gauges()
            return job

    def list_jobs(self) -> list:
        with self._lock:
            return [
                job.to_dict()
                for job in sorted(self.jobs.values(), key=lambda j: j.seq)
            ]

    def state_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] += 1
        return counts

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        # Blocking pop: workers park on the queue's Condition while idle
        # (zero CPU) instead of waking twice a second to poll.  ``None``
        # only comes back once the queue is closed and drained.
        while True:
            job = self.queue.pop()
            if job is None:
                return
            self._execute(job)

    def _with_cached_artifacts(self, spec: CampaignSpec) -> CampaignSpec:
        """Route derived precomputation through the artifact cache.

        Only applies when this process builds the real runtime (no
        injected engine factory, no fleet dispatch).  Every rewritten
        field is non-semantic, so the spec hash — and with it result
        caching, dedup, and resume identity — is unchanged.
        """
        if spec.charac_cache is None:
            path, _ = ensure_precharac(
                self.artifacts, spec.benchmark, spec.variant
            )
            spec = dataclasses.replace(spec, charac_cache=str(path))
        if spec.baseline_store is None:
            # Cycle baselines persist in the same content-addressed store,
            # so a restarted service warm-starts repeat campaigns on the
            # same (design, workload) without re-simulating golden cycles.
            spec = dataclasses.replace(
                spec, baseline_store=str(self.artifacts.root)
            )
        return spec

    def _execute(self, job: Job) -> None:
        # ``queue.pop`` hands out a job that is still ``queued``, so a
        # cancel may land before this transition; it must win.
        with self._lock:
            if job.state != STATE_QUEUED:
                return
            self._update(job, state=STATE_RUNNING)
        try:
            spec = CampaignSpec.from_dict(job.spec)
            engine = sampler = scheduler = None
            if self.fleet is None and self.engine_factory is None:
                spec = self._with_cached_artifacts(spec)
                # Build before the run directory exists: a build that
                # fails must not leave a run behind that reads ``running``.
                engine, sampler = spec.build_runtime()
            run_path = self.runs_dir / job.run_id
            resume = (run_path / SPEC_FILE).exists()
            if resume:
                store = RunStore(run_path)
            elif run_path.exists():
                # Torn create from a crash (directory without a spec):
                # no chunk can have been logged yet, so materialize the
                # spec and run fresh.
                atomic_write(run_path / SPEC_FILE, spec.to_json())
                store = RunStore(run_path)
            else:
                store = RunStore.create(self.runs_dir, spec, run_id=job.run_id)
            if self.fleet is not None:
                # Fleet dispatch: chunks are evaluated by remote workers,
                # so the coordinator never builds the (expensive) real
                # runtime — the runner only consumes posted results.
                engine, sampler = FleetCoordinator.placeholder_runtime(spec)
                scheduler = self.fleet.scheduler_for(job, store, spec)
            elif self.engine_factory is not None:
                engine, sampler = self.engine_factory(spec)
            runner = CampaignRunner(
                spec,
                store=store,
                hooks=HookChain(
                    _CancelHook(job),
                    _JobEventHook(self.events, job.job_id),
                ),
                engine=engine,
                sampler=sampler,
                n_workers=self.campaign_workers,
                checkpoint_every=self.checkpoint_every,
                scheduler=scheduler,
            )
            runner.run(resume=resume)
            self._update(
                job, state=STATE_DONE, result=result_payload(store)
            )
        except JobCancelled:
            self._update(job, state=STATE_CANCELLED)
        except ReproError as exc:
            self._update(job, state=STATE_FAILED, error=str(exc))
        except Exception as exc:  # noqa: BLE001 - worker must not die
            self._update(
                job,
                state=STATE_FAILED,
                error=f"{type(exc).__name__}: {exc}",
            )

    # ------------------------------------------------------------------
    # state transitions + metrics
    # ------------------------------------------------------------------
    def _update(self, job: Job, **fields) -> None:
        """Durably record a transition, then apply it in memory."""
        with self._lock:
            self.store.record_update(job.job_id, **fields)
            for key, value in fields.items():
                setattr(job, key, value)
            self._refresh_gauges()
        if "state" in fields:
            self.events.publish(
                job.job_id,
                {
                    "type": "state",
                    "job_id": job.job_id,
                    "state": job.state,
                    "error": job.error,
                },
            )
            if job.terminal:
                # Sentinel so event streams know the topic is finished.
                self.events.publish(
                    job.job_id,
                    {
                        "type": EVENT_END,
                        "job_id": job.job_id,
                        "state": job.state,
                    },
                )

    def _refresh_gauges(self) -> None:
        update_job_gauges(
            self.metrics, self.state_counts(), self.queue.depth()
        )

    def metrics_text(self) -> str:
        """Prometheus exposition of the service registry."""
        with self._lock:
            self._refresh_gauges()
            return self.metrics.to_prometheus()

    # ------------------------------------------------------------------
    # fleet facade
    # ------------------------------------------------------------------
    def fleet_status(self) -> dict:
        """Fleet snapshot for ``GET /v1/fleet``; meaningful in any
        dispatch mode (a local service just reports no workers)."""
        payload = {"dispatch": self.dispatch}
        if self.fleet is not None:
            payload.update(self.fleet.status())
        else:
            payload.update({"workers": [], "runs": []})
        return payload

    def _require_fleet(self) -> FleetCoordinator:
        if self.fleet is None:
            raise ServiceError(
                "service is not running in fleet dispatch mode "
                "(start it with --fleet)",
                status=409,
            )
        return self.fleet

    def fleet_lease(self, worker: str) -> dict:
        return self._require_fleet().lease(worker)

    def fleet_heartbeat(self, lease_id: str) -> dict:
        return self._require_fleet().heartbeat(lease_id)

    def fleet_submit_chunk(self, payload: dict) -> dict:
        return self._require_fleet().submit_chunk(payload)

    def fleet_telemetry(self, payload: dict) -> dict:
        return self._require_fleet().post_telemetry(payload)
