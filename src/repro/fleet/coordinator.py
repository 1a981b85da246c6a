"""Fleet coordinator: lease brokerage + streaming chunk consumption.

The coordinator lives inside the evaluation service process and turns a
queued job into distributed work:

* :class:`FleetScheduler` is a drop-in replacement for the in-process
  :class:`~repro.campaign.scheduler.WorkStealingScheduler` — it exposes
  the same ``run(chunks, on_chunk, start_index)`` contract the
  :class:`~repro.campaign.runner.CampaignRunner` drives, so the entire
  deterministic consumption path (reorder buffer, estimator merge,
  stopping rule, fsynced chunk log, checkpoints) is *literally the same
  code* whether chunks come from fork workers or from the fleet.  That
  is the bit-identical-resume argument: the runner cannot tell the
  difference.
* :class:`FleetCoordinator` owns the cross-run state: which runs are
  accepting leases, the lease-id → run routing table, and the worker
  registry feeding the fleet metrics (depth gauge, per-worker
  samples/sec).  A background sweeper expires overdue leases so chunks
  held by dead workers return to the pool within one TTL.

Results are validated against the :class:`~repro.fleet.ledger.ChunkLedger`
before they reach the runner: a result posted on an expired or
superseded lease is discarded (and counted), never merged — the
estimator can only ever see each chunk once.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
import uuid
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.campaign.scheduler import Chunk, ChunkResult
from repro.campaign.store import RunStore, record_from_dict
from repro.errors import LeaseGone, JobCancelled, ServiceError
from repro.fleet.ledger import ChunkLedger, LEDGER_FILE
from repro.fleet.telemetry import RunTelemetry
from repro.obs.fleet_metrics import (
    observe_lease_wait,
    observe_queue_wait,
    observe_roundtrip,
    record_chunk_accepted,
    record_lease_granted,
    record_lease_renewed,
    record_leases_expired,
    record_result_discarded,
    record_straggler,
    remove_worker_series,
    update_fleet_depth,
    update_worker_rate,
)
from repro.obs.logging import warn_once
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import RunTrace


class _RemoteEngine:
    """Placeholder engine for coordinator-side runners.

    Fleet runs never evaluate samples in the coordinator process, so the
    runner must not build the (expensive) real runtime.
    """

    config = None


class _RemoteSampler:
    """Named placeholder so result strategies read ``campaign:<sampler>``
    exactly like a local run."""

    def __init__(self, name: str):
        self.name = name


class WorkerInfo:
    """Liveness and throughput bookkeeping for one attached worker."""

    def __init__(self, worker_id: str, now: float):
        self.worker_id = worker_id
        self.first_seen = now
        self.last_seen = now
        self.chunks_completed = 0
        self.samples_total = 0
        self.busy_s = 0.0

    @property
    def samples_per_s(self) -> float:
        return self.samples_total / self.busy_s if self.busy_s > 0 else 0.0

    def to_dict(self, now: float) -> dict:
        return {
            "worker": self.worker_id,
            "last_seen_s": round(now - self.last_seen, 3),
            "chunks_completed": self.chunks_completed,
            "samples_total": self.samples_total,
            "samples_per_s": round(self.samples_per_s, 3),
        }


class FleetScheduler:
    """Scheduler facade over one job's chunk ledger.

    Constructed by the coordinator per fleet-dispatched job and handed
    to the :class:`~repro.campaign.runner.CampaignRunner` as its
    ``scheduler``; :meth:`run` blocks the service worker thread while
    HTTP handler threads feed validated results in through
    :meth:`accept`.
    """

    def __init__(
        self,
        coordinator: "FleetCoordinator",
        job,
        store: RunStore,
        spec,
        poll_interval_s: float = 0.25,
    ):
        self.coordinator = coordinator
        self.job = job
        self.store = store
        self.spec = spec
        self.poll_interval_s = poll_interval_s
        self.ledger: Optional[ChunkLedger] = None
        self._results: "queue_mod.Queue" = queue_mod.Queue()
        self._workers_seen: set = set()
        self._closed = False
        #: Correlation id carried by every grant, span, and event of
        #: this run — what lets a merged trace be joined back to logs.
        self.trace_id = uuid.uuid4().hex[:16]
        self.telemetry: Optional[RunTelemetry] = None
        self._bound_metrics: Optional[MetricsRegistry] = None
        self._bound_trace: Optional[RunTrace] = None

    @property
    def n_workers_used(self) -> int:
        return max(1, len(self._workers_seen))

    def bind_obs(self, metrics: MetricsRegistry, trace: RunTrace) -> None:
        """Receive the runner's merged registry and run trace (called by
        :meth:`CampaignRunner._drive` before :meth:`run`).

        Shipped spans and lease instants go straight into ``trace``
        (which locks itself); shipped worker metrics are folded into
        ``metrics`` only after the consumption loop finishes — the
        runner's deterministic chunk-order merging must never race
        telemetry ingest."""
        self._bound_metrics = metrics
        self._bound_trace = trace

    # ------------------------------------------------------------------
    # runner-facing contract (mirrors WorkStealingScheduler.run)
    # ------------------------------------------------------------------
    def run(self, chunks, on_chunk, start_index: int = 0) -> None:
        remaining = [c for c in chunks if c.index >= start_index]
        if not remaining:
            return
        self.ledger = ChunkLedger(
            self.store.path / LEDGER_FILE,
            chunks,
            start_index=start_index,
            ttl_s=self.coordinator.lease_ttl_s,
        )
        self.telemetry = RunTelemetry(
            self.store,
            self.trace_id,
            metrics=self.coordinator.metrics,
            trace=self._bound_trace,
        )
        self.telemetry.record_event(
            "run_started",
            run_id=self.store.run_id,
            job_id=self.job.job_id,
            n_chunks=len(remaining),
            start_index=start_index,
        )
        self.coordinator._attach(self)
        try:
            # Exactly one queued result per tracked chunk (the ledger
            # accepts each chunk once), so counting consumptions — not
            # polling ``all_done``, which flips before the final result
            # is queued — is the race-free termination condition.
            consumed = 0
            while consumed < len(remaining):
                if self.job is not None and getattr(
                    self.job, "cancel_requested", False
                ):
                    raise JobCancelled(
                        f"job {self.job.job_id} cancelled while leasing"
                    )
                try:
                    result = self._results.get(timeout=self.poll_interval_s)
                except queue_mod.Empty:
                    continue
                consumed += 1
                if not on_chunk(result):
                    return
        finally:
            # Close under the coordinator lock: accept()/ingest run on
            # HTTP handler threads holding it, so after this block no
            # telemetry can mutate state we are about to export.
            with self.coordinator._lock:
                self._closed = True
                self.coordinator._detach(self)
                if self.ledger is not None:
                    self.ledger.release_all()
                self._export_telemetry()

    def _export_telemetry(self) -> None:
        """Fold shipped worker metrics into the runner's registry (run
        close, lock held).

        Runs after the consumption loop, so the runner's final
        ``_export_obs`` (which rewrites ``metrics.jsonl`` and
        ``trace.json``) sees the shipped series and spans; the series
        are all non-deterministic, so the deterministic view — the
        fleet-vs-local parity surface — is untouched.
        """
        if self.telemetry is None:
            return
        self.telemetry.record_event("run_closed", run_id=self.store.run_id)
        if self._bound_metrics is not None:
            self._bound_metrics.merge_snapshot(
                self.telemetry.shipped.snapshot()
            )

    # ------------------------------------------------------------------
    # coordinator-facing entry points (called under the coordinator lock)
    # ------------------------------------------------------------------
    def try_lease(self, worker: str) -> Optional[Tuple[dict, bool]]:
        """Grant the next pending chunk of this run.

        Returns ``(wire payload, reassigned)``, or ``None`` when nothing
        is pending."""
        if self._closed or self.ledger is None:
            return None
        lease = self.ledger.lease(worker)
        if lease is None:
            return None
        reassigned = bool(getattr(lease, "reassigned", False))
        grant = lease.to_grant()
        grant.update(
            {
                "job_id": self.job.job_id,
                "run_id": self.store.run_id,
                "seed": self.spec.seed,
                "spec": self.spec.to_dict(),
                "ttl_s": self.coordinator.lease_ttl_s,
                "trace_id": self.trace_id,
            }
        )
        observe_queue_wait(self.coordinator.metrics, lease.queue_wait_s)
        if self.telemetry is not None:
            self.telemetry.record_event(
                "lease_granted",
                lease_id=lease.lease_id,
                chunk=lease.chunk.index,
                worker=worker,
                reassigned=reassigned,
                queue_wait_s=round(lease.queue_wait_s, 6),
            )
            self.telemetry.trace.add_instant(
                "lease.reissue" if reassigned else "lease.grant",
                worker=worker,
                chunk=lease.chunk.index,
                lease_id=lease.lease_id,
            )
        return grant, reassigned

    def accept(
        self,
        lease_id: str,
        chunk_index: int,
        records: List[dict],
        metrics: Optional[List[dict]],
        telemetry: Optional[dict] = None,
    ) -> Chunk:
        """Validate a posted result against the ledger and queue it for
        consumption.  Raises :class:`LeaseGone` on discard."""
        if self._closed or self.ledger is None:
            raise LeaseGone(
                f"job {self.job.job_id} is no longer accepting results"
            )
        # Decode and validate BEFORE retiring the lease: if the payload
        # is malformed, the chunk must stay leased (it expires and is
        # re-issued), never done-but-unconsumed — that would strand one
        # queued-result slot and hang :meth:`run` forever.
        lease = self.ledger.get_lease(lease_id)
        if lease is None:
            raise LeaseGone(
                f"lease {lease_id} is unknown or already retired"
            )
        try:
            decoded = [record_from_dict(r) for r in records]
        except Exception as exc:
            raise ServiceError(
                f"chunk {chunk_index} result is malformed: {exc}",
                status=400,
            )
        if len(decoded) != lease.chunk.n_samples:
            raise ServiceError(
                f"chunk {chunk_index} result carries {len(decoded)} "
                f"records, expected {lease.chunk.n_samples}",
                status=400,
            )
        chunk = self.ledger.complete(lease_id, chunk_index)
        worker = lease.worker
        roundtrip_s = (
            time.time() - lease.granted_at if lease.granted_at else None
        )
        if roundtrip_s is not None:
            self.coordinator._note_roundtrip(
                worker, roundtrip_s, self.job.job_id, self.telemetry
            )
        if self.telemetry is not None:
            # Best-effort: the lease is already retired, so a telemetry
            # failure past this point must never abort the post — that
            # would strand the chunk done-but-unconsumed and hang run().
            try:
                if telemetry is not None:
                    self.telemetry.ingest(worker, telemetry)
                self.telemetry.record_event(
                    "chunk_accepted",
                    lease_id=lease_id,
                    chunk=chunk_index,
                    worker=worker,
                    roundtrip_s=(
                        round(roundtrip_s, 6)
                        if roundtrip_s is not None
                        else None
                    ),
                )
                self.telemetry.trace.add_instant(
                    "chunk.accepted",
                    worker=worker,
                    chunk=chunk_index,
                    lease_id=lease_id,
                )
            except Exception as exc:
                warn_once(
                    f"fleet-telemetry-ingest-{self.job.job_id}",
                    f"telemetry ingest failed for chunk {chunk_index} "
                    f"from {worker}: {exc}",
                )
        self._results.put(ChunkResult(chunk_index, decoded, metrics))
        return chunk


class FleetCoordinator:
    """Cross-run lease brokerage, worker registry, and expiry sweeper."""

    #: A worker counts toward the fleet-depth gauge if it talked to the
    #: coordinator within this window.
    liveness_window_s = 30.0

    #: A worker silent this long is evicted from the registry and its
    #: per-worker rate gauge dropped — default worker ids embed
    #: pid+uuid, so without eviction every restarted worker would add a
    #: permanent WorkerInfo entry and Prometheus series to a long-lived
    #: coordinator.
    worker_eviction_s = 10 * liveness_window_s

    #: A chunk round-trip this many times the rolling fleet median flags
    #: its worker as a straggler (warn-once + EventBus event + counter).
    straggler_factor = 3.0

    #: Round-trips observed before the straggler detector arms — the
    #: median of a couple of samples is noise, not a baseline.
    straggler_min_samples = 5

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        lease_ttl_s: float = 10.0,
        sweep_interval_s: float = 1.0,
        events=None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.lease_ttl_s = float(lease_ttl_s)
        self.sweep_interval_s = float(sweep_interval_s)
        #: Optional :class:`~repro.fleet.events.EventBus` — straggler
        #: flags are published to the job's topic so live dashboards
        #: (``repro top``) see them on the same stream as progress.
        self.events = events
        self._lock = threading.RLock()
        self._runs: Dict[str, FleetScheduler] = {}       # job_id -> scheduler
        self._order: List[str] = []                      # lease fairness order
        self._lease_to_job: Dict[str, str] = {}
        self._workers: Dict[str, WorkerInfo] = {}
        self._roundtrips: Deque[float] = deque(maxlen=64)
        self._sweeper: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._sweeper is not None:
                return
            self._stop.clear()
            self._sweeper = threading.Thread(
                target=self._sweep_loop, name="repro-fleet-sweeper",
                daemon=True,
            )
            self._sweeper.start()

    def stop(self) -> None:
        self._stop.set()
        sweeper = self._sweeper
        if sweeper is not None:
            sweeper.join(timeout=5)
        self._sweeper = None

    def scheduler_for(self, job, store: RunStore, spec) -> FleetScheduler:
        """Build the scheduler (and placeholder runtime) for a fleet job."""
        return FleetScheduler(self, job, store, spec)

    @staticmethod
    def placeholder_runtime(spec):
        """(engine, sampler) stand-ins so the coordinator never builds
        the real evaluation context."""
        return _RemoteEngine(), _RemoteSampler(spec.sampler)

    def _attach(self, scheduler: FleetScheduler) -> None:
        with self._lock:
            job_id = scheduler.job.job_id
            self._runs[job_id] = scheduler
            if job_id not in self._order:
                self._order.append(job_id)
            # Re-adopted leases (coordinator restart) must route again.
            for lease in scheduler.ledger.active_leases():
                self._lease_to_job[lease.lease_id] = job_id

    def _detach(self, scheduler: FleetScheduler) -> None:
        with self._lock:
            job_id = scheduler.job.job_id
            self._runs.pop(job_id, None)
            if job_id in self._order:
                self._order.remove(job_id)
            self._lease_to_job = {
                lease_id: owner
                for lease_id, owner in self._lease_to_job.items()
                if owner != job_id
            }

    # ------------------------------------------------------------------
    # worker-facing protocol (HTTP handler threads)
    # ------------------------------------------------------------------
    def lease(self, worker: str) -> dict:
        """Grant one chunk to ``worker``, or report idle."""
        with self._lock:
            self._touch(worker)
            for job_id in list(self._order):
                scheduler = self._runs.get(job_id)
                if scheduler is None:
                    continue
                granted = scheduler.try_lease(worker)
                if granted is None:
                    continue
                grant, reassigned = granted
                self._lease_to_job[grant["lease_id"]] = job_id
                record_lease_granted(self.metrics, reassigned=reassigned)
                return grant
            return {"idle": True, "retry_after_s": self.sweep_interval_s}

    def heartbeat(self, lease_id: str) -> dict:
        """Renew a lease; raises :class:`LeaseGone` when it is not
        renewable (expired, retired, or the run finished)."""
        with self._lock:
            scheduler = self._scheduler_for_lease(lease_id)
            lease = scheduler.ledger.renew(lease_id)
            self._touch(lease.worker)
            record_lease_renewed(self.metrics)
            if scheduler.telemetry is not None:
                scheduler.telemetry.trace.add_instant(
                    "lease.heartbeat",
                    worker=lease.worker,
                    chunk=lease.chunk.index,
                    lease_id=lease_id,
                )
            return {"lease_id": lease_id, "expires_at": lease.expires_at}

    def submit_chunk(self, payload: dict) -> dict:
        """Accept (or discard) one posted chunk result.

        Returns ``{"accepted": bool, ...}``; discards carry a reason
        instead of an error status so workers treat them as a normal
        outcome and simply move on to their next lease.
        """
        lease_id = payload.get("lease_id")
        worker = payload.get("worker", "?")
        chunk_index = int(payload.get("chunk", -1))
        with self._lock:
            self._touch(worker)
            scheduler = None
            try:
                scheduler = self._scheduler_for_lease(lease_id)
                chunk = scheduler.accept(
                    lease_id,
                    chunk_index,
                    payload.get("records") or [],
                    payload.get("metrics"),
                    telemetry=payload.get("telemetry"),
                )
            except LeaseGone as exc:
                record_result_discarded(self.metrics)
                if (
                    scheduler is not None
                    and scheduler.telemetry is not None
                ):
                    scheduler.telemetry.record_event(
                        "result_discarded",
                        lease_id=lease_id,
                        chunk=chunk_index,
                        worker=worker,
                        reason=str(exc),
                    )
                return {
                    "accepted": False,
                    "chunk": chunk_index,
                    "reason": str(exc),
                }
            self._lease_to_job.pop(lease_id, None)
            record_chunk_accepted(self.metrics)
            scheduler._workers_seen.add(worker)
            info = self._workers[worker]
            info.chunks_completed += 1
            info.samples_total += chunk.n_samples
            info.busy_s += max(0.0, float(payload.get("duration_s") or 0.0))
            if info.busy_s > 0:
                update_worker_rate(self.metrics, worker, info.samples_per_s)
            return {"accepted": True, "chunk": chunk_index}

    def post_telemetry(self, payload: dict) -> dict:
        """Accept an out-of-band telemetry bundle (``POST /v1/telemetry``).

        Used by workers whose lease is gone (expired mid-chunk, runtime
        build failure) and for end-of-loop span flushes — the spans and
        log records still matter for the merged trace even though no
        chunk result rides along.  Always best-effort: an unknown job is
        a polite no, never an error.
        """
        worker = str(payload.get("worker") or "?")
        job_id = payload.get("job_id")
        with self._lock:
            self._touch(worker)
            scheduler = self._runs.get(job_id) if job_id else None
            if scheduler is None or scheduler.telemetry is None:
                return {
                    "accepted": False,
                    "reason": f"no active run for job {job_id!r}",
                }
            telemetry = payload.get("telemetry")
            if isinstance(telemetry, dict):
                try:
                    scheduler.telemetry.ingest(worker, telemetry)
                except Exception as exc:
                    return {"accepted": False, "reason": str(exc)}
            return {"accepted": True}

    def _note_roundtrip(
        self,
        worker: str,
        seconds: float,
        job_id: str,
        telemetry: Optional[RunTelemetry],
    ) -> None:
        """Observe one chunk round-trip and flag stragglers (lock held).

        A worker whose round-trip exceeds ``straggler_factor`` × the
        rolling fleet median warns once, bumps the straggler counter,
        lands in ``events.jsonl``, and is published on the job's event
        topic so live dashboards can badge it.
        """
        observe_roundtrip(self.metrics, worker, seconds)
        history = self._roundtrips
        if len(history) >= self.straggler_min_samples:
            ordered = sorted(history)
            median = ordered[len(ordered) // 2]
            if median > 0 and seconds > self.straggler_factor * median:
                record_straggler(self.metrics, worker)
                warn_once(
                    f"fleet-straggler-{worker}",
                    f"fleet worker {worker} is straggling: chunk "
                    f"round-trip {seconds:.3f}s exceeds "
                    f"{self.straggler_factor:g}x the fleet median "
                    f"({median:.3f}s)",
                )
                if telemetry is not None:
                    telemetry.record_event(
                        "straggler",
                        worker=worker,
                        roundtrip_s=round(seconds, 6),
                        fleet_median_s=round(median, 6),
                        factor=self.straggler_factor,
                    )
                if self.events is not None:
                    self.events.publish(
                        job_id,
                        {
                            "type": "straggler",
                            "worker": worker,
                            "roundtrip_s": round(seconds, 6),
                            "fleet_median_s": round(median, 6),
                        },
                    )
        history.append(seconds)

    def _scheduler_for_lease(self, lease_id: Optional[str]) -> FleetScheduler:
        if not lease_id:
            raise LeaseGone("request carries no lease_id")
        job_id = self._lease_to_job.get(lease_id)
        scheduler = self._runs.get(job_id) if job_id else None
        if scheduler is None:
            raise LeaseGone(
                f"lease {lease_id} is unknown or expired "
                "(no active run holds it)"
            )
        return scheduler

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _touch(self, worker: str) -> None:
        now = time.time()
        info = self._workers.get(worker)
        if info is None:
            info = self._workers[worker] = WorkerInfo(worker, now)
        info.last_seen = now
        self._refresh_depth(now)

    def _refresh_depth(self, now: float) -> None:
        alive = sum(
            1
            for info in self._workers.values()
            if now - info.last_seen <= self.liveness_window_s
        )
        update_fleet_depth(self.metrics, alive)

    def status(self) -> dict:
        """Fleet snapshot for ``GET /v1/fleet`` and ``repro fleet status``."""
        now = time.time()
        with self._lock:
            self._refresh_depth(now)
            runs = []
            for job_id in self._order:
                scheduler = self._runs.get(job_id)
                if scheduler is None or scheduler.ledger is None:
                    continue
                counts = scheduler.ledger.counts()
                runs.append(
                    {
                        "job_id": job_id,
                        "run_id": scheduler.store.run_id,
                        "chunks": counts,
                        "leases": [
                            lease.to_grant()
                            for lease in scheduler.ledger.active_leases()
                        ],
                    }
                )
            return {
                "lease_ttl_s": self.lease_ttl_s,
                "workers": [
                    info.to_dict(now)
                    for info in sorted(
                        self._workers.values(),
                        key=lambda w: w.worker_id,
                    )
                ],
                "runs": runs,
            }

    # ------------------------------------------------------------------
    # expiry sweeping
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Expire overdue leases across every active run (returns how
        many expired).  Called by the background sweeper and by tests.
        Also evicts long-silent workers so the registry and the
        per-worker gauge series stay bounded."""
        expired = 0
        with self._lock:
            for scheduler in list(self._runs.values()):
                if scheduler.ledger is None:
                    continue
                due = scheduler.ledger.expire_due()
                for lease in due:
                    self._lease_to_job.pop(lease.lease_id, None)
                    if scheduler.telemetry is not None:
                        scheduler.telemetry.record_event(
                            "lease_expired",
                            lease_id=lease.lease_id,
                            chunk=lease.chunk.index,
                            worker=lease.worker,
                        )
                        scheduler.telemetry.trace.add_instant(
                            "lease.expired",
                            worker=lease.worker,
                            chunk=lease.chunk.index,
                            lease_id=lease.lease_id,
                        )
                expired += len(due)
            record_leases_expired(self.metrics, expired)
            now = time.time()
            cutoff = now - self.worker_eviction_s
            for worker_id in [
                worker_id
                for worker_id, info in self._workers.items()
                if info.last_seen < cutoff
            ]:
                del self._workers[worker_id]
                remove_worker_series(self.metrics, worker_id)
            self._refresh_depth(now)
        return expired

    def _sweep_loop(self) -> None:
        while not self._stop.wait(self.sweep_interval_s):
            self.sweep()
