"""Fleet worker: lease chunks over HTTP, evaluate, stream results back.

A :class:`FleetWorker` is a long-lived process (``repro worker --attach
<url>``) that repeatedly

1. asks the coordinator for a lease (``POST /v1/lease``) — backing off
   while the service is idle or unreachable;
2. builds (and caches, keyed by spec hash) the evaluation runtime for
   the leased campaign spec;
3. evaluates the chunk under its SeedSequence stream — identical to what
   the in-process scheduler would compute, because
   :func:`~repro.campaign.scheduler.chunk_seed_sequence` is a pure
   function of (campaign seed, chunk index);
4. keeps the lease alive with heartbeats (``POST /v1/heartbeat``) from a
   side thread while the evaluation runs;
5. posts the serialized :class:`~repro.campaign.scheduler.ChunkResult`
   (``POST /v1/chunks``).

With telemetry enabled (the default) each chunk also runs under a real
:class:`~repro.obs.tracing.Tracer` bound to the lease's correlation
context (trace id, run id, lease id, chunk index): its spans — exported
on the *wall* clock, since the coordinator's ``perf_counter`` is a
different clock domain — plus a non-deterministic metrics snapshot and
the chunk's structured log records ship inside the result payload's
``telemetry`` field.  Spans that can only be measured after the post
itself (``chunk.post``) carry over into the next shipment, and are
flushed through the out-of-band ``POST /v1/telemetry`` verb when the
worker goes idle or exits — same verb used when a lease is lost
mid-chunk and there is no result to ride along with.  Telemetry is
always best-effort: no telemetry failure may ever cost a chunk.

A rejected result (lease expired while we evaluated — e.g. the process
was suspended, or the chunk was re-issued and finished elsewhere) is a
*normal* outcome: the worker logs it and moves on.  Workers are
stateless and disposable — kill one mid-chunk and the coordinator
re-leases its chunk after one TTL with no effect on the final estimate.
"""

from __future__ import annotations

import logging
import socket
import os
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.scheduler import Chunk, _run_chunk
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import record_to_dict
from repro.errors import ServiceError
from repro.obs.logging import LogBuffer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer

logger = logging.getLogger(__name__)

#: ``engine_factory(spec) -> (engine, sampler)``; tests and benchmarks
#: inject stubs, production workers build the spec's real runtime.
EngineFactory = Callable[[CampaignSpec], Tuple[object, object]]

#: Per-chunk span budget.  Worker chunks are short (one lease TTL), so
#: a modest cap keeps telemetry payloads bounded; overflow is counted
#: and shipped in ``n_dropped``.
CHUNK_TRACE_EVENTS = 20_000


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class _Heartbeat:
    """Background lease renewal while a chunk evaluates.

    Renews at a third of the TTL so two consecutive failures still leave
    slack before expiry.  A renewal rejected with 410 (lease gone) sets
    :attr:`lost` — the worker checks it before posting the result and
    drops the chunk without the round-trip.
    """

    def __init__(self, client, lease_id: str, ttl_s: float):
        self.client = client
        self.lease_id = lease_id
        self.interval_s = max(0.05, ttl_s / 3.0)
        self.lost = False
        self.renewals = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-{lease_id}", daemon=True
        )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.client.heartbeat(self.lease_id)
                self.renewals += 1
            except ServiceError as exc:
                if exc.status == 410:
                    self.lost = True
                    return
                # Transport blip: keep trying, the lease has slack.
                logger.debug(
                    "heartbeat for %s failed: %s", self.lease_id, exc
                )


class _ChunkObs:
    """Per-chunk telemetry context: tracer + registry + log buffer."""

    def __init__(self, worker_id: str, grant: dict, lease_wait_s: float):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            max_events=CHUNK_TRACE_EVENTS, metrics=self.registry
        )
        self.logs = LogBuffer()
        self.lease_wait_s = lease_wait_s
        self.context = {
            "trace_id": grant.get("trace_id"),
            "run_id": grant.get("run_id"),
            "lease_id": grant.get("lease_id"),
            "chunk": grant.get("chunk"),
            "worker": worker_id,
        }
        self.logs.bind(**self.context)
        if lease_wait_s > 0:
            now = time.perf_counter()
            self.tracer.add_event(
                "worker.lease_wait",
                now - lease_wait_s,
                lease_wait_s,
                **self.context,
            )

    def bundle(self, carry_spans: List[dict]) -> dict:
        """The shipping payload: spans (wall clock), metrics, logs."""
        return {
            "worker": self.context["worker"],
            "pid": os.getpid(),
            "spans": carry_spans + self.tracer.export_spans(),
            "n_dropped": self.tracer.n_dropped,
            "metrics": self.registry.snapshot(),
            "logs": self.logs.drain(),
            "lease_wait_s": self.lease_wait_s,
        }


class FleetWorker:
    """One attached worker's lease → evaluate → post loop."""

    def __init__(
        self,
        client,
        worker_id: Optional[str] = None,
        poll_s: float = 0.5,
        engine_factory: Optional[EngineFactory] = None,
        max_chunks: Optional[int] = None,
        telemetry: bool = True,
        artifacts_dir: Optional[str] = None,
    ):
        self.client = client
        self.worker_id = worker_id or default_worker_id()
        self.poll_s = poll_s
        self.engine_factory = engine_factory
        self.max_chunks = max_chunks
        self.telemetry = telemetry
        # Local ArtifactStore root (``repro worker --artifacts-dir``):
        # leased specs take their unset pre-characterization and
        # cycle-baseline paths from it, so a worker characterizes each
        # design once across campaigns and restarts.
        self.artifacts_dir = artifacts_dir
        self.chunks_completed = 0
        self.chunks_rejected = 0
        self._stop = threading.Event()
        # Runtime cache: workers serve many chunks of the same campaign,
        # so the (expensive) context build happens once per distinct spec.
        self._runtimes: Dict[str, Tuple[object, object]] = {}
        # Spans measured after their chunk shipped (chunk.post) ride
        # with the next shipment to the same job, or flush out-of-band.
        self._carry: Dict[str, List[dict]] = {}
        self._idle_since = time.perf_counter()

    def stop(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Lease-and-evaluate until stopped (or ``max_chunks`` served)."""
        backoff = self.poll_s
        self._idle_since = time.perf_counter()
        try:
            while not self._stop.is_set():
                if (
                    self.max_chunks is not None
                    and self.chunks_completed + self.chunks_rejected
                    >= self.max_chunks
                ):
                    return
                try:
                    grant = self.client.lease(self.worker_id)
                except ServiceError as exc:
                    # Coordinator down or restarting: linger and retry —
                    # workers must survive coordinator crashes.
                    logger.debug("lease request failed: %s", exc)
                    self._sleep(backoff)
                    backoff = min(backoff * 2, 5.0)
                    continue
                backoff = self.poll_s
                if grant.get("idle"):
                    self._flush_carry()
                    self._sleep(
                        float(grant.get("retry_after_s") or self.poll_s)
                    )
                    continue
                lease_wait_s = time.perf_counter() - self._idle_since
                self._serve(grant, lease_wait_s)
                self._idle_since = time.perf_counter()
        finally:
            self._flush_carry()

    def _sleep(self, seconds: float) -> None:
        self._stop.wait(seconds)

    # ------------------------------------------------------------------
    # one lease
    # ------------------------------------------------------------------
    def _serve(self, grant: dict, lease_wait_s: float = 0.0) -> None:
        lease_id = grant["lease_id"]
        job_id = str(grant.get("job_id") or "")
        chunk = Chunk(int(grant["chunk"]), int(grant["n_samples"]))
        ttl_s = float(grant.get("ttl_s") or 10.0)
        # Shipping is gated twice: per worker (--no-telemetry) and per
        # campaign (spec.telemetry) — either side can turn it off.
        spec_wants = bool((grant.get("spec") or {}).get("telemetry", True))
        obs = (
            _ChunkObs(self.worker_id, grant, lease_wait_s)
            if (self.telemetry and spec_wants)
            else None
        )
        try:
            engine, sampler, spec, cache_hit = self._runtime_for(grant)
        except Exception as exc:  # noqa: BLE001 - keep the worker alive
            logger.error(
                "cannot build runtime for chunk %d: %s", chunk.index, exc
            )
            if obs is not None:
                obs.logs.error("runtime build failed", error=str(exc))
                self._post_telemetry(job_id, obs.bundle(
                    self._carry.pop(job_id, [])
                ))
            self.chunks_rejected += 1
            self._sleep(self.poll_s)
            return
        if obs is not None:
            obs.registry.counter(
                "worker_runtime_cache_hits_total"
                if cache_hit
                else "worker_runtime_cache_misses_total",
                deterministic=False,
            ).inc()

        prev_tracer = getattr(engine, "tracer", None)
        if obs is not None:
            try:
                # The engine contributes per-sample stage spans to the
                # chunk's lane, exactly like a traced local run.
                engine.tracer = obs.tracer
            except Exception:  # noqa: BLE001 - engines may forbid setattr
                pass
        started = time.perf_counter()
        try:
            with _Heartbeat(self.client, lease_id, ttl_s) as heartbeat:
                result = _run_chunk(engine, sampler, spec.seed, chunk)
        finally:
            if obs is not None and prev_tracer is not None:
                try:
                    engine.tracer = prev_tracer
                except Exception:  # noqa: BLE001
                    pass
            elif obs is not None and hasattr(engine, "tracer"):
                try:
                    engine.tracer = NULL_TRACER
                except Exception:  # noqa: BLE001
                    pass
        duration_s = time.perf_counter() - started
        if obs is not None:
            obs.tracer.add_event(
                "chunk.evaluate",
                started,
                duration_s,
                n_samples=chunk.n_samples,
                heartbeats=heartbeat.renewals,
                **obs.context,
            )
            obs.logs.info(
                "chunk evaluated",
                n_samples=chunk.n_samples,
                duration_s=round(duration_s, 6),
                cache_hit=cache_hit,
            )
        if heartbeat.lost:
            logger.info(
                "lease %s lost during chunk %d; dropping result",
                lease_id,
                chunk.index,
            )
            if obs is not None:
                # No result to ride along with — ship out-of-band so the
                # wasted work is still visible in the merged trace.
                obs.logs.warning("lease lost mid-chunk; result dropped")
                self._post_telemetry(
                    job_id, obs.bundle(self._carry.pop(job_id, []))
                )
            self.chunks_rejected += 1
            return

        payload = {
            "lease_id": lease_id,
            "worker": self.worker_id,
            "chunk": result.index,
            "records": [record_to_dict(r) for r in result.records],
            "metrics": result.metrics,
            "duration_s": duration_s,
        }
        if obs is not None:
            payload["telemetry"] = obs.bundle(self._carry.pop(job_id, []))
        post_started = time.perf_counter()
        try:
            outcome = self.client.post_chunk(payload)
        except ServiceError as exc:
            logger.warning(
                "posting chunk %d failed: %s", chunk.index, exc
            )
            self.chunks_rejected += 1
            return
        if obs is not None:
            # The post span can only be measured after the payload left,
            # so it carries over into the next shipment for this job.
            post_dur = time.perf_counter() - post_started
            self._carry.setdefault(job_id, []).append(
                {
                    "name": "chunk.post",
                    "start_s": time.time() - post_dur,
                    "duration_s": post_dur,
                    "attrs": {
                        **obs.context,
                        "accepted": bool(outcome.get("accepted")),
                    },
                }
            )
        if outcome.get("accepted"):
            self.chunks_completed += 1
        else:
            # Late result: the lease expired and the chunk was (or will
            # be) re-evaluated elsewhere, bit-identically.
            logger.info(
                "chunk %d discarded by coordinator: %s",
                chunk.index,
                outcome.get("reason"),
            )
            self.chunks_rejected += 1

    # ------------------------------------------------------------------
    # telemetry shipping
    # ------------------------------------------------------------------
    def _post_telemetry(self, job_id: str, bundle: dict) -> None:
        """Best-effort out-of-band shipment; never raises."""
        post = getattr(self.client, "post_telemetry", None)
        if post is None or not job_id:
            return
        try:
            post({
                "job_id": job_id,
                "worker": self.worker_id,
                "telemetry": bundle,
            })
        except ServiceError as exc:
            logger.debug("telemetry post failed: %s", exc)

    def _flush_carry(self) -> None:
        """Ship carried-over spans (idle or shutting down)."""
        if not self.telemetry or not self._carry:
            return
        for job_id in list(self._carry):
            spans = self._carry.pop(job_id)
            if spans:
                self._post_telemetry(
                    job_id,
                    {
                        "worker": self.worker_id,
                        "pid": os.getpid(),
                        "spans": spans,
                    },
                )

    def _runtime_for(self, grant: dict):
        from repro.campaign.spec_hash import spec_hash
        from repro.service.artifacts import ArtifactStore, resolve_artifacts

        spec = CampaignSpec.from_dict(grant["spec"])
        if self.artifacts_dir and self.engine_factory is None:
            # Artifact paths are non-semantic, so the digest (and the
            # posted result identity) is unchanged.
            spec = resolve_artifacts(spec, ArtifactStore(self.artifacts_dir))
        digest = spec_hash(spec)
        cached = self._runtimes.get(digest)
        cache_hit = cached is not None
        if cached is None:
            if self.engine_factory is not None:
                cached = self.engine_factory(spec)
            else:
                cached = spec.build_runtime()
            self._runtimes[digest] = cached
        engine, sampler = cached
        return engine, sampler, spec, cache_hit
