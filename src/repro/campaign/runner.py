"""Campaign orchestration: spec → scheduler → durable store → result.

The runner owns the deterministic part of a campaign.  Chunks may finish
in any order (work stealing), but they are *consumed* — logged, merged
into the Welford estimator, and fed to the stopping rule — strictly in
chunk-index order via a reorder buffer.  Consequences:

* the final estimate is a pure function of (spec, chunk plan), independent
  of worker count and scheduling order;
* the durable log is always a contiguous chunk prefix, so resuming after
  a crash replays the exact same estimator state and continues with the
  first unconsumed chunk — an interrupted-and-resumed campaign returns
  bit-identical results to an uninterrupted one;
* the stopping rule sees the same estimator sequence every time, so the
  stop point is reproducible too.  Chunks that completed out of order
  past the stop point are discarded, never logged.

Observability rides the same consumption order: each chunk's serialized
metrics snapshot (recorded by the worker's engine, or rebuilt from its
records when absent) is merged into the runner's registry in chunk-index
order, so the merged metrics inherit every determinism guarantee above —
1 worker or 8, uninterrupted or SIGKILL-resumed, the deterministic subset
is identical.  The merged registry is exported to ``metrics.jsonl`` /
``metrics.prom`` in the run directory at every checkpoint.  Spans take
one route: a recording tracer captures runner/scheduler spans (chunk
dispatch, steal, merge, checkpoint fsync), every traced chunk brings its
engine stage spans back in its :class:`ChunkResult` (in-process, fork
worker or fleet worker alike), and the runner's
:class:`~repro.obs.tracing.RunTrace` stitches them — one lane per
process — into the run's one Chrome ``trace.json``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.campaign.hooks import CampaignHooks, HookChain, ObsHooks
from repro.campaign.scheduler import Chunk, ChunkResult, WorkStealingScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.stopping import StopDecision, build_stopping_rule
from repro.campaign.store import (
    RunStore,
    STATUS_COMPLETE,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
)
from repro.core.results import CampaignResult, SampleRecord
from repro.errors import EvaluationError
from repro.obs.engine_metrics import metrics_from_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, RunTrace, Tracer
from repro.sampling.estimator import SsfEstimator


class CampaignRunner:
    """Drives one campaign end-to-end (fresh or resumed).

    ``engine`` and ``sampler`` are normally built from the spec; tests (or
    callers that already hold a context) may inject their own.  The runner
    always maintains a merged :class:`MetricsRegistry` (``self.metrics``)
    and the run's :class:`~repro.obs.tracing.RunTrace` (``self.trace``);
    pass a recording :class:`~repro.obs.tracing.Tracer` (or set
    ``spec.trace``) to capture spans as well.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[RunStore] = None,
        hooks: Optional[CampaignHooks] = None,
        engine=None,
        sampler=None,
        n_workers: Optional[int] = None,
        checkpoint_every: int = 5,
        poll_interval_s: float = 0.5,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        scheduler=None,
    ):
        self.spec = spec
        self.store = store
        self.hooks = hooks or CampaignHooks()
        self.n_workers = n_workers
        # Injected scheduler (e.g. a fleet lease scheduler) replacing the
        # default in-process work-stealing pool.  Anything with the same
        # ``run(chunks, on_chunk, start_index)`` contract fits; the
        # deterministic consumption path below is shared either way.
        self.scheduler = scheduler
        self.checkpoint_every = max(1, checkpoint_every)
        self.poll_interval_s = poll_interval_s
        self._engine = engine
        self._sampler = sampler
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None and getattr(spec, "trace", False):
            tracer = Tracer(metrics=self.metrics)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace = RunTrace(self.tracer)
        # Runner-owned obs hook: first in the chain, also fed during
        # replay, so campaign progress metrics are deterministic.
        self._obs = ObsHooks(self.metrics)
        self._hook_chain = HookChain(self._obs, self.hooks)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        start = time.perf_counter()
        if self._engine is None or self._sampler is None:
            with self.tracer.span("campaign.build_runtime"):
                self._engine, self._sampler = self.spec.build_runtime()
        self.hooks.bind(self.metrics, self.tracer)
        hooks = self._hook_chain

        rule = build_stopping_rule(self.spec.stopping)
        chunks = [
            Chunk(i, n) for i, n in enumerate(self.spec.chunk_sizes())
        ]
        estimator = SsfEstimator(record_history=True)
        records: List[SampleRecord] = []

        next_index = 0
        if resume:
            if self.store is None:
                raise EvaluationError("resume requires a run store")
            with self.tracer.span("campaign.replay"):
                for entry in self.store.replay_chunks():
                    for record in entry.records:
                        estimator.push(record.sample, record.e)
                        records.append(record)
                    self._merge_chunk_metrics(entry.records, entry.metrics)
                    self._obs.on_batch(
                        entry.index, len(entry.records), estimator, None
                    )
                    next_index = entry.index + 1
        decision = rule.check(estimator) if next_index else None
        if decision is not None and not decision.stop:
            decision = None

        if decision is None:
            decision = self._drive(
                chunks, next_index, rule, estimator, records
            )

        wall = time.perf_counter() - start
        snapshot = self._snapshot(
            STATUS_COMPLETE, estimator, decision, len(records)
        )
        if self.store is not None:
            with self.tracer.span("checkpoint.fsync"):
                self.store.write_checkpoint(snapshot)
        hooks.on_checkpoint(snapshot)
        hooks.on_stop(decision, estimator)
        self._export_obs()
        return CampaignResult(
            strategy=f"campaign:{self._sampler.name} ({decision.reason})",
            records=records,
            estimator=estimator,
            wall_time_s=wall,
            metrics=self.metrics.snapshot(),
        )

    @classmethod
    def resume(
        cls,
        store: RunStore,
        hooks: Optional[CampaignHooks] = None,
        engine=None,
        sampler=None,
        n_workers: Optional[int] = None,
        tracer=None,
    ) -> CampaignResult:
        """Continue an interrupted run exactly where its log ends."""
        runner = cls(
            store.load_spec(),
            store=store,
            hooks=hooks,
            engine=engine,
            sampler=sampler,
            n_workers=n_workers,
            tracer=tracer,
        )
        return runner.run(resume=True)

    # ------------------------------------------------------------------
    # scheduling loop
    # ------------------------------------------------------------------
    def _drive(self, chunks, next_index, rule, estimator, records) -> StopDecision:
        scheduler = self.scheduler
        if scheduler is None:
            scheduler = WorkStealingScheduler(
                self._engine,
                self._sampler,
                seed=self.spec.seed,
                n_workers=self.n_workers,
                poll_interval_s=self.poll_interval_s,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        elif hasattr(scheduler, "bind_obs"):
            # Injected schedulers (the fleet lease scheduler) get the
            # runner's registry and trace so shipped worker telemetry
            # lands in the same metrics.jsonl and trace.json.
            scheduler.bind_obs(self.metrics, self.trace)
        hooks = self._hook_chain
        pending: Dict[int, ChunkResult] = {}
        state = {"next": next_index, "decision": None, "since_ckpt": 0}

        def consume(result: ChunkResult) -> bool:
            if result.spans:
                self.trace.add_spans(result.worker, result.spans)
            pending[result.index] = result
            while state["next"] in pending:
                ready = pending.pop(state["next"])
                if self.store is not None:
                    with self.tracer.span("chunk.append", chunk=ready.index):
                        self.store.append_chunk(
                            ready.index, ready.records, metrics=ready.metrics
                        )
                with self.tracer.span("chunk.merge", chunk=ready.index):
                    for record in ready.records:
                        estimator.push(record.sample, record.e)
                        records.append(record)
                    self._merge_chunk_metrics(ready.records, ready.metrics)
                state["next"] += 1
                decision = rule.check(estimator)
                hooks.on_batch(
                    ready.index, len(ready.records), estimator, decision
                )
                state["since_ckpt"] += 1
                if state["since_ckpt"] >= self.checkpoint_every:
                    state["since_ckpt"] = 0
                    self._checkpoint(STATUS_RUNNING, estimator, decision,
                                     len(records))
                if decision.stop:
                    state["decision"] = decision
                    return False
            return True

        try:
            scheduler.run(chunks, consume, start_index=next_index)
        except BaseException:
            # Mark the run resumable before propagating (the log already
            # holds every consumed chunk).
            self._checkpoint(
                STATUS_INTERRUPTED, estimator, state["decision"], len(records)
            )
            self._export_obs()
            raise
        self._workers_used = scheduler.n_workers_used

        decision = state["decision"]
        if decision is None:
            # The chunk plan ran dry; the bounded rule fires at the cap, so
            # this only happens when resuming an already-finished run.
            decision = rule.check(estimator)
            if not decision.stop:
                decision = StopDecision(True, "chunk plan exhausted")
        return decision

    # ------------------------------------------------------------------
    # metrics merging
    # ------------------------------------------------------------------
    def _merge_chunk_metrics(
        self, chunk_records: List[SampleRecord], snapshot: Optional[List[dict]]
    ) -> None:
        """Fold one chunk's metrics into the merged registry, in the
        strict chunk-index order the caller guarantees.

        Chunks from unobserved engines (stubs, pre-observability logs)
        carry no snapshot; their deterministic metrics are rebuilt from
        the records so the merged registry stays complete either way.
        """
        if snapshot is None:
            snapshot = metrics_from_records(chunk_records).snapshot()
        self.metrics.merge_snapshot(snapshot)

    def _export_obs(self, final: bool = True) -> None:
        if self.store is None:
            return
        self.store.write_metrics(self.metrics)
        # Each write rewrites every span so far, so only a tracing run
        # pays for one per checkpoint; the spans fleet workers ship by
        # default are written once, when the run ends.
        trace = self.trace.build() if final or self.tracer.enabled else None
        if trace is not None:
            self.store.write_trace(trace)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def _snapshot(self, status, estimator, decision, n_records) -> dict:
        return {
            "status": status,
            "n_samples": estimator.n_samples,
            "n_success": estimator.n_success,
            "n_records": n_records,
            "ssf": estimator.ssf,
            "variance": estimator.variance,
            "std_error": (
                estimator.std_error if estimator.n_samples >= 2 else None
            ),
            "stop_reason": decision.reason if decision else None,
            "target_samples": (
                decision.target_samples if decision else None
            ),
        }

    def _checkpoint(self, status, estimator, decision, n_records) -> None:
        if self.store is None:
            return
        snapshot = self._snapshot(status, estimator, decision, n_records)
        with self.tracer.span("checkpoint.fsync", status=status):
            self.store.write_checkpoint(snapshot)
        self._export_obs(final=False)
        self._hook_chain.on_checkpoint(snapshot)
