"""Dynamic shard scheduler: work-stealing chunks over worker processes.

A static split of a campaign into one slice per worker lets the slowest
worker gate the wall time and cannot stop early.  Here the campaign is cut
into small *chunks* that idle workers pull from a shared queue:

* stragglers no longer matter — a worker that drew expensive samples just
  pulls fewer chunks;
* an adaptive stopping rule can cancel in-flight work the moment the
  target is met (``on_chunk`` returning ``False`` tears the pool down);
* each chunk owns an independent seed stream spawned from the campaign
  root seed (``SeedSequence(seed).spawn``), so results are reproducible
  for a given (seed, chunk plan) *regardless of worker count or
  scheduling order*.

The parent polls the result queue with a timeout and watches worker
liveness, so a worker that dies without reporting (OOM-kill, segfault)
raises :class:`~repro.errors.EvaluationError` instead of hanging the
campaign forever.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.results import SampleRecord
from repro.errors import EvaluationError
from repro.obs.tracing import NULL_TRACER, lap_spans


@dataclass(frozen=True)
class Chunk:
    """One schedulable unit of work: ``n_samples`` draws at chunk ``index``."""

    index: int
    n_samples: int


@dataclass(frozen=True)
class ChunkResult:
    """Completed chunk, in whatever order the pool finished it.

    ``metrics`` is the serialized per-chunk metrics snapshot
    (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`) recorded by the
    worker's engine during this chunk, or ``None`` when the engine ran
    unobserved — consumers fall back to rebuilding the deterministic
    subset from ``records``.  ``spans`` are the engine's stage spans of
    a traced chunk (wall-clock span dicts, see
    :func:`~repro.obs.tracing.lap_spans`), produced by ``worker`` (None:
    the runner's own process); an untraced chunk carries none.
    """

    index: int
    records: List[SampleRecord]
    metrics: Optional[List[dict]] = None
    spans: Optional[List[dict]] = None
    worker: Optional[str] = None


def chunk_seed_sequence(seed: Optional[int], index: int) -> np.random.SeedSequence:
    """The ``index``-th spawned child of the campaign root seed.

    Identical to ``np.random.SeedSequence(seed).spawn(index + 1)[index]``
    (spawned children are ``SeedSequence(entropy, spawn_key=(i,))``), but
    O(1) in the index.  Distinct (seed, index) pairs never collide — unlike
    the old ``seed + index`` scheme, where campaign seed 0 / chunk 1 reused
    campaign seed 1 / chunk 0's stream.
    """
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def _run_chunk(
    engine, sampler, seed: Optional[int], chunk: Chunk,
    trace: bool = False, worker: Optional[str] = None,
) -> ChunkResult:
    # Pass the chunk's SeedSequence itself (not a Generator): the engine
    # spawns one child stream per sample from it, so samples within a
    # chunk never share RNG state and each is replayable in isolation.
    # Stub engines that call ``as_generator`` on it see the same stream
    # the old Generator-passing code produced.
    result = engine.evaluate(
        sampler, chunk.n_samples, seed=chunk_seed_sequence(seed, chunk.index)
    )
    # Untraced, the laps go with the result: never pickled, never kept.
    laps = getattr(result, "laps", None) if trace else None
    return ChunkResult(
        chunk.index,
        list(result.records),
        getattr(result, "metrics", None),
        spans=lap_spans(laps, chunk=chunk.index) if laps else None,
        worker=worker,
    )


def _chunk_worker(
    engine, sampler, seed, trace, worker, task_queue, result_queue
) -> None:
    """Worker loop: pull chunk descriptors until the ``None`` sentinel."""
    while True:
        task = task_queue.get()
        if task is None:
            break
        index, n_samples = task
        try:
            result = _run_chunk(
                engine, sampler, seed, Chunk(index, n_samples), trace, worker
            )
            result_queue.put((index, result))
        except Exception as exc:  # pragma: no cover - surfaced to the parent
            result_queue.put((index, exc))


class WorkStealingScheduler:
    """Streams chunk results to a consumer callback.

    ``on_chunk`` is invoked in *completion* order (callers that need chunk
    order keep a reorder buffer); returning ``False`` cancels all queued
    and in-flight work immediately.
    """

    def __init__(
        self,
        engine,
        sampler,
        seed: Optional[int] = 0,
        n_workers: Optional[int] = None,
        poll_interval_s: float = 0.5,
        prefetch: int = 2,
        tracer=None,
        metrics=None,
    ):
        self.engine = engine
        self.sampler = sampler
        self.seed = seed
        if n_workers is None:
            n_workers = min(4, multiprocessing.cpu_count())
        self.n_workers = max(1, n_workers)
        self.poll_interval_s = poll_interval_s
        self.prefetch = max(1, prefetch)
        self.n_workers_used = 1
        # Parent-side observability (operational, not part of the
        # deterministic merge): chunk dispatch/complete counters + spans.
        # A recording tracer also traces the chunks: their engine stage
        # spans come back in each ChunkResult, whichever process ran it.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, deterministic=False).inc(amount)

    def run(
        self,
        chunks: Sequence[Chunk],
        on_chunk: Callable[[ChunkResult], bool],
        start_index: int = 0,
    ) -> None:
        """Process ``chunks[start_index:]`` until done or cancelled."""
        remaining = [c for c in chunks if c.index >= start_index]
        if not remaining:
            return
        n_workers = min(self.n_workers, len(remaining))
        use_fork = "fork" in multiprocessing.get_all_start_methods()
        if n_workers <= 1 or not use_fork:
            self.n_workers_used = 1
            if self.metrics is not None:
                self.metrics.gauge(
                    "scheduler_workers", deterministic=False
                ).set(1)
            for chunk in remaining:
                self._count("scheduler_chunks_dispatched_total")
                with self.tracer.span("chunk.run", chunk=chunk.index):
                    result = _run_chunk(
                        self.engine, self.sampler, self.seed, chunk,
                        trace=self.tracer.enabled,
                    )
                self._count("scheduler_chunks_completed_total")
                if not on_chunk(result):
                    return
            return
        self.n_workers_used = n_workers
        if self.metrics is not None:
            self.metrics.gauge("scheduler_workers", deterministic=False).set(
                n_workers
            )
        self._run_pool(remaining, on_chunk, n_workers)

    # ------------------------------------------------------------------
    # process pool
    # ------------------------------------------------------------------
    def _run_pool(self, remaining, on_chunk, n_workers) -> None:
        ctx = multiprocessing.get_context("fork")
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        processes = [
            ctx.Process(
                target=_chunk_worker,
                args=(
                    self.engine, self.sampler, self.seed,
                    self.tracer.enabled, f"fork-{i}", task_queue, result_queue,
                ),
                daemon=True,
            )
            for i in range(n_workers)
        ]
        for process in processes:
            process.start()

        feed = iter(remaining)
        outstanding = 0
        try:
            # Keep a bounded backlog so cancellation wastes little work.
            for _ in range(self.prefetch * n_workers):
                chunk = next(feed, None)
                if chunk is None:
                    break
                with self.tracer.span("chunk.dispatch", chunk=chunk.index):
                    task_queue.put((chunk.index, chunk.n_samples))
                self._count("scheduler_chunks_dispatched_total")
                outstanding += 1

            while outstanding:
                index, payload = self._next_result(result_queue, processes)
                outstanding -= 1
                if isinstance(payload, Exception):
                    raise EvaluationError(
                        f"worker failed on chunk {index}: {payload}"
                    ) from payload
                self._count("scheduler_chunks_completed_total")
                if not on_chunk(payload):
                    return  # cancel: the finally block tears the pool down
                chunk = next(feed, None)
                if chunk is not None:
                    # Past the prefetch backlog: this dispatch backfills an
                    # idle worker that just finished — a steal.
                    with self.tracer.span("chunk.steal", chunk=chunk.index):
                        task_queue.put((chunk.index, chunk.n_samples))
                    self._count("scheduler_chunks_dispatched_total")
                    self._count("scheduler_chunks_stolen_total")
                    outstanding += 1
            for _ in processes:
                task_queue.put(None)
            for process in processes:
                process.join(timeout=5)
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=5)
            # Don't block interpreter exit on unread queue buffers.
            task_queue.cancel_join_thread()
            result_queue.cancel_join_thread()
            task_queue.close()
            result_queue.close()

    def _next_result(self, result_queue, processes):
        """Poll for the next result while watching worker liveness.

        A worker that exits without posting (OOM-kill, segfault, ``kill
        -9``) would previously hang the parent in a bare ``queue.get()``.
        We give a dead worker one extra poll window for an already-piped
        result to surface, then fail the campaign.
        """
        saw_dead = False
        while True:
            try:
                return result_queue.get(timeout=self.poll_interval_s)
            except queue_mod.Empty:
                dead = [p for p in processes if not p.is_alive()]
                if not dead:
                    continue
                if saw_dead:
                    detail = ", ".join(
                        f"pid {p.pid} exitcode {p.exitcode}" for p in dead
                    )
                    raise EvaluationError(
                        f"campaign worker died without returning its chunk "
                        f"({detail})"
                    )
                saw_dead = True
