"""Engine-level metric recording: one vocabulary, two sources.

The *deterministic* metrics (outcome counters, masking funnel, flipped-bit
histogram) are pure functions of the :class:`~repro.core.results.SampleRecord`
stream, and :func:`metrics_from_records` is their one producer: the engine
calls it once per batch, and a resumed campaign calls it on a persisted
chunk log — which is how it reconstructs bit-identical merged metrics for
chunks that ran before the crash, and how chunk results from
uninstrumented engines (test stubs, old logs) still contribute.

The *wall-clock* metrics (stage/sample seconds, slowest-sample top-k) only
exist when the engine observes live; they are flagged non-deterministic
and excluded from cross-run equality comparisons.

Metric names (the contract rendered by ``repro obs report`` and documented
in ``docs/architecture.md``):

========================================  =========  ==============================
``engine_samples_total``                  counter    samples evaluated
``engine_outcomes_total{category}``       counter    Fig. 5 outcome category
``engine_success_total``                  counter    successful attacks (e = 1)
``engine_pulses_injected_total``          counter    SET pulses injected
``engine_pulses_latched_total``           counter    pulses that reached a latch
``engine_analytical_evals_total``         counter    analytical fast-path hits
``engine_rtl_resumes_total``              counter    full RTL resumes
``engine_funnel_total{stage}``            counter    masking funnel (see FUNNEL_STAGES)
``engine_flipped_bits``                   histogram  latched-wrong bits per sample
``engine_stage_seconds{stage}``           histogram  per-stage wall time
``engine_sample_seconds``                 histogram  whole-sample wall time
``engine_slowest_samples``                topk       slowest samples with attrs
``engine_batch_size``                     histogram  samples per dispatched batch
``engine_baseline_cache_total{outcome}``  counter    cycle-baseline cache hit/miss
``engine_baseline_cache_hit_ratio``       gauge      lifetime cache hit ratio
``engine_batch_seconds``                  histogram  whole-batch wall time
``engine_baseline_store_total{outcome}``  counter    persistent baseline store hit/miss/write/rejected
``engine_baseline_store_hit_ratio``       gauge      lifetime persistent-store hit ratio
========================================  =========  ==============================

The batch/cache metrics describe *how* the kernel executed, not *what* it
computed: batch composition depends on chunk boundaries and the cache on
engine lifetime (worker count), so all of them are flagged
non-deterministic and excluded from the deterministic view — which is
exactly why runs of one spec under different worker counts, or
interrupted and resumed, still compare equal on
:func:`~repro.obs.metrics.deterministic_view`.
"""

from __future__ import annotations

import heapq
import operator
from typing import Dict, Iterable, Optional, Tuple

from repro.core.results import OutcomeCategory, SampleRecord
from repro.obs.metrics import (
    BIT_COUNT_BUCKETS,
    MetricsRegistry,
    SECONDS_BUCKETS,
)

#: Stages a sample passes through, in funnel order: each row counts the
#: samples that made it *at least* this far into the Fig. 5 flow.
FUNNEL_STAGES: Tuple[str, ...] = (
    "sampled",       # drawn from the strategy
    "in_window",     # injection cycle inside the simulated run
    "injected",      # at least one transient pulse generated
    "latched",       # at least one register bit latched wrong
    "memory_only",   # all faulty bits memory-type (analytical candidates)
    "needs_rtl",     # computation-type bits hit: RTL resume required
    "success",       # malicious operation committed and undetected
)

#: Per-sample engine stages, in pipeline order (span + histogram labels).
STAGES: Tuple[str, ...] = (
    "draw",          # sampling strategy draw
    "restart",       # the injection cycle's shared gate-level baseline
    "rtl_step",      # stepping the injection cycle(s) at RTL
    "transient",     # transient generation + gate-level propagation + latch
    "writeback",     # latched errors written back into the RTL state
    "classify",      # memory-type vs computation-type classification
    "analytical",    # analytical (no-resume) evaluation
    "rtl_resume",    # resumed RTL simulation to the end of the benchmark
    "compare",       # final-state comparison against the golden outcome
)

SLOWEST_SAMPLES_K = 10

_OUT_OF_RANGE = OutcomeCategory.OUT_OF_RANGE
_MEMORY_ONLY = OutcomeCategory.MEMORY_ONLY
_NEEDS_RTL = OutcomeCategory.NEEDS_RTL

#: Edges for per-dispatch batch sizes (integer-valued observations).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5, 128.5, 256.5,
)


def observe_batch(
    registry: MetricsRegistry,
    group_sizes: Iterable[int],
    cache_hits: int,
    cache_misses: int,
) -> None:
    """Record how one run_batch call decomposed into cycle groups.

    ``cache_hits`` / ``cache_misses`` are the deltas this call produced
    (counters sum cleanly across chunks; the ratio gauge reflects the
    registry's running totals).  Everything here depends on chunk
    boundaries and engine lifetime, so it is non-deterministic by
    contract (see the module docstring).
    """
    for size in group_sizes:
        registry.histogram(
            "engine_batch_size", BATCH_SIZE_BUCKETS, deterministic=False
        ).observe(size)
    hits = registry.counter(
        "engine_baseline_cache_total", deterministic=False, outcome="hit"
    )
    misses = registry.counter(
        "engine_baseline_cache_total", deterministic=False, outcome="miss"
    )
    hits.inc(cache_hits)
    misses.inc(cache_misses)
    total = hits.value + misses.value
    if total:
        registry.gauge(
            "engine_baseline_cache_hit_ratio", deterministic=False
        ).set(hits.value / total)


def observe_baseline_store(
    registry: MetricsRegistry,
    hits: int,
    misses: int,
    rejected: int = 0,
    writes: int = 0,
) -> None:
    """Record persistent baseline-store traffic deltas for one batch.

    Mirrors :func:`observe_batch`'s cache counters one level down the
    hierarchy: the engine's in-memory cache fronts the on-disk store,
    so a store hit means "golden gate evaluation skipped across
    processes".  ``rejected`` counts artifacts discarded on load because
    their fingerprint, precharacterization or format version no longer
    matches (each rejection is also a miss).  Store traffic depends on
    what earlier campaigns left on disk, so everything here is
    non-deterministic.
    """
    if not (hits or misses or rejected or writes):
        return
    hit_counter = registry.counter(
        "engine_baseline_store_total", deterministic=False, outcome="hit"
    )
    miss_counter = registry.counter(
        "engine_baseline_store_total", deterministic=False, outcome="miss"
    )
    hit_counter.inc(hits)
    miss_counter.inc(misses)
    if rejected:
        registry.counter(
            "engine_baseline_store_total", deterministic=False, outcome="rejected"
        ).inc(rejected)
    if writes:
        registry.counter(
            "engine_baseline_store_total", deterministic=False, outcome="write"
        ).inc(writes)
    total = hit_counter.value + miss_counter.value
    if total:
        registry.gauge(
            "engine_baseline_store_hit_ratio", deterministic=False
        ).set(hit_counter.value / total)


def observe_slowest_samples(
    registry: MetricsRegistry, timings: Iterable[Tuple[float, SampleRecord]]
) -> None:
    """Offer one batch's slowest diverged samples to the top-k.

    ``timings`` pairs each diverged sample's wall time with its record.
    In the batched regime the draw/restart/transient stages are amortized
    (see :func:`observe_batch_timing`); the classify/resume tail is the
    only genuinely per-sample cost — and it is what makes a sample slow —
    so it is what the slowest-samples table ranks on.  Only the batch's
    ``SLOWEST_SAMPLES_K`` slowest can enter the table, so only they are
    offered.
    """
    slowest = heapq.nlargest(
        SLOWEST_SAMPLES_K, timings, key=operator.itemgetter(0)
    )
    if not slowest:
        return
    top = registry.topk(
        "engine_slowest_samples", k=SLOWEST_SAMPLES_K, deterministic=False
    )
    for seconds, record in slowest:
        top.offer(
            seconds,
            t=record.sample.t,
            centre=record.sample.centre,
            radius_um=record.sample.radius_um,
            category=record.category.value,
        )


def observe_batch_timing(
    registry: MetricsRegistry,
    stage_totals: Dict[str, float],
    batch_seconds: float,
    batch_size: int,
) -> None:
    """Record the wall-clock metrics of one batched evaluate call.

    Stage histograms get one coarse observation per batch (the batched
    kernel amortizes stages across samples, so per-sample laps do not
    exist); ``engine_sample_seconds`` records the amortized per-sample
    cost so throughput reporting keeps working on batched runs.
    """
    for stage, seconds in stage_totals.items():
        registry.histogram(
            "engine_stage_seconds", SECONDS_BUCKETS, stage=stage
        ).observe(seconds)
    registry.histogram("engine_batch_seconds", SECONDS_BUCKETS).observe(
        batch_seconds
    )
    if batch_size > 0:
        registry.histogram("engine_sample_seconds", SECONDS_BUCKETS).observe(
            batch_seconds / batch_size
        )


def metrics_from_records(
    records: Iterable[SampleRecord],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Record the deterministic engine metrics of a record stream.

    The one producer of those metrics: the engine calls it once per
    batch, and a resumed campaign rebuilds a logged chunk's metrics with
    it.  One pass tallies the records, then each collector is updated
    once; a collector whose tally is zero is not created.
    """
    registry = registry if registry is not None else MetricsRegistry()
    n_samples = n_success = n_analytical = n_resumes = 0
    pulses_injected = pulses_latched = 0
    categories: Dict[OutcomeCategory, int] = {}
    funnel = dict.fromkeys(FUNNEL_STAGES, 0)
    flipped_bits: Dict[int, int] = {}
    for record in records:
        category = record.category
        n_samples += 1
        categories[category] = categories.get(category, 0) + 1
        if record.e:
            n_success += 1
        pulses_injected += record.n_pulses_injected
        pulses_latched += record.n_pulses_latched
        if record.analytical:
            n_analytical += 1
        elif category is _NEEDS_RTL or category is _MEMORY_ONLY:
            n_resumes += 1
        if category is _OUT_OF_RANGE:
            continue
        funnel["in_window"] += 1
        if record.n_pulses_injected:
            funnel["injected"] += 1
        if record.flipped_bits:
            funnel["latched"] += 1
            n_bits = len(record.flipped_bits)
            flipped_bits[n_bits] = flipped_bits.get(n_bits, 0) + 1
        if category is _MEMORY_ONLY:
            funnel["memory_only"] += 1
        elif category is _NEEDS_RTL:
            funnel["needs_rtl"] += 1
        if record.e:
            funnel["success"] += 1
    funnel["sampled"] = n_samples

    counter = registry.counter
    for name, total in (
        ("engine_samples_total", n_samples),
        ("engine_success_total", n_success),
        ("engine_pulses_injected_total", pulses_injected),
        ("engine_pulses_latched_total", pulses_latched),
        ("engine_analytical_evals_total", n_analytical),
        ("engine_rtl_resumes_total", n_resumes),
    ):
        if total:
            counter(name).inc(total)
    for category, total in categories.items():
        counter("engine_outcomes_total", category=category.value).inc(total)
    for stage, total in funnel.items():
        if total:
            counter("engine_funnel_total", stage=stage).inc(total)
    if flipped_bits:
        histogram = registry.histogram("engine_flipped_bits", BIT_COUNT_BUCKETS)
        for n_bits, total in flipped_bits.items():
            histogram.observe(n_bits, total)
    return registry
