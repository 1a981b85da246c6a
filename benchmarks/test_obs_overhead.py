"""Observability overhead guards.

Two budgets, one workload (Fig. 9):

1. **Single-node default** — the engine's hot path is instrumented by
   default (``observe=True``): a metrics registry records each batch
   and a ``StageClock`` takes one ``perf_counter`` lap per stage
   boundary.  That default must cost < 3% against a fully-unobserved
   engine (``observe=False``).

2. **Fleet telemetry path** — a fleet worker additionally turns each
   chunk's stage laps into spans, times the chunk under a recording
   tracer bound to the lease context, and packages spans + metrics +
   logs into the shipping bundle (:class:`repro.fleet.worker._ChunkObs`).
   That full worker-side telemetry pipeline must cost < 5% against the
   same worker loop with shipping disabled.

Each side runs on an engine of its own, and the two are timed in
interleaved pairs.  Pair ``i`` runs both sides on seed ``FIRST_SEED +
i``: the same work on both sides, and work neither engine has done
before, so the timed runs draw, simulate and classify instead of
answering from the outcome memo a repeated seed would fill.  Each pair
alternates which side goes first, and the guard compares the median of
the per-pair ratios: host noise that hits one run of one pair moves one
ratio, not the verdict.
"""

import statistics
import time

from repro import (
    CrossLevelEngine,
    ImportanceSampler,
    default_attack_spec,
)
from repro.obs.tracing import lap_spans

N_SAMPLES = 1500
PAIRS = 15
FIRST_SEED = 1000
WARMUP_SEED = 77
MAX_OVERHEAD = 0.03
MAX_FLEET_OVERHEAD = 0.05


def build(context, observe):
    spec = default_attack_spec(context, window=50)
    engine = CrossLevelEngine(context, spec, observe=observe)
    sampler = ImportanceSampler(
        spec, context.characterization, placement=context.placement
    )
    return engine, sampler


def timed_run(engine, sampler, seed):
    start = time.perf_counter()
    result = engine.evaluate(sampler, N_SAMPLES, seed=seed)
    return time.perf_counter() - start, result


def paired_runs(run_plain, run_observed):
    """Time ``PAIRS`` interleaved pairs; returns the per-pair
    ``(plain_s, observed_s)`` and the last pair's two results.

    ``run_*(seed) -> (seconds, result, ...)``.  Pair ``i`` gives both
    sides seed ``FIRST_SEED + i``, and odd pairs run the observed side
    first.
    """
    times = []
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        if i % 2:
            observed = run_observed(seed)
            plain = run_plain(seed)
        else:
            plain = run_plain(seed)
            observed = run_observed(seed)
        # The two sides must describe the same work, pair by pair.
        assert observed[1].ssf == plain[1].ssf
        times.append((plain[0], observed[0]))
    return times, plain, observed


def median_overhead(times) -> float:
    return statistics.median(obs / plain for plain, obs in times) - 1.0


def test_noop_observability_overhead_under_budget(write_context, emit):
    plain_engine, plain_sampler = build(write_context, observe=False)
    obs_engine, obs_sampler = build(write_context, observe=True)

    # Warm caches (golden state, characterization lookups) off the clock.
    timed_run(plain_engine, plain_sampler, WARMUP_SEED)
    timed_run(obs_engine, obs_sampler, WARMUP_SEED)

    times, (_, plain_result), (_, obs_result) = paired_runs(
        lambda seed: timed_run(plain_engine, plain_sampler, seed),
        lambda seed: timed_run(obs_engine, obs_sampler, seed),
    )

    # Observability must not change the estimate, only describe it.
    assert obs_result.ssf == plain_result.ssf
    assert plain_result.metrics is None
    assert obs_result.metrics is not None

    overhead = median_overhead(times)

    emit(
        "obs_overhead",
        "\n".join(
            [
                "No-op observability overhead "
                f"({N_SAMPLES} samples, median of {PAIRS} paired ratios)",
                "  unobserved engine : "
                f"{statistics.median(p for p, _ in times):.3f} s (median)",
                "  observed (default): "
                f"{statistics.median(o for _, o in times):.3f} s (median)",
                f"  overhead          : {100 * overhead:+.2f} % "
                f"(budget {100 * MAX_OVERHEAD:.0f} %)",
            ]
        ),
    )
    assert overhead < MAX_OVERHEAD, (
        f"default observability costs {100 * overhead:.2f} % "
        f"(> {100 * MAX_OVERHEAD:.0f} % budget) on the Fig. 9 workload"
    )


def fleet_chunk(engine, sampler, telemetry, seed):
    """One worker-side chunk turn: evaluate, and (optionally) run the
    full telemetry pipeline — the chunk's stage spans, chunk span, log
    record, and the shipped bundle build — exactly what
    ``FleetWorker._serve`` adds over the plain evaluation."""
    from repro.fleet.worker import _ChunkObs

    obs = None
    if telemetry:
        grant = {
            "trace_id": "bench", "run_id": "bench", "lease_id": "L1",
            "chunk": 0,
        }
        obs = _ChunkObs("bench-worker", grant, lease_wait_s=0.01)
    start = time.perf_counter()
    result = engine.evaluate(sampler, N_SAMPLES, seed=seed)
    duration_s = time.perf_counter() - start
    bundle = None
    if obs is not None:
        obs.chunk_spans = lap_spans(result.laps, chunk=0)
        obs.tracer.add_event(
            "chunk.evaluate", start, duration_s,
            n_samples=N_SAMPLES, **obs.context,
        )
        obs.logs.info("chunk evaluated", n_samples=N_SAMPLES)
        bundle = obs.bundle([])
    total = time.perf_counter() - start
    return total, result, bundle


def test_fleet_telemetry_overhead_under_budget(write_context, emit):
    # One engine per side, so a pair's second run cannot answer from
    # the outcome memo its first run filled.
    plain_engine, plain_sampler = build(write_context, observe=True)
    obs_engine, obs_sampler = build(write_context, observe=True)

    # Warm caches off the clock.
    fleet_chunk(plain_engine, plain_sampler, False, WARMUP_SEED)
    fleet_chunk(obs_engine, obs_sampler, True, WARMUP_SEED)

    times, (_, plain_result, _), (_, shipped_result, bundle) = paired_runs(
        lambda seed: fleet_chunk(plain_engine, plain_sampler, False, seed),
        lambda seed: fleet_chunk(obs_engine, obs_sampler, True, seed),
    )

    # Telemetry describes the work without changing it, and the bundle
    # actually carries the correlated spans it promises.
    assert shipped_result.ssf == plain_result.ssf
    assert bundle["spans"], "telemetry run must ship spans"
    assert any(
        span["name"] == "chunk.evaluate" for span in bundle["spans"]
    )
    assert bundle["logs"], "telemetry run must ship log records"

    overhead = median_overhead(times)

    emit(
        "obs_fleet_overhead",
        "\n".join(
            [
                "Fleet telemetry-shipping overhead "
                f"({N_SAMPLES} samples, median of {PAIRS} paired ratios)",
                "  no shipping       : "
                f"{statistics.median(p for p, _ in times):.3f} s (median)",
                "  tracer + bundle   : "
                f"{statistics.median(o for _, o in times):.3f} s (median)",
                f"  spans in bundle   : {len(bundle['spans'])}",
                f"  overhead          : {100 * overhead:+.2f} % "
                f"(budget {100 * MAX_FLEET_OVERHEAD:.0f} %)",
            ]
        ),
    )
    assert overhead < MAX_FLEET_OVERHEAD, (
        f"fleet telemetry shipping costs {100 * overhead:.2f} % "
        f"(> {100 * MAX_FLEET_OVERHEAD:.0f} % budget) on the Fig. 9 "
        "workload"
    )
