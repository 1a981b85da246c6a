"""Batched-kernel speedup guard (PR 5 satellite, v2 in PR 9).

Measures the batched ``run_batch`` campaign path against the scalar
reference on three workloads over the largest bundled conformance
design's context:

* ``write-wide`` — the pinpoint design itself (8 bits, window 10), where
  the win is the amortized RTL restart/step + shared cycle baseline +
  the post-divergence outcome-dedup cache;
* ``write-transient`` — a voltage-transient spec on the same context,
  which additionally exercises gate-level propagation (both paths run
  the same fanout-cone kernel per sample, so the win is the amortized
  RTL restart/step and the shared cycle baseline);
* ``write-transient-mc2`` — the same transient spec at
  ``impact_cycles=2``, covering the multi-cycle batching path (samples
  stay batched while golden, diverge to scalar continuations on flip).

Both runs of every workload must return *identical* records (the
equivalence suite proves this in depth; here it guards the
measurement), the batched path must never be slower — including the
multi-cycle workload in quick mode — and in full mode the design
workload must clear the 10× bar.

A second section benchmarks the persistent baseline store: two engine
lifetimes over one artifact root, where the second run must warm-start
with a store hit ratio of 1.0 and a bit-identical SSF.

Results go to ``benchmarks/results/BENCH_batch.json`` (payload version
2: adds the multi-cycle row and the store hit ratios) so CI can archive
the numbers and trend them across commits.

``REPRO_BENCH_QUICK=1`` shrinks the sample budget for the CI smoke job.
"""

import json
import os
import pathlib
import shutil
import tempfile
import time

import numpy as np
import pytest

from repro import (
    CrossLevelEngine,
    ImportanceSampler,
    default_attack_spec,
)
from repro.conformance import get_design
from repro.conformance.differential import build_samplers
from repro.core.engine import EngineConfig
from repro.service.artifacts import ArtifactStore, baseline_store_for

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_SAMPLES = 400 if QUICK else 2000
REPEATS = 1 if QUICK else 3
SEED = 2024
MIN_SPEEDUP = 1.0           # batched must never lose (every workload)
FULL_DESIGN_SPEEDUP = 10.0  # acceptance bar on the largest design


@pytest.fixture(scope="module")
def wide_design():
    """write-wide: the largest bundled conformance design, own context."""
    return get_design("write-wide").build()


def _measure(engine, sampler, n):
    """Min-of-REPEATS wall time (plus the result of the last run)."""
    best, result = None, None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = engine.evaluate(
            sampler, n, seed=np.random.SeedSequence(SEED)
        )
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best, result


def _bench_workload(name, context, spec, sampler, n):
    scalar = CrossLevelEngine(
        context, spec, config=EngineConfig(batch=False), observe=False
    )
    batched = CrossLevelEngine(
        context, spec, config=EngineConfig(batch=True), observe=False
    )
    # Warm-up off the clock: golden state, characterization lookups, and
    # the batched engine's cycle-baseline cache (steady-state throughput
    # is what campaigns see — one engine lives per scheduler worker).
    _measure(scalar, sampler, min(n, 100))
    _measure(batched, sampler, min(n, 100))
    hits0, misses0 = batched.baseline_cache_stats

    scalar_s, scalar_result = _measure(scalar, sampler, n)
    batched_s, batched_result = _measure(batched, sampler, n)

    assert batched_result.records == scalar_result.records, (
        f"{name}: batched kernel diverged from the scalar reference"
    )
    hits, misses = batched.baseline_cache_stats
    delta_hits, delta_misses = hits - hits0, misses - misses0
    total = delta_hits + delta_misses
    return {
        "workload": name,
        "n_samples": n,
        "scalar_samples_per_s": round(n / scalar_s, 1),
        "batched_samples_per_s": round(n / batched_s, 1),
        "speedup": round(scalar_s / batched_s, 2),
        "cache_hit_ratio": round(delta_hits / total, 4) if total else None,
        "ssf": scalar_result.ssf,
    }


def _bench_baseline_store(context, spec, sampler, n):
    """Two engine lifetimes over one artifact root: cold, then warm."""
    root = tempfile.mkdtemp(prefix="bench-baselines-")
    try:
        def run():
            store = baseline_store_for(
                ArtifactStore(root),
                benchmark="write",
                variant="none",
                netlist=context.netlist,
            )
            engine = CrossLevelEngine(
                context,
                spec,
                config=EngineConfig(batch=True),
                observe=False,
                baseline_store=store,
            )
            engine.warm_baseline_cache()
            start = time.perf_counter()
            result = engine.evaluate(
                sampler, n, seed=np.random.SeedSequence(SEED)
            )
            seconds = time.perf_counter() - start
            total = store.hits + store.misses
            ratio = store.hits / total if total else None
            return result, seconds, ratio

        cold_result, cold_s, cold_ratio = run()
        warm_result, warm_s, warm_ratio = run()
        assert warm_result.records == cold_result.records, (
            "baseline store changed the record stream"
        )
        assert warm_ratio == 1.0, (
            f"second run must serve every cycle from the store, "
            f"got hit ratio {warm_ratio}"
        )
        return {
            "n_samples": n,
            "cold_hit_ratio": cold_ratio,
            "warm_hit_ratio": warm_ratio,
            "cold_seconds": round(cold_s, 3),
            "warm_seconds": round(warm_s, 3),
            "ssf_identical": warm_result.ssf == cold_result.ssf,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_batched_kernel_speedup(wide_design, emit):
    context = wide_design.context
    rows = []

    samplers = dict(build_samplers(wide_design))
    rows.append(
        _bench_workload(
            "write-wide", context, wide_design.spec,
            samplers["importance"], N_SAMPLES,
        )
    )

    transient_spec = default_attack_spec(
        context, window=10, subblock_fraction=0.25
    )
    transient_sampler = ImportanceSampler(
        transient_spec,
        context.characterization,
        placement=context.placement,
    )
    rows.append(
        _bench_workload(
            "write-transient", context, transient_spec,
            transient_sampler, N_SAMPLES,
        )
    )

    multi_spec = default_attack_spec(
        context, window=10, subblock_fraction=0.25
    )
    multi_spec.technique.impact_cycles = 2
    rows.append(
        _bench_workload(
            "write-transient-mc2", context, multi_spec,
            ImportanceSampler(
                multi_spec,
                context.characterization,
                placement=context.placement,
            ),
            N_SAMPLES,
        )
    )

    store = _bench_baseline_store(
        context, transient_spec, transient_sampler, min(N_SAMPLES, 400)
    )

    payload = {
        "bench": "batch_speedup",
        "version": 2,
        "quick": QUICK,
        "repeats": REPEATS,
        "workloads": rows,
        "baseline_store": store,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_batch.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        f"Batched kernel speedup ({N_SAMPLES} samples, min of {REPEATS}"
        f"{', quick' if QUICK else ''})"
    ]
    for row in rows:
        lines.append(
            f"  {row['workload']:<20} scalar {row['scalar_samples_per_s']:>8}/s"
            f"  batched {row['batched_samples_per_s']:>8}/s"
            f"  speedup {row['speedup']:>5}x"
            f"  cache hit ratio {row['cache_hit_ratio']}"
        )
    lines.append(
        f"  baseline store        cold ratio {store['cold_hit_ratio']}"
        f"  warm ratio {store['warm_hit_ratio']}"
        f"  ssf identical {store['ssf_identical']}"
    )
    emit("batch_speedup", "\n".join(lines))

    for row in rows:
        assert row["speedup"] >= MIN_SPEEDUP, row
    assert store["ssf_identical"]
    if not QUICK:
        assert rows[0]["speedup"] >= FULL_DESIGN_SPEEDUP, rows[0]
