"""Batched kernel ≡ per-sample reference, bit for bit.

``CrossLevelEngine.run_batch`` packs samples sharing an injection cycle
into one gate-level ``simulate_cycle_batch`` call over a cached cycle
baseline.  The contract is *bit-identity* with the per-sample flow kept
as a test-only oracle (:mod:`tests.core.scalar_reference`): identical
``SampleRecord`` streams, identical estimator state (Welford updates in
original sample order), and identical deterministic metric views — for
every sampler, seed, and batch shape.

Fast tier: the write-cfg conformance design (pinpoint upsets) and a
voltage-transient spec, both over the shared session context.  Full tier
(``REPRO_CONFORMANCE=full``): every registry design with its own context.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_attack_spec
from repro.conformance import DESIGNS, get_design
from repro.conformance.differential import build_samplers
from repro.core.engine import CrossLevelEngine
from repro.core.results import OutcomeCategory
from repro.obs.metrics import MetricsRegistry, deterministic_view
from repro.sampling import ImportanceSampler, RandomSampler
from repro.utils.rng import as_generator, sample_seed_sequence

from tests.core.scalar_reference import ScalarReference

FULL = os.environ.get("REPRO_CONFORMANCE") == "full"


def _engine_pair(context, spec):
    """(engine, reference) over one shared context + attack spec; the
    reference wraps an engine instance of its own."""
    return (
        CrossLevelEngine(context, spec),
        ScalarReference(CrossLevelEngine(context, spec)),
    )


@pytest.fixture(scope="module")
def pinpoint(small_context):
    """write-cfg design + (engine, reference) pair + named samplers."""
    built = get_design("write-cfg").build(small_context)
    batched, scalar = _engine_pair(built.context, built.spec)
    return built, batched, scalar, dict(build_samplers(built))


@pytest.fixture(scope="module")
def transient(small_context):
    """Voltage-transient spec (the pulse-propagation kernel) + engines."""
    spec = default_attack_spec(
        small_context, window=10, subblock_fraction=0.25
    )
    batched, scalar = _engine_pair(small_context, spec)
    samplers = {
        "uniform": RandomSampler(spec),
        "importance": ImportanceSampler(
            spec,
            small_context.characterization,
            placement=small_context.placement,
        ),
    }
    return spec, batched, scalar, samplers


def _assert_results_identical(rb, rs):
    assert rb.records == rs.records
    assert rb.estimator.ssf == rs.estimator.ssf
    assert rb.estimator.variance == rs.estimator.variance
    assert rb.estimator.history == rs.estimator.history
    assert deterministic_view(rb.metrics) == deterministic_view(rs.metrics)


# ----------------------------------------------------------------------
# property: any (seed, n, sampler) evaluates bit-identically
# ----------------------------------------------------------------------
class TestEvaluateEquivalenceProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        sampler_name=st.sampled_from(("uniform", "importance")),
    )
    def test_pinpoint_design(self, pinpoint, seed, n, sampler_name):
        _, batched, scalar, samplers = pinpoint
        sampler = samplers[sampler_name]
        rb = batched.evaluate(sampler, n, seed=np.random.SeedSequence(seed))
        rs = scalar.evaluate(sampler, n, seed=np.random.SeedSequence(seed))
        _assert_results_identical(rb, rs)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        sampler_name=st.sampled_from(("uniform", "importance")),
    )
    def test_transient_spec(self, transient, seed, n, sampler_name):
        _, batched, scalar, samplers = transient
        sampler = samplers[sampler_name]
        rb = batched.evaluate(sampler, n, seed=np.random.SeedSequence(seed))
        rs = scalar.evaluate(sampler, n, seed=np.random.SeedSequence(seed))
        _assert_results_identical(rb, rs)


# ----------------------------------------------------------------------
# ragged batch shapes around the uint64 lane-word boundary
# ----------------------------------------------------------------------
class TestRaggedBatches:
    @pytest.mark.parametrize("b", [1, 63, 64, 65])
    def test_lane_word_boundaries(self, transient, b):
        """B spanning one/partial/exactly-one/two uint64 words per cycle
        group must not change a single record."""
        _, batched, scalar, samplers = transient
        base = np.random.SeedSequence(20240 + b)
        rngs_b = [as_generator(sample_seed_sequence(base, i)) for i in range(b)]
        rngs_s = [as_generator(sample_seed_sequence(base, i)) for i in range(b)]
        sampler = samplers["uniform"]
        samples = [sampler.sample(rng) for rng in rngs_b]
        got = batched.run_batch(samples, rngs_b)
        # Twin streams: the reference re-draws identically.
        assert samples == [sampler.sample(rng) for rng in rngs_s]
        rngs_s = [as_generator(sample_seed_sequence(base, i)) for i in range(b)]
        for rng in rngs_s:
            sampler.sample(rng)  # consume the draw exactly as above
        expected = [
            scalar.run_sample(sample, rng)
            for sample, rng in zip(samples, rngs_s)
        ]
        assert got == expected

    def test_mixed_and_out_of_range_injection_cycles(self, transient):
        """One batch mixing several cycle groups plus out-of-window
        samples: grouping must preserve order and emit OUT_OF_RANGE
        records in place."""
        _, batched, scalar, samplers = transient
        base = np.random.SeedSequence(777)
        sampler = samplers["uniform"]
        target = batched.context.target_cycle
        ts = [0, 3, 0, target + 5, 7, 3, -(batched.context.n_cycles), 0]
        idx = range(len(ts))
        rngs = [as_generator(sample_seed_sequence(base, i)) for i in idx]
        samples = [
            dataclasses.replace(sampler.sample(rng), t=t)
            for t, rng in zip(ts, rngs)
        ]
        rngs_b = [as_generator(sample_seed_sequence(base, i)) for i in idx]
        rngs_s = [as_generator(sample_seed_sequence(base, i)) for i in idx]
        for rng_b, rng_s in zip(rngs_b, rngs_s):
            sampler.sample(rng_b)
            sampler.sample(rng_s)
        got = batched.run_batch(samples, rngs_b)
        expected = [
            scalar.run_sample(sample, rng)
            for sample, rng in zip(samples, rngs_s)
        ]
        assert got == expected
        out_of_range = [
            r for r in got if r.category is OutcomeCategory.OUT_OF_RANGE
        ]
        assert len(out_of_range) == 2


# ----------------------------------------------------------------------
# metrics: chunk merges and batched-only metric hygiene
# ----------------------------------------------------------------------
class TestMetrics:
    def test_chunk_merge_equality(self, pinpoint):
        """Merging per-chunk snapshots from engine runs equals the same
        merge over reference runs, on the deterministic view."""
        _, batched, scalar, samplers = pinpoint
        sampler = samplers["uniform"]
        merged = {}
        for engine, key in ((batched, "batched"), (scalar, "scalar")):
            registry = MetricsRegistry()
            for chunk_seed in (101, 202, 303):
                result = engine.evaluate(
                    sampler, 40, seed=np.random.SeedSequence(chunk_seed)
                )
                registry.merge_snapshot(result.metrics)
            merged[key] = deterministic_view(registry.snapshot())
        assert merged["batched"] == merged["scalar"]

    def test_batched_run_records_batch_metrics(self, pinpoint):
        _, batched, _, samplers = pinpoint
        result = batched.evaluate(
            samplers["uniform"], 50, seed=np.random.SeedSequence(4)
        )
        names = {m["name"] for m in result.metrics}
        assert "engine_batch_size" in names
        assert "engine_baseline_cache_total" in names
        assert "engine_baseline_cache_hit_ratio" in names
        # All batch-shape metrics are flagged non-deterministic, which is
        # exactly why the deterministic views above can compare equal.
        deterministic_names = {
            m["name"] for m in deterministic_view(result.metrics)
        }
        assert "engine_batch_size" not in deterministic_names
        assert "engine_baseline_cache_total" not in deterministic_names


# ----------------------------------------------------------------------
# gating + cache behaviour
# ----------------------------------------------------------------------
class TestGatingAndCache:
    def test_int_seed_engages_batched_kernel(self, pinpoint):
        """An int seed means one shared stream — the kernel pre-draws
        (sample, injections) pairs in the per-sample interleave, so
        shared-stream seeds batch too, bit-identically."""
        _, batched, scalar, samplers = pinpoint
        hits, misses = batched.baseline_cache_stats
        rb = batched.evaluate(samplers["uniform"], 30, seed=12345)
        rs = scalar.evaluate(samplers["uniform"], 30, seed=12345)
        _assert_results_identical(rb, rs)
        # Engagement: the cycle cache saw traffic from the batched run.
        assert batched.baseline_cache_stats != (hits, misses)
        assert any(m["name"] == "engine_batch_size" for m in rb.metrics)

    def test_multi_impact_cycles_batches(self, small_context):
        """impact_cycles > 1: samples stay batched while their RTL state
        tracks golden, diverging to a per-sample continuation on the
        first flip — still bit-identical to the reference."""
        spec = default_attack_spec(
            small_context, window=8, subblock_fraction=0.25
        )
        spec.technique.impact_cycles = 2
        batched, scalar = _engine_pair(small_context, spec)
        sampler = RandomSampler(spec)
        rb = batched.evaluate(sampler, 20, seed=np.random.SeedSequence(6))
        rs = scalar.evaluate(sampler, 20, seed=np.random.SeedSequence(6))
        _assert_results_identical(rb, rs)
        assert any(m["name"] == "engine_batch_size" for m in rb.metrics)

    def test_cache_engages_across_evaluate_calls(self, small_context):
        spec = default_attack_spec(
            small_context, window=6, subblock_fraction=0.25
        )
        engine = CrossLevelEngine(small_context, spec)
        sampler = RandomSampler(spec)
        engine.evaluate(sampler, 30, seed=np.random.SeedSequence(1))
        hits_first, misses_first = engine.baseline_cache_stats
        assert misses_first <= 6
        engine.evaluate(sampler, 30, seed=np.random.SeedSequence(2))
        hits_second, misses_second = engine.baseline_cache_stats
        # Same 6-cycle window: the second call re-hits the cached cycles.
        assert misses_second == misses_first
        assert hits_second > hits_first


# ----------------------------------------------------------------------
# full tier: every registry design
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not FULL, reason="set REPRO_CONFORMANCE=full to run the full registry"
)
@pytest.mark.parametrize("name", [d.name for d in DESIGNS])
def test_full_registry_equivalence(name):
    built = get_design(name).build()
    batched, scalar = _engine_pair(built.context, built.spec)
    for sampler_name, sampler in build_samplers(built):
        for seed in (3, 17):
            rb = batched.evaluate(
                sampler, 400, seed=np.random.SeedSequence(seed)
            )
            rs = scalar.evaluate(
                sampler, 400, seed=np.random.SeedSequence(seed)
            )
            _assert_results_identical(rb, rs)
