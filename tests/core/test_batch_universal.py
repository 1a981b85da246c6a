"""Universal batching: the equivalence matrix.

``CrossLevelEngine.run_batch`` is the engine's one kernel: it runs every
seed kind (``SeedSequence`` / int / ``Generator`` / ``None``) and any
``impact_cycles``, grouping samples by injection cycle and diverging to a
per-sample continuation only after a sample actually flips state.  This
suite compares it against the test-only per-sample reference
(:mod:`tests.core.scalar_reference`).

The matrix swept here:

* **seed kind** × **impact_cycles ∈ {1, 2, 3}** × **batch size** (around
  the uint64 lane-word boundary, plus a 257-sample run) × **technique
  variant** (voltage transient and pinpoint upsets);
* conformance-oracle runs through ``registry.build`` on the write-cfg
  design, so the differential harness' own construction path is covered;
* ``repro replay`` semantics: a multi-cycle campaign logged through the
  kernel must replay bit-identically on the reference, and
  ``run_sample`` (a batch of one) must leave every stream where the
  reference leaves it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_attack_spec
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    RunStore,
    StoppingConfig,
)
from repro.conformance import get_design, replay_sample
from repro.conformance.differential import build_samplers
from repro.core.engine import CrossLevelEngine
from repro.obs.metrics import deterministic_view
from repro.sampling import RandomSampler
from repro.utils.rng import as_generator, sample_seed_sequence

from tests.core.scalar_reference import ScalarReference

IMPACTS = (1, 2, 3)
SEED_KINDS = ("seedseq", "int", "generator")


def _seed_pair(kind: str, value: int):
    """Two independent-but-identical seeds of one kind.

    Generators are stateful, so the engine and reference runs each need
    their own twin; SeedSequence/int seeds are value-like but twins keep
    the call shape uniform.
    """
    if kind == "seedseq":
        return np.random.SeedSequence(value), np.random.SeedSequence(value)
    if kind == "int":
        return value, value
    if kind == "generator":
        return np.random.default_rng(value), np.random.default_rng(value)
    raise AssertionError(kind)


def _assert_results_identical(rb, rs):
    assert rb.records == rs.records
    assert rb.estimator.ssf == rs.estimator.ssf
    assert rb.estimator.variance == rs.estimator.variance
    assert rb.estimator.history == rs.estimator.history
    assert deterministic_view(rb.metrics) == deterministic_view(rs.metrics)


def _engaged(result) -> bool:
    """Did the batched kernel record its batch shapes?"""
    return any(m["name"] == "engine_batch_size" for m in (result.metrics or []))


@pytest.fixture(scope="module")
def transient_engines(small_context):
    """impact_cycles -> (engine, reference, sampler) on the transient spec.

    One spec per impact value: the engines share the session context but
    each spec owns its technique (``impact_cycles`` is a technique
    field)."""
    out = {}
    for impact in IMPACTS:
        spec = default_attack_spec(
            small_context, window=10, subblock_fraction=0.25
        )
        spec.technique.impact_cycles = impact
        batched = CrossLevelEngine(small_context, spec)
        scalar = ScalarReference(CrossLevelEngine(small_context, spec))
        out[impact] = (batched, scalar, RandomSampler(spec))
    return out


@pytest.fixture(scope="module")
def pinpoint_engines(small_context):
    """impact_cycles -> (engine, reference, samplers) via the conformance
    registry's own ``build`` path (the oracle harness)."""
    out = {}
    for impact in IMPACTS:
        built_b = get_design("write-cfg").build(small_context)
        built_s = get_design("write-cfg").build(small_context)
        built_b.spec.technique.impact_cycles = impact
        built_s.spec.technique.impact_cycles = impact
        out[impact] = (
            built_b.engine,
            ScalarReference(built_s.engine),
            dict(build_samplers(built_b)),
        )
    return out


# ----------------------------------------------------------------------
# the matrix: seed kind x impact_cycles x n x technique
# ----------------------------------------------------------------------
class TestUniversalMatrix:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
        kind=st.sampled_from(SEED_KINDS),
        impact=st.sampled_from(IMPACTS),
    )
    def test_transient(self, transient_engines, seed, n, kind, impact):
        batched, scalar, sampler = transient_engines[impact]
        sb, ss = _seed_pair(kind, seed)
        rb = batched.evaluate(sampler, n, seed=sb)
        rs = scalar.evaluate(sampler, n, seed=ss)
        _assert_results_identical(rb, rs)
        assert _engaged(rb)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
        kind=st.sampled_from(SEED_KINDS),
        impact=st.sampled_from(IMPACTS),
        sampler_name=st.sampled_from(("uniform", "importance")),
    )
    def test_pinpoint_conformance_oracle(
        self, pinpoint_engines, seed, n, kind, impact, sampler_name
    ):
        batched, scalar, samplers = pinpoint_engines[impact]
        sb, ss = _seed_pair(kind, seed)
        rb = batched.evaluate(samplers[sampler_name], n, seed=sb)
        rs = scalar.evaluate(samplers[sampler_name], n, seed=ss)
        # Conformance engines run observe=False (no metric registries),
        # exactly as the differential harness uses them.
        assert rb.records == rs.records
        assert rb.estimator.ssf == rs.estimator.ssf
        assert rb.estimator.history == rs.estimator.history

    def test_none_seed_engages_batched_kernel(self, transient_engines):
        """None-seed runs draw fresh OS entropy, so there is no reference
        twin to compare against — the contract is engagement plus a
        well-formed record stream."""
        batched, _, sampler = transient_engines[2]
        result = batched.evaluate(sampler, 20, seed=None)
        assert len(result.records) == 20
        assert _engaged(result)


# ----------------------------------------------------------------------
# batch shapes around the uint64 lane-word boundary, any impact
# ----------------------------------------------------------------------
class TestBatchShapes:
    @pytest.mark.parametrize("impact", [1, 2])
    @pytest.mark.parametrize("b", [1, 63, 64, 65])
    def test_lane_word_boundaries(self, transient_engines, b, impact):
        """run_batch over b samples == b reference run_sample calls on
        twin streams, for single- and multi-cycle techniques."""
        batched, scalar, sampler = transient_engines[impact]
        base = np.random.SeedSequence(5150 + 7 * b + impact)
        rngs_b = [as_generator(sample_seed_sequence(base, i)) for i in range(b)]
        samples = [sampler.sample(rng) for rng in rngs_b]
        got = batched.run_batch(samples, rngs_b)
        rngs_s = [as_generator(sample_seed_sequence(base, i)) for i in range(b)]
        for rng in rngs_s:
            sampler.sample(rng)  # consume the draw exactly as above
        expected = [
            scalar.run_sample(sample, rng)
            for sample, rng in zip(samples, rngs_s)
        ]
        assert got == expected

    def test_257_samples_int_seed_multi_cycle(self, pinpoint_engines):
        """The ISSUE's 257-sample row: shared-stream int seed, pinpoint
        technique, impact_cycles=2 — five lane words most cycles plus a
        ragged tail, evaluated bit-identically."""
        batched, scalar, samplers = pinpoint_engines[2]
        rb = batched.evaluate(samplers["uniform"], 257, seed=99)
        rs = scalar.evaluate(samplers["uniform"], 257, seed=99)
        assert rb.records == rs.records
        assert rb.estimator.ssf == rs.estimator.ssf

    def test_shared_stream_interleave_matches_scalar_consumption(
        self, transient_engines
    ):
        """The kernel pre-draws (sample_i, injections_i) pairs in the
        per-sample interleave, so a shared Generator stream stays
        bit-compatible; a direct spot-check on the stream position."""
        batched, scalar, sampler = transient_engines[3]
        rb = batched.evaluate(sampler, 17, seed=np.random.default_rng(41))
        rs = scalar.evaluate(sampler, 17, seed=np.random.default_rng(41))
        _assert_results_identical(rb, rs)


# ----------------------------------------------------------------------
# replay: run_sample is a batch of one
# ----------------------------------------------------------------------
class TestReplayNewPaths:
    @pytest.fixture(scope="class")
    def multi_cycle_run(self, small_context, tmp_path_factory):
        """A durable campaign through the multi-cycle kernel."""
        spec_obj = default_attack_spec(
            small_context, window=10, subblock_fraction=0.25
        )
        spec_obj.technique.impact_cycles = 2
        engine = CrossLevelEngine(small_context, spec_obj)
        spec = CampaignSpec(
            benchmark="write",
            sampler="random",
            window=10,
            subblock_fraction=0.25,
            impact_cycles=2,
            seed=47,
            chunk_size=20,
            stopping=StoppingConfig(mode="fixed", n_samples=60),
        )
        store = RunStore.create(tmp_path_factory.mktemp("runs"), spec)
        runner = CampaignRunner(
            spec,
            store=store,
            engine=engine,
            sampler=RandomSampler(spec_obj),
            n_workers=1,
        )
        runner.run()
        return engine, spec_obj, store

    def test_batched_multi_cycle_campaign_replays_bit_identical(
        self, multi_cycle_run
    ):
        engine, spec_obj, store = multi_cycle_run
        scalar = ScalarReference(CrossLevelEngine(engine.context, spec_obj))
        sampler = RandomSampler(spec_obj)
        for index in (0, 19, 20, 59):
            for replayer in (engine, scalar):
                replayed = replay_sample(
                    store, index, engine=replayer, sampler=sampler
                )
                assert replayed.logged == replayed.replayed

    @pytest.mark.parametrize("impact", [1, 2, 3])
    def test_run_sample_matches_reference_and_stream_position(
        self, transient_engines, impact
    ):
        """One sample at a time: identical records, and each stream left
        at the same position (a caller drawing on after ``run_sample`` —
        conformance replay — sees the same numbers)."""
        engine, scalar, sampler = transient_engines[impact]
        base = np.random.SeedSequence(8080 + impact)
        for i in range(40):
            rng_b = as_generator(sample_seed_sequence(base, i))
            rng_s = as_generator(sample_seed_sequence(base, i))
            sample = sampler.sample(rng_b)
            assert sampler.sample(rng_s) == sample
            assert engine.run_sample(sample, rng_b) == scalar.run_sample(
                sample, rng_s
            )
            assert rng_b.bit_generator.state == rng_s.bit_generator.state


class TestBatchFallback:
    def test_batched_run_emits_no_fallback_counter(self, transient_engines):
        """No scalar loop is left to fall back to: every ``evaluate``
        call runs the kernel (its batch shapes are recorded) and no
        fallback counter exists."""
        batched, _, sampler = transient_engines[1]
        result = batched.evaluate(sampler, 5, seed=11)
        names = {m["name"] for m in result.metrics}
        assert "engine_batch_size" in names
        assert "engine_batch_fallback_total" not in names
