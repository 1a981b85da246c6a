"""Deterministic replay of logged campaign samples (tentpole pillar 3).

Runs a real campaign (full cross-level engine on the write-cfg
conformance design), then reconstructs individual samples purely from the
run directory + seed lineage and asserts bit-identity with the log.
"""

import dataclasses

import pytest

from repro import RandomSampler
from repro.campaign import CampaignRunner, CampaignSpec, RunStore, StoppingConfig
from repro.conformance import get_design, locate_sample, replay_sample
from repro.conformance.replay import ReplayedSample, count_samples
from repro.errors import EvaluationError

N_SAMPLES = 60
CHUNK_SIZE = 20


@pytest.fixture(scope="module")
def completed_run(small_context, tmp_path_factory):
    built = get_design("write-cfg").build(small_context)
    spec = CampaignSpec(
        benchmark="write",
        sampler="random",
        window=built.window,
        seed=31,
        chunk_size=CHUNK_SIZE,
        stopping=StoppingConfig(mode="fixed", n_samples=N_SAMPLES),
    )
    store = RunStore.create(tmp_path_factory.mktemp("runs"), spec)
    runner = CampaignRunner(
        spec,
        store=store,
        engine=built.engine,
        sampler=RandomSampler(built.spec),
        n_workers=1,
    )
    runner.run()
    return built, store


class TestReplay:
    def test_campaign_ran_through_the_batched_kernel(self, completed_run):
        """The campaign above ran SeedSequence-seeded chunks through
        ``run_batch``: the cycle cache saw traffic.  Every replay below
        reconstructs those samples one at a time — logs replay
        bit-identically on a batch of one and on the reference."""
        built, _ = completed_run
        hits, misses = built.engine.baseline_cache_stats
        assert misses > 0
        assert hits + misses > 0

    def test_batched_run_sample_replays_scalar_bit_identical(
        self, completed_run
    ):
        """Replay logged samples on the test-only per-sample reference,
        which shares no cache and no gate-level simulator with the engine
        that wrote the log."""
        built, store = completed_run
        from repro.core.engine import CrossLevelEngine

        from tests.core.scalar_reference import ScalarReference

        reference = ScalarReference(
            CrossLevelEngine(built.context, built.spec, observe=False)
        )
        for idx in (0, CHUNK_SIZE, N_SAMPLES - 1):
            outcome = replay_sample(
                store, idx,
                engine=reference,
                sampler=RandomSampler(built.spec),
            )
            assert outcome.bit_identical, (idx, outcome.diff())

    def test_every_probe_index_is_bit_identical(self, completed_run):
        built, store = completed_run
        assert count_samples(store) == N_SAMPLES
        # First/last of the run, a chunk boundary on both sides, and an
        # interior sample — all reconstructed without running neighbours.
        for idx in (0, CHUNK_SIZE - 1, CHUNK_SIZE, 37, N_SAMPLES - 1):
            outcome = replay_sample(
                store, idx,
                engine=built.engine,
                sampler=RandomSampler(built.spec),
            )
            assert outcome.bit_identical, (idx, outcome.diff())
            assert outcome.chunk_index == idx // CHUNK_SIZE
            assert outcome.chunk_offset == idx % CHUNK_SIZE
            assert outcome.diff() == []

    def test_locate_sample_walks_the_log(self, completed_run):
        _, store = completed_run
        chunk, offset, record = locate_sample(store, CHUNK_SIZE + 3)
        assert (chunk, offset) == (1, 3)
        assert record.e in (0, 1)

    def test_out_of_range_indices_raise(self, completed_run):
        _, store = completed_run
        with pytest.raises(EvaluationError, match="out of range"):
            locate_sample(store, N_SAMPLES)
        with pytest.raises(EvaluationError, match="non-negative"):
            locate_sample(store, -1)

    def test_divergence_is_detected_and_named(self, completed_run):
        """A runtime that does not match the spec must not replay clean —
        here the sampler draws from a wider window, so the temporal draw
        diverges and the diff names the fields."""
        built, store = completed_run
        from repro.attack.distributions import TemporalDistribution
        from repro.attack.spec import AttackSpec

        skewed = AttackSpec(
            technique=built.spec.technique,
            temporal=TemporalDistribution(built.window * 7),
            spatial=built.spec.spatial,
            radius=built.spec.radius,
        )
        outcomes = [
            replay_sample(
                store, idx, engine=built.engine, sampler=RandomSampler(skewed)
            )
            for idx in range(8)
        ]
        diverged = [o for o in outcomes if not o.bit_identical]
        assert diverged, "wider temporal window never changed a draw"
        assert all("t" in o.diff() for o in diverged)

    def test_replayed_sample_reporting(self):
        logged = {"t": 3, "e": 1}
        outcome = ReplayedSample(
            run_id="r", sample_index=0, chunk_index=0, chunk_offset=0,
            logged=logged, replayed={"t": 3, "e": 0},
        )
        assert not outcome.bit_identical
        assert outcome.diff() == ["e"]
        payload = outcome.to_dict()
        assert payload["bit_identical"] is False
        assert payload["diverging_fields"] == ["e"]
        clean = dataclasses.replace(outcome, replayed=dict(logged))
        assert clean.bit_identical and clean.diff() == []
