"""Multi-worker campaigns without a run store.

``repro evaluate --workers N`` runs the campaign scheduler with no run
store over ``ceil(n / 4N)``-sample chunks, chunk ``i`` on the ``i``-th
spawned child of the seed.  These tests drive that path: on the real
cross-level engine for the merge and the seed tree, and on stub engines
for seed-stream separation and worker failures (which the scheduler
itself also covers in ``tests/campaign/test_scheduler.py``).
"""

import multiprocessing
import os

import pytest

from repro import RandomSampler, default_attack_spec
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    StoppingConfig,
    chunk_seed_sequence,
)
from repro.cli import main
from repro.core.engine import CrossLevelEngine
from repro.errors import EvaluationError

from tests.campaign.stubs import BernoulliEngine, StubSampler

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def run_storeless(engine, sampler, n_samples, seed, n_workers, chunk_size):
    spec = CampaignSpec(
        seed=seed,
        chunk_size=chunk_size,
        stopping=StoppingConfig(n_samples=n_samples),
    )
    return CampaignRunner(
        spec,
        store=None,
        engine=engine,
        sampler=sampler,
        n_workers=n_workers,
        poll_interval_s=0.1,
    ).run()


class TestParallelEvaluate:
    @pytest.fixture(scope="class")
    def engine(self, small_context):
        spec = default_attack_spec(small_context, window=10)
        return CrossLevelEngine(small_context, spec), spec

    def test_single_worker_falls_back(self, engine):
        """One worker runs the chunks in-process: the records are
        chunk-by-chunk ``evaluate`` calls on the spawned chunk streams."""
        eng, spec = engine
        result = run_storeless(
            eng, RandomSampler(spec), 40, seed=5, n_workers=1, chunk_size=15
        )
        expected = []
        for index, size in enumerate((15, 15, 10)):
            expected += eng.evaluate(
                RandomSampler(spec), size, seed=chunk_seed_sequence(5, index)
            ).records
        assert result.records == expected

    @needs_fork
    def test_two_workers_complete_and_merge(self, engine):
        eng, spec = engine
        result = run_storeless(
            eng, RandomSampler(spec), 60, seed=5, n_workers=2, chunk_size=8
        )
        assert result.n_samples == 60
        assert 0.0 <= result.ssf <= 1.0

    @needs_fork
    def test_deterministic_given_layout(self, engine):
        """Given the chunk size, the worker count does not change a
        record, the estimate or its variance."""
        eng, spec = engine
        one = run_storeless(
            eng, RandomSampler(spec), 50, seed=9, n_workers=1, chunk_size=7
        )
        two = run_storeless(
            eng, RandomSampler(spec), 50, seed=9, n_workers=2, chunk_size=7
        )
        assert two.records == one.records
        assert two.ssf == one.ssf
        assert two.variance == one.variance

    @needs_fork
    def test_estimator_merge_consistent(self, engine):
        """The merged estimator must equal pushing all records in order."""
        eng, spec = engine
        result = run_storeless(
            eng, RandomSampler(spec), 50, seed=2, n_workers=2, chunk_size=7
        )
        manual = sum(r.sample.weight * r.e for r in result.records) / len(
            result.records
        )
        assert result.ssf == pytest.approx(manual)

    def test_invalid_sample_count(self, capsys):
        """``repro evaluate -n 0 --workers 2`` is an ``error:`` before
        any context build."""
        assert main(["evaluate", "-n", "0", "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "n_samples must be positive" in err


@needs_fork
class TestSeedPolicyRegression:
    """A ``seed + worker_index`` derivation collides across campaigns:
    (seed=0, worker=1) would reuse (seed=1, worker=0)'s stream."""

    def draws(self, seed):
        result = run_storeless(
            BernoulliEngine(p=0.5), StubSampler(), 40,
            seed=seed, n_workers=2, chunk_size=20,
        )
        return [(r.sample.t, r.sample.centre, r.e) for r in result.records]

    def test_adjacent_campaign_seeds_share_no_stream(self):
        a = self.draws(0)
        b = self.draws(1)
        # Spawned SeedSequence children make every chunk stream distinct.
        assert a[:20] != b[:20]
        assert a[20:] != b[:20]
        assert a[:20] != b[20:]

    def test_worker_count_invariant_given_chunk_size(self):
        two = run_storeless(
            BernoulliEngine(), StubSampler(), 60,
            seed=5, n_workers=2, chunk_size=10,
        )
        four = run_storeless(
            BernoulliEngine(), StubSampler(), 60,
            seed=5, n_workers=4, chunk_size=10,
        )
        assert two.ssf == four.ssf
        assert [r.e for r in two.records] == [r.e for r in four.records]


@needs_fork
class TestDeadWorkerDetection:
    """A worker that dies without posting a result (e.g. OOM-kill) must
    fail the run instead of hanging the parent."""

    def test_killed_worker_raises_instead_of_hanging(self):
        class DyingEngine:
            def evaluate(self, sampler, n_samples, seed=None, progress=None):
                os._exit(9)

        with pytest.raises(EvaluationError, match="died"):
            run_storeless(
                DyingEngine(), StubSampler(), 40,
                seed=1, n_workers=2, chunk_size=10,
            )

    def test_worker_exception_still_surfaced(self):
        class FailingEngine:
            def evaluate(self, sampler, n_samples, seed=None, progress=None):
                raise RuntimeError("chunk exploded")

        with pytest.raises(EvaluationError, match="chunk exploded"):
            run_storeless(
                FailingEngine(), StubSampler(), 40,
                seed=1, n_workers=2, chunk_size=10,
            )
