"""ResultCache: run directories double as content-addressed cache."""

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    RunStore,
    StoppingConfig,
    spec_hash,
)
from repro.service.cache import ResultCache, result_payload
from repro.utils.stats import wilson_interval

from tests.campaign.stubs import BernoulliEngine, StubSampler

SPEC = CampaignSpec(
    seed=11, chunk_size=25, stopping=StoppingConfig(n_samples=100)
)


def run_campaign(runs_dir, spec=SPEC, run_id="done"):
    store = RunStore.create(runs_dir, spec, run_id=run_id)
    CampaignRunner(
        spec,
        store=store,
        engine=BernoulliEngine(p=0.3),
        sampler=StubSampler(),
        n_workers=1,
    ).run()
    return store


class TestLookups:
    def test_complete_run_is_a_hit(self, tmp_path):
        run_campaign(tmp_path)
        hit = ResultCache(tmp_path).lookup_complete(spec_hash(SPEC))
        assert hit is not None
        assert hit.run_id == "done"
        assert hit.checkpoint["status"] == "complete"

    def test_different_spec_misses(self, tmp_path):
        run_campaign(tmp_path)
        other = CampaignSpec(
            seed=12, chunk_size=25, stopping=StoppingConfig(n_samples=100)
        )
        cache = ResultCache(tmp_path)
        assert cache.lookup_complete(spec_hash(other)) is None
        assert cache.lookup_partial(spec_hash(other)) is None

    def test_unfinished_run_is_partial_not_complete(self, tmp_path):
        RunStore.create(tmp_path, SPEC, run_id="fresh")  # status: running
        cache = ResultCache(tmp_path)
        digest = spec_hash(SPEC)
        assert cache.lookup_complete(digest) is None
        assert cache.lookup_partial(digest) == "fresh"

    def test_semantically_equal_spec_hits(self, tmp_path):
        run_campaign(tmp_path)
        # trace is observability-only: same cache entry.
        twin = CampaignSpec(
            seed=11,
            chunk_size=25,
            trace=True,
            stopping=StoppingConfig(n_samples=100),
        )
        assert ResultCache(tmp_path).lookup_complete(
            spec_hash(twin)
        ) is not None

    def test_corrupt_spec_is_a_miss_not_an_error(self, tmp_path):
        store = run_campaign(tmp_path)
        (store.path / "spec.json").write_text("{broken")
        cache = ResultCache(tmp_path)
        assert cache.lookup_complete(spec_hash(SPEC)) is None

    def test_surrogate_spec_is_a_miss_not_an_error(self, tmp_path):
        """A run written by the removed surrogate engine no longer
        loads, so it never serves a cache hit."""
        import json

        store = run_campaign(tmp_path)
        spec = {**SPEC.to_dict(), "engine": "surrogate"}
        (store.path / "spec.json").write_text(json.dumps(spec))
        cache = ResultCache(tmp_path)
        assert cache.run_hash("done") is None
        assert cache.lookup_complete(spec_hash(SPEC)) is None

    def test_hash_memo_tracks_mtime(self, tmp_path):
        run_campaign(tmp_path)
        cache = ResultCache(tmp_path)
        digest = spec_hash(SPEC)
        assert cache.lookup_complete(digest) is not None
        # Memoized second lookup, same answer.
        assert cache.lookup_complete(digest).run_id == "done"

    def test_empty_runs_dir(self, tmp_path):
        cache = ResultCache(tmp_path / "nothing")
        assert cache.lookup_complete("0" * 64) is None
        assert cache.lookup_partial("0" * 64) is None


class TestResultPayload:
    def test_payload_matches_checkpoint_and_wilson_ci(self, tmp_path):
        store = run_campaign(tmp_path)
        checkpoint = store.read_checkpoint()
        payload = result_payload(store)
        assert payload["run_id"] == "done"
        assert payload["status"] == "complete"
        assert payload["ssf"] == checkpoint["ssf"]
        assert payload["n_samples"] == checkpoint["n_samples"]
        lo, hi = wilson_interval(
            checkpoint["n_success"], checkpoint["n_samples"], z=1.96
        )
        assert payload["ci_low"] == lo
        assert payload["ci_high"] == hi
        assert payload["ci_low"] <= payload["ssf"] <= payload["ci_high"]

    def test_missing_run_raises_with_path(self, tmp_path):
        import pytest

        from repro.errors import EvaluationError

        store = RunStore(tmp_path / "ghost")
        with pytest.raises(EvaluationError, match="ghost"):
            result_payload(store)
