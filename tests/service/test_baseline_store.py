"""Persistent cycle-baseline store: round-trip, staleness, cross-process
reuse.

The ``CycleBaselineStore`` is the durable tier behind the engine's
in-memory cache of per-cycle gate-level baselines.  Its contract has
two halves:

* a loaded baseline is **bit-identical** to a recomputed one (everything
  persisted is integers, so JSON round-trips exactly), and
* a baseline that *might not* match the current design is **never
  loaded** — a changed netlist fingerprint or precharacterization
  version, or a file in another format version, keys to a different
  artifact (miss) and a tampered or hand-moved payload is rejected on
  its embedded metadata.  Staleness can only ever cost a recompute,
  never a wrong SSF.

The cross-process half runs the real service path: campaign A populates
the service's content-addressed artifact root, a *restarted* service
(new instance, same root) runs campaign B, and B's merged metrics show
store hits with an SSF bit-identical to a cold-store reference run.  The
fleet mirror drives ``FleetWorker``'s ``--artifacts-dir`` the same way.
Baselines load on first demand: an engine reads the store only on a
cache miss, never ahead of one.
"""

import json

import numpy as np
import pytest

from repro import default_attack_spec
from repro.campaign import CampaignSpec, RunStore, StoppingConfig
from repro.core.engine import CrossLevelEngine
from repro.fleet import FleetWorker
from repro.gatesim.transient import CycleBaseline
from repro.sampling import RandomSampler
from repro.service import EvaluationService
from repro.service import artifacts
from repro.service.artifacts import (
    BASELINE_FORMAT_VERSION,
    ArtifactStore,
    CycleBaselineStore,
    baseline_store_for,
    netlist_fingerprint,
)


@pytest.fixture()
def artifact_root(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


@pytest.fixture()
def engine(small_context):
    spec = default_attack_spec(small_context, window=8, subblock_fraction=0.25)
    return CrossLevelEngine(small_context, spec)


def _store_for(artifact_root, context, **overrides):
    store = baseline_store_for(
        artifact_root, benchmark="write", variant="none",
        netlist=context.netlist,
    )
    for key, value in overrides.items():
        setattr(store, key, value)
    return store


class TestRoundTrip:
    def test_save_load_bit_identical(self, artifact_root, engine):
        store = _store_for(artifact_root, engine.context)
        baseline = engine._cycle_state(5)
        store.save(5, baseline)
        assert store.writes == 1
        loaded = store.load(5)
        assert isinstance(loaded, CycleBaseline)
        assert (loaded.values == baseline.values).all()
        assert loaded.values.dtype == baseline.values.dtype
        assert loaded.golden_next == baseline.golden_next
        assert (store.hits, store.misses) == (1, 0)

    def test_loaded_baseline_derives_the_recomputed_pin_mask(
        self, artifact_root, engine
    ):
        """The pin mask is derived, never persisted: a loaded baseline
        carries values only and gets, on first use, the mask a fresh
        engine recomputes from scratch."""
        store = _store_for(artifact_root, engine.context)
        store.save(5, engine._cycle_state(5))
        assert "pin_mask" not in json.loads(store._path(5).read_text())
        loaded = store.load(5)
        assert loaded.pin_mask is None
        entry = engine.context.mpu_trace[5]
        engine.transient_sim.simulate_cycle_batch(
            entry.inputs, entry.state, [], baseline=loaded
        )
        fresh = CrossLevelEngine(engine.context, engine.spec)
        assert loaded.pin_mask == fresh._cycle_state(5).pin_mask

    def test_absent_cycle_is_a_miss(self, artifact_root, engine):
        store = _store_for(artifact_root, engine.context)
        assert store.load(3) is None
        assert (store.hits, store.misses, store.rejected) == (0, 1, 0)

    def test_save_is_idempotent(self, artifact_root, engine):
        store = _store_for(artifact_root, engine.context)
        baseline = engine._cycle_state(2)
        store.save(2, baseline)
        store.save(2, baseline)
        assert store.writes == 1


class TestStaleness:
    """Satellite: a mutated design must miss, never load stale state."""

    def test_changed_fingerprint_misses(self, artifact_root, engine):
        writer = _store_for(artifact_root, engine.context)
        writer.save(0, engine._cycle_state(0))
        # Same artifact root, but the design grew a node between
        # campaigns: the key diverges, so the old artifact is unreachable.
        mutated = dict(netlist_fingerprint(engine.context.netlist))
        mutated["n_nodes"] += 1
        reader = _store_for(artifact_root, engine.context, fingerprint=mutated)
        assert reader.load(0) is None
        assert (reader.hits, reader.misses, reader.rejected) == (0, 1, 0)

    def test_changed_precharac_version_misses(self, artifact_root, engine):
        writer = _store_for(artifact_root, engine.context)
        writer.save(0, engine._cycle_state(0))
        reader = _store_for(
            artifact_root, engine.context,
            precharac_version=writer.precharac_version + 1,
        )
        assert reader.load(0) is None
        assert reader.hits == 0

    def test_tampered_payload_is_rejected(self, artifact_root, engine):
        """A hand-moved artifact (right path, wrong embedded metadata)
        is rejected on load — the payload's own fingerprint is checked,
        not just the address."""
        store = _store_for(artifact_root, engine.context)
        store.save(1, engine._cycle_state(1))
        path = store._path(1)
        payload = json.loads(path.read_text())
        payload["fingerprint"] = {"n_nodes": 1, "registers": {}}
        path.write_text(json.dumps(payload))
        assert store.load(1) is None
        assert store.rejected == 1
        assert store.misses == 1

    def test_wrong_format_version_is_rejected(self, artifact_root, engine):
        store = _store_for(artifact_root, engine.context)
        store.save(1, engine._cycle_state(1))
        path = store._path(1)
        payload = json.loads(path.read_text())
        payload["version"] = BASELINE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.load(1) is None
        assert store.rejected == 1

    def test_an_older_format_is_never_addressed(
        self, artifact_root, engine, monkeypatch
    ):
        """A file an older checkout wrote in format 1 sits at an address
        this store never asks for: its load is a plain miss, not a
        rejection, and the next save writes the cycle in this format."""
        baseline = engine._cycle_state(4)
        with monkeypatch.context() as patched:
            patched.setattr(artifacts, "BASELINE_FORMAT_VERSION", 1)
            old = _store_for(artifact_root, engine.context)
            old.save(4, baseline)
            assert old.writes == 1
        store = _store_for(artifact_root, engine.context)
        assert store.load(4) is None
        assert (store.hits, store.misses, store.rejected) == (0, 1, 0)
        store.save(4, baseline)
        assert store.writes == 1
        loaded = store.load(4)
        assert (store.hits, store.misses, store.rejected) == (1, 1, 0)
        assert (loaded.values == baseline.values).all()

    def test_corrupt_json_is_a_miss_not_a_crash(self, artifact_root, engine):
        store = _store_for(artifact_root, engine.context)
        store.save(1, engine._cycle_state(1))
        store._path(1).write_text("{truncated")
        assert store.load(1) is None
        assert store.misses == 1

    def test_mutated_design_campaign_recomputes_identically(
        self, small_context, artifact_root
    ):
        """Regression: campaign A populates the store; campaign B runs
        against a 'mutated' design (different fingerprint) sharing the
        root.  B must see zero hits and produce the exact records a
        store-less engine produces — a stale baseline can never leak
        into the SSF."""
        spec = default_attack_spec(
            small_context, window=8, subblock_fraction=0.25
        )
        seed = lambda: np.random.SeedSequence(13)  # noqa: E731
        sampler = RandomSampler(spec)

        engine_a = CrossLevelEngine(
            small_context, spec,
            baseline_store=_store_for(artifact_root, small_context),
        )
        engine_a.evaluate(sampler, 30, seed=seed())
        assert engine_a.baseline_store.writes > 0

        mutated = dict(netlist_fingerprint(small_context.netlist))
        mutated["registers"] = dict(mutated["registers"], ghost=1)
        engine_b = CrossLevelEngine(
            small_context, spec,
            baseline_store=_store_for(
                artifact_root, small_context, fingerprint=mutated
            ),
        )
        rb = engine_b.evaluate(sampler, 30, seed=seed())
        assert engine_b.baseline_store.hits == 0

        reference = CrossLevelEngine(small_context, spec)
        rr = reference.evaluate(sampler, 30, seed=seed())
        assert rb.records == rr.records
        assert rb.estimator.ssf == rr.estimator.ssf


class TestEngineIntegration:
    def test_warm_start_hits_across_engine_restarts(
        self, small_context, artifact_root
    ):
        """Two engine lifetimes over one store root: the second loads
        each cycle from disk on its first demand, never recomputes one,
        and reproduces the first run bit for bit."""
        spec = default_attack_spec(
            small_context, window=8, subblock_fraction=0.25
        )
        sampler = RandomSampler(spec)

        first = CrossLevelEngine(
            small_context, spec,
            baseline_store=_store_for(artifact_root, small_context),
        )
        r1 = first.evaluate(sampler, 40, seed=np.random.SeedSequence(21))
        assert first.baseline_store.writes > 0
        assert first.baseline_store.hits == 0  # a cold engine

        second = CrossLevelEngine(
            small_context, spec,
            baseline_store=_store_for(artifact_root, small_context),
        )
        # Building an engine reads nothing from the store.
        assert not second._cycle_cache
        assert second.baseline_store.hits == 0
        r2 = second.evaluate(sampler, 40, seed=np.random.SeedSequence(21))
        # One load per cycle the first run computed, each on its first
        # demand; the engine's cache serves every repeat.
        assert second.baseline_store.misses == 0
        assert second.baseline_store.hits == first.baseline_store.writes
        assert r1.records == r2.records
        assert r1.estimator.ssf == r2.estimator.ssf
        # The store hits surface in the run's own metrics, ratio 1.0.
        ratio = [
            m["value"] for m in r2.metrics
            if m["name"] == "engine_baseline_store_hit_ratio"
        ]
        assert ratio == [1.0]


class TestArtifactBytes:
    """A cycle's stored artifact does not depend on what its writing
    engine computed before: its bytes are the same in any order."""

    def test_bytes_do_not_depend_on_prior_cycles(
        self, small_context, tmp_path
    ):
        spec = default_attack_spec(
            small_context, window=8, subblock_fraction=0.25
        )
        orders = ((30, 5, 17, 29), (29, 17, 5, 30), (5, 30))
        written = []
        for i, order in enumerate(orders):
            engine = CrossLevelEngine(
                small_context, spec,
                baseline_store=_store_for(
                    ArtifactStore(tmp_path / f"root{i}"), small_context
                ),
            )
            # Leave the engine's SoC somewhere else first.
            engine.probe_register_flips(frozenset({("viol_q", 0)}), 20 + i)
            for cycle in order:
                engine._cycle_state(cycle)
            store = engine.baseline_store
            written.append(
                {cycle: store._path(cycle).read_bytes() for cycle in order}
            )
        for cycle in (30, 5, 17, 29):
            assert len({w[cycle] for w in written if cycle in w}) == 1

    def test_loaded_baseline_equals_one_recomputed_elsewhere(
        self, small_context, artifact_root
    ):
        spec = default_attack_spec(
            small_context, window=8, subblock_fraction=0.25
        )
        writer = CrossLevelEngine(
            small_context, spec,
            baseline_store=_store_for(artifact_root, small_context),
        )
        for cycle in (40, 12):
            writer._cycle_state(cycle)
        loaded = _store_for(artifact_root, small_context).load(12)
        other = CrossLevelEngine(small_context, spec)
        other._cycle_state(33)
        recomputed = other._cycle_state(12)
        assert (loaded.values == recomputed.values).all()
        assert loaded.golden_next == recomputed.golden_next


def _hit_count(metrics):
    return sum(
        m["value"] for m in metrics
        if m["name"] == "engine_baseline_store_total"
        and m.get("labels", {}).get("outcome") == "hit"
    )


def _small_charac_spec(small_context, tmp_path, **kwargs):
    """A real-runtime campaign spec that reuses the session context's
    reduced characterization (so the service builds the runtime itself
    without paying a full characterization)."""
    from repro.precharac.persistence import save_characterization

    charac = tmp_path / "charac.json"
    if not charac.exists():
        save_characterization(small_context.characterization, charac)
    kwargs.setdefault("stopping", StoppingConfig(mode="fixed", n_samples=40))
    return CampaignSpec(
        benchmark="write",
        sampler="random",
        window=8,
        chunk_size=20,
        charac_cache=str(charac),
        **kwargs,
    )


def _run_service_campaign(runs_dir, spec, timeout_s=120.0):
    import time

    service = EvaluationService(runs_dir)
    service.start()
    try:
        job, _ = service.submit(spec)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if service.get_job(job.job_id).terminal:
                break
            time.sleep(0.05)
        final = service.get_job(job.job_id)
        assert final.state == "done", final.error
        result = service.job_result(job.job_id)
        metrics_file = runs_dir / job.run_id / "metrics.jsonl"
        metrics = [
            json.loads(line)
            for line in metrics_file.read_text().splitlines() if line
        ]
        return result, metrics
    finally:
        service.stop()


class TestCrossProcessReuse:
    """Satellite: campaign A → service restart → campaign B reuses."""

    def test_service_restart_warm_starts_from_artifact_root(
        self, small_context, tmp_path
    ):
        runs_dir = tmp_path / "runs"
        spec_a = _small_charac_spec(small_context, tmp_path, seed=5)
        spec_b = _small_charac_spec(small_context, tmp_path, seed=6)

        _, metrics_a = _run_service_campaign(runs_dir, spec_a)
        # A fresh service instance on the same root = a restarted
        # process: only the on-disk artifacts survive.
        result_b, metrics_b = _run_service_campaign(runs_dir, spec_b)
        assert _hit_count(metrics_b) > 0

        # Bit-identical SSF: the same campaign B on a cold root (no
        # baselines to load) must agree exactly.
        cold_result, cold_metrics = _run_service_campaign(
            tmp_path / "cold_runs", spec_b
        )
        assert _hit_count(cold_metrics) == 0
        assert result_b["ssf"] == cold_result["ssf"]
        assert result_b["n_samples"] == cold_result["n_samples"]

    def test_fleet_worker_warm_starts_from_artifacts_dir(
        self, small_context, tmp_path
    ):
        """Worker-side mirror: a leased spec without a baseline_store
        gets the worker's --artifacts-dir store; a second worker process
        on the same directory loads the first one's writes."""
        artifacts_dir = tmp_path / "worker-artifacts"
        spec = _small_charac_spec(small_context, tmp_path, seed=9)
        grant = {"spec": spec.to_dict()}

        worker_a = FleetWorker(client=None, artifacts_dir=str(artifacts_dir))
        engine_a, sampler_a, _, _ = worker_a._runtime_for(grant)
        assert engine_a.baseline_store is not None
        r1 = engine_a.evaluate(sampler_a, 30, seed=np.random.SeedSequence(2))
        assert engine_a.baseline_store.writes > 0

        worker_b = FleetWorker(client=None, artifacts_dir=str(artifacts_dir))
        engine_b, sampler_b, _, _ = worker_b._runtime_for(grant)
        r2 = engine_b.evaluate(sampler_b, 30, seed=np.random.SeedSequence(2))
        assert engine_b.baseline_store.hits > 0  # loaded from disk
        assert engine_b.baseline_store.misses == 0
        assert r1.records == r2.records
        assert r1.estimator.ssf == r2.estimator.ssf

    def test_worker_without_artifacts_dir_keeps_spec_untouched(
        self, small_context, tmp_path
    ):
        spec = _small_charac_spec(small_context, tmp_path, seed=9)
        worker = FleetWorker(client=None)
        engine, _, used_spec, _ = worker._runtime_for({"spec": spec.to_dict()})
        assert used_spec.baseline_store is None
        assert engine.baseline_store is None
