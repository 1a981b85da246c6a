"""Observability integration with the campaign runner: merged-metric
determinism across worker counts and interruption, hook-chain ordering,
and the metrics exports."""

import collections
import io
import json
import logging
import multiprocessing

import pytest

from repro.campaign import (
    CampaignHooks,
    CampaignRunner,
    CampaignSpec,
    ConsoleProgress,
    HookChain,
    ObsHooks,
    RunStore,
    StoppingConfig,
)
from repro.obs import (
    STAGES,
    MetricsRegistry,
    Tracer,
    deterministic_view,
    load_metrics_jsonl,
)

from tests.campaign.stubs import BernoulliEngine, InstrumentedEngine, StubSampler

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

SPEC = CampaignSpec(
    seed=5,
    chunk_size=40,
    stopping=StoppingConfig(mode="fixed", n_samples=400),
)


def run_spec(spec=SPEC, store=None, hooks=None, n_workers=1, engine=None,
             tracer=None):
    return CampaignRunner(
        spec,
        store=store,
        hooks=hooks,
        engine=engine or InstrumentedEngine(p=0.3),
        sampler=StubSampler(),
        n_workers=n_workers,
        poll_interval_s=0.1,
        tracer=tracer,
    ).run()


class TestMergedMetrics:
    def test_result_carries_merged_snapshot(self):
        result = run_spec()
        registry = MetricsRegistry.from_snapshot(result.metrics)
        assert registry.value("engine_samples_total") == 400
        assert registry.value("campaign_samples_merged_total") == 400
        assert registry.value("campaign_chunks_merged_total") == 10
        assert registry.value("campaign_ssf") == result.ssf
        # Wall-clock metrics came along too (non-deterministic).
        assert "engine_stage_seconds" in registry

    def test_uninstrumented_engine_rebuilds_from_records(self):
        """Chunks without serialized metrics still contribute the full
        deterministic subset, rebuilt from their records."""
        instrumented = run_spec(engine=InstrumentedEngine(p=0.3))
        plain = run_spec(engine=BernoulliEngine(p=0.3))
        assert deterministic_view(plain.metrics) == deterministic_view(
            instrumented.metrics
        )

    @needs_fork
    def test_worker_count_does_not_change_merged_metrics(self):
        """The tentpole determinism property: 1 worker and 4 workers
        produce identical merged deterministic metrics."""
        sequential = run_spec(n_workers=1)
        parallel = run_spec(n_workers=4)
        assert deterministic_view(parallel.metrics) == deterministic_view(
            sequential.metrics
        )

    def test_histograms_survive_the_worker_roundtrip(self):
        result = run_spec()
        registry = MetricsRegistry.from_snapshot(result.metrics)
        hist = [
            d for d in result.metrics if d["name"] == "engine_flipped_bits"
        ]
        assert hist and hist[0]["count"] > 0
        assert registry.value("engine_success_total") == sum(
            r.e for r in result.records
        )


class InterruptAfter(CampaignHooks):
    def __init__(self, chunks):
        self.remaining = chunks

    def on_batch(self, chunk_index, n_new, estimator, decision=None):
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt


class TestResumeMetricsEquality:
    @pytest.mark.parametrize("engine_cls", [InstrumentedEngine, BernoulliEngine])
    def test_interrupted_resume_matches_uninterrupted(self, tmp_path, engine_cls):
        """Acceptance criterion: a resumed campaign's merged metrics
        (deterministic view) equal an uninterrupted run's."""
        baseline = run_spec(engine=engine_cls(p=0.3))

        store = RunStore.create(tmp_path, SPEC, run_id="kill")
        with pytest.raises(KeyboardInterrupt):
            run_spec(store=store, hooks=InterruptAfter(4),
                     engine=engine_cls(p=0.3))
        resumed = CampaignRunner.resume(
            store, engine=engine_cls(p=0.3), sampler=StubSampler(),
            n_workers=1,
        )
        assert deterministic_view(resumed.metrics) == deterministic_view(
            baseline.metrics
        )

    def test_exported_metrics_jsonl_matches_result(self, tmp_path):
        store = RunStore.create(tmp_path, SPEC, run_id="export")
        result = run_spec(store=store)
        exported = load_metrics_jsonl(store.path / "metrics.jsonl")
        assert exported == result.metrics
        assert (store.path / "metrics.prom").read_text().startswith("# TYPE")


class OrderRecorder(CampaignHooks):
    def __init__(self, name, trace):
        self.name = name
        self.trace = trace

    def bind(self, metrics, tracer=None):
        self.trace.append((self.name, "bind"))

    def on_batch(self, chunk_index, n_new, estimator, decision=None):
        self.trace.append((self.name, "batch"))

    def on_checkpoint(self, snapshot):
        self.trace.append((self.name, "checkpoint"))

    def on_stop(self, decision, estimator):
        self.trace.append((self.name, "stop"))


class TestHookChainOrdering:
    def test_every_event_fires_hooks_in_chain_order(self):
        trace = []
        chain = HookChain(
            OrderRecorder("a", trace), None, OrderRecorder("b", trace)
        )
        chain.bind(MetricsRegistry())
        chain.on_batch(0, 10, None)
        chain.on_checkpoint({})
        chain.on_stop(None, None)
        assert trace == [
            ("a", "bind"), ("b", "bind"),
            ("a", "batch"), ("b", "batch"),
            ("a", "checkpoint"), ("b", "checkpoint"),
            ("a", "stop"), ("b", "stop"),
        ]

    def test_obs_hook_updates_registry_before_user_hooks_run(self):
        """The runner chains ObsHooks ahead of user hooks, so a display
        hook reading the registry sees the *current* chunk merged."""
        registry = MetricsRegistry()
        seen = []

        class Reader(CampaignHooks):
            def on_batch(self, chunk_index, n_new, estimator, decision=None):
                seen.append(registry.value("campaign_samples_merged_total"))

        CampaignRunner(
            CampaignSpec(
                seed=5, chunk_size=40,
                stopping=StoppingConfig(mode="fixed", n_samples=120),
            ),
            hooks=Reader(),
            engine=BernoulliEngine(p=0.3),
            sampler=StubSampler(),
            n_workers=1,
            metrics=registry,
        ).run()
        assert seen == [40, 80, 120]

    def test_console_progress_reads_registry_and_shows_rate(self):
        stream = io.StringIO()
        run_spec(hooks=ConsoleProgress(stream=stream))
        text = stream.getvalue()
        assert "n=400" in text          # from the merged registry
        assert "rate=" in text          # samples/sec between renders
        assert "stop:" in text


class TestStoppingOverlapWarning:
    def test_no_warning_without_overlap(self, caplog):
        """Early stopping lives in the campaign stopping rule alone, so a
        campaign run has nothing to warn about."""
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            run_spec(engine=BernoulliEngine(p=0.3))
        assert caplog.text == ""


class TestTracing:
    def test_runner_spans_exported_as_chrome_trace(self, tmp_path):
        store = RunStore.create(tmp_path, SPEC, run_id="traced")
        tracer = Tracer()
        run_spec(store=store, tracer=tracer)
        names = {event.name for event in tracer.events}
        assert {"chunk.run", "chunk.append", "chunk.merge"} <= names
        trace_file = store.path / "trace.json"
        assert trace_file.exists()

    def test_spec_trace_flag_enables_recording(self, tmp_path):
        spec = CampaignSpec(
            seed=5, chunk_size=40, trace=True,
            stopping=StoppingConfig(mode="fixed", n_samples=80),
        )
        store = RunStore.create(tmp_path, spec, run_id="flag")
        runner = CampaignRunner(
            spec, store=store, engine=BernoulliEngine(p=0.3),
            sampler=StubSampler(), n_workers=1,
        )
        assert runner.tracer.enabled
        runner.run()
        assert (store.path / "trace.json").exists()

    def test_no_trace_file_without_tracer(self, tmp_path):
        store = RunStore.create(tmp_path, SPEC, run_id="untraced")
        run_spec(store=store)
        assert not (store.path / "trace.json").exists()
        assert (store.path / "metrics.jsonl").exists()


def traced_engine_run(context, tmp_path, n_workers):
    """One traced campaign (write, random sampler, window 5, seed 7, 4
    chunks of 20) on a fresh real engine; returns the result, the
    trace.json lanes (pid -> name) and its engine stage spans by pid."""
    from repro import RandomSampler, default_attack_spec
    from repro.core.engine import CrossLevelEngine

    spec = CampaignSpec(
        sampler="random", window=5, seed=7, chunk_size=20, trace=True,
        stopping=StoppingConfig(n_samples=80),
    )
    attack = default_attack_spec(context, window=5)
    store = RunStore.create(tmp_path, spec, run_id=f"workers-{n_workers}")
    result = CampaignRunner(
        spec,
        store=store,
        engine=CrossLevelEngine(context, attack),
        sampler=RandomSampler(attack),
        n_workers=n_workers,
        poll_interval_s=0.1,
    ).run()
    trace = json.loads((store.path / "trace.json").read_text())
    lanes = {
        e["pid"]: e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    stages = [
        (e["pid"], e["name"])
        for e in trace["traceEvents"]
        if e["ph"] == "X" and e["name"] in STAGES
    ]
    return result, lanes, stages


def stage_counts(stages):
    return collections.Counter(name for _, name in stages)


class TestOneSpanRoute:
    """Engine stage spans come back in each ChunkResult, whichever
    process ran the chunk, so the trace does not depend on the worker
    count."""

    def test_sequential_engine_spans_are_pinned(
        self, small_context, tmp_path
    ):
        result, lanes, stages = traced_engine_run(small_context, tmp_path, 1)
        assert result.n_samples == 80
        assert dict(stage_counts(stages)) == {
            "draw": 4,
            "restart": 20,
            "transient": 20,
            "classify": 30,
            "analytical": 27,
            "writeback": 3,
            "rtl_resume": 3,
            "compare": 3,
        }
        # In-process chunks trace into the runner's own lane.
        assert set(lanes.values()) <= {"runner"}

    @needs_fork
    def test_worker_count_does_not_change_the_engine_spans(
        self, small_context, tmp_path
    ):
        one, _, sequential = traced_engine_run(small_context, tmp_path, 1)
        two, lanes, forked = traced_engine_run(small_context, tmp_path, 2)
        assert [r.e for r in two.records] == [r.e for r in one.records]
        # Per chunk and per cycle group, so independent of per-process
        # caches; writeback and the verdict stages depend on each
        # process's outcome memo and are not compared.
        for stage in ("draw", "restart", "transient"):
            assert stage_counts(forked)[stage] == (
                stage_counts(sequential)[stage]
            ), stage
        workers = {pid for pid, name in lanes.items() if name != "runner"}
        assert len(workers) >= 2
        assert {pid for pid, _ in forked} <= workers
