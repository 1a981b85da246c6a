"""End-to-end tests for the campaign runner: determinism, durability,
adaptive stopping."""

import multiprocessing

import pytest

from repro.campaign import (
    CampaignHooks,
    CampaignRunner,
    CampaignSpec,
    ConsoleProgress,
    HookChain,
    RunStore,
    StoppingConfig,
)
from repro.errors import EvaluationError
from repro.utils.stats import samples_for_risk

from tests.campaign.stubs import BernoulliEngine, StubSampler

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

EPSILON, DELTA = 0.05, 0.2

ADAPTIVE_SPEC = CampaignSpec(
    seed=3,
    chunk_size=50,
    stopping=StoppingConfig(
        mode="risk",
        epsilon=EPSILON,
        delta=DELTA,
        min_samples=100,
        max_samples=5000,
    ),
)

FIXED_SPEC = CampaignSpec(
    seed=3,
    chunk_size=50,
    stopping=StoppingConfig(mode="fixed", n_samples=5000),
)


def run_spec(spec, store=None, hooks=None, n_workers=1, engine=None):
    runner = CampaignRunner(
        spec,
        store=store,
        hooks=hooks,
        engine=engine or BernoulliEngine(p=0.3),
        sampler=StubSampler(),
        n_workers=n_workers,
        poll_interval_s=0.1,
    )
    return runner.run()


class TestAdaptiveStopping:
    def test_high_ssf_scenario_stops_early(self):
        """The acceptance scenario: a high-SSF workload converges in
        measurably fewer samples than the fixed-N baseline while meeting
        the same (eps, delta) Chebyshev target."""
        adaptive = run_spec(ADAPTIVE_SPEC)
        fixed = run_spec(FIXED_SPEC)
        assert fixed.n_samples == 5000
        assert adaptive.n_samples < fixed.n_samples / 2
        # The target is actually met at the stop point.
        bound = samples_for_risk(adaptive.variance, EPSILON, DELTA)
        assert adaptive.n_samples >= bound
        # Same engine, same seed policy: the adaptive run's samples are a
        # prefix of the fixed run's.
        prefix = [r.e for r in fixed.records][: adaptive.n_samples]
        assert [r.e for r in adaptive.records] == prefix

    def test_low_ssf_scenario_hits_the_cap(self):
        spec = CampaignSpec(
            seed=3,
            chunk_size=50,
            stopping=StoppingConfig(
                mode="risk",
                epsilon=0.0001,
                delta=0.01,
                min_samples=100,
                max_samples=500,
            ),
        )
        result = run_spec(spec)
        assert result.n_samples == 500
        assert "cap" in result.strategy


class InterruptAfter(CampaignHooks):
    """Simulate dying mid-run after N consumed chunks."""

    def __init__(self, chunks: int):
        self.remaining = chunks

    def on_batch(self, chunk_index, n_new, estimator, decision=None):
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt


class TestResume:
    def test_interrupted_run_resumes_to_identical_result(self, tmp_path):
        baseline = run_spec(ADAPTIVE_SPEC)

        store = RunStore.create(tmp_path, ADAPTIVE_SPEC, run_id="kill")
        with pytest.raises(KeyboardInterrupt):
            run_spec(ADAPTIVE_SPEC, store=store, hooks=InterruptAfter(3))
        checkpoint = store.read_checkpoint()
        assert checkpoint["status"] == "interrupted"
        assert 0 < checkpoint["n_samples"] < baseline.n_samples

        resumed = CampaignRunner.resume(
            store,
            engine=BernoulliEngine(p=0.3),
            sampler=StubSampler(),
            n_workers=1,
        )
        assert resumed.n_samples == baseline.n_samples
        assert resumed.ssf == baseline.ssf
        assert [r.e for r in resumed.records] == [
            r.e for r in baseline.records
        ]
        assert store.read_checkpoint()["status"] == "complete"

    def test_resume_of_finished_run_is_a_noop(self, tmp_path):
        store = RunStore.create(tmp_path, ADAPTIVE_SPEC, run_id="done")
        finished = run_spec(ADAPTIVE_SPEC, store=store)

        class NoMoreWork:
            def evaluate(self, *args, **kwargs):
                raise AssertionError("resume of a finished run ran samples")

        resumed = CampaignRunner.resume(
            store, engine=NoMoreWork(), sampler=StubSampler(), n_workers=1
        )
        assert resumed.ssf == finished.ssf
        assert resumed.n_samples == finished.n_samples

    def test_legacy_batch_false_spec_resumes_bit_identically(
        self, tmp_path, small_context
    ):
        """A run directory from before the ``batch`` field was retired:
        its ``spec.json`` says ``"batch": false``.  Resume drops the key
        and continues on the one engine path to the uninterrupted run's
        exact log and estimate."""
        import json

        from repro import RandomSampler, default_attack_spec
        from repro.core.engine import CrossLevelEngine

        attack = default_attack_spec(
            small_context, window=10, subblock_fraction=0.25
        )
        spec = CampaignSpec(
            sampler="random",
            window=10,
            subblock_fraction=0.25,
            seed=17,
            chunk_size=15,
            stopping=StoppingConfig(mode="fixed", n_samples=60),
        )

        def runner(store, hooks=None):
            return CampaignRunner(
                spec,
                store=store,
                hooks=hooks,
                engine=CrossLevelEngine(small_context, attack),
                sampler=RandomSampler(attack),
                n_workers=1,
            )

        whole = RunStore.create(tmp_path, spec, run_id="whole")
        baseline = runner(whole).run()
        store = RunStore.create(tmp_path, spec, run_id="legacy")
        with pytest.raises(KeyboardInterrupt):
            runner(store, hooks=InterruptAfter(2)).run()
        spec_file = store.path / "spec.json"
        data = json.loads(spec_file.read_text())
        data["batch"] = False
        spec_file.write_text(json.dumps(data))

        resumed = CampaignRunner.resume(
            store,
            engine=CrossLevelEngine(small_context, attack),
            sampler=RandomSampler(attack),
            n_workers=1,
        )
        assert resumed.records == baseline.records
        assert resumed.ssf == baseline.ssf
        assert resumed.variance == baseline.variance

        def stripped(run):
            lines = (run.path / "log.jsonl").read_text().splitlines()
            return [
                {k: v for k, v in json.loads(line).items() if k != "metrics"}
                for line in lines
            ]

        assert stripped(store) == stripped(whole)

    def test_resume_without_store_rejected(self):
        runner = CampaignRunner(
            ADAPTIVE_SPEC, engine=BernoulliEngine(), sampler=StubSampler()
        )
        with pytest.raises(EvaluationError):
            runner.run(resume=True)


@needs_fork
class TestParallelDeterminism:
    def test_worker_count_does_not_change_the_estimate(self, tmp_path):
        sequential = run_spec(ADAPTIVE_SPEC, n_workers=1)
        parallel = run_spec(ADAPTIVE_SPEC, n_workers=3)
        assert parallel.n_samples == sequential.n_samples
        assert parallel.ssf == sequential.ssf
        assert [r.e for r in parallel.records] == [
            r.e for r in sequential.records
        ]

    def test_interrupt_then_parallel_resume(self, tmp_path):
        baseline = run_spec(ADAPTIVE_SPEC)
        store = RunStore.create(tmp_path, ADAPTIVE_SPEC, run_id="pkill")
        with pytest.raises(KeyboardInterrupt):
            run_spec(ADAPTIVE_SPEC, store=store, hooks=InterruptAfter(2))
        resumed = CampaignRunner.resume(
            store,
            engine=BernoulliEngine(p=0.3),
            sampler=StubSampler(),
            n_workers=3,
        )
        assert resumed.ssf == baseline.ssf
        assert resumed.n_samples == baseline.n_samples


class Recorder(CampaignHooks):
    def __init__(self):
        self.batches = []
        self.checkpoints = []
        self.stops = []

    def on_batch(self, chunk_index, n_new, estimator, decision=None):
        self.batches.append((chunk_index, n_new, estimator.n_samples))

    def on_checkpoint(self, snapshot):
        self.checkpoints.append(snapshot)

    def on_stop(self, decision, estimator):
        self.stops.append(decision)


class TestHooksAndCheckpoints:
    def test_hooks_fire_in_order(self, tmp_path):
        store = RunStore.create(tmp_path, ADAPTIVE_SPEC, run_id="hooks")
        recorder = Recorder()
        result = run_spec(ADAPTIVE_SPEC, store=store, hooks=recorder)
        assert [b[0] for b in recorder.batches] == list(
            range(len(recorder.batches))
        )
        assert sum(b[1] for b in recorder.batches) == result.n_samples
        assert len(recorder.stops) == 1
        assert recorder.stops[0].stop
        assert recorder.checkpoints[-1]["status"] == "complete"
        assert recorder.checkpoints[-1]["n_samples"] == result.n_samples

    def test_console_progress_renders(self, tmp_path, capsys):
        import io

        stream = io.StringIO()
        hooks = HookChain(ConsoleProgress(stream=stream), Recorder())
        run_spec(ADAPTIVE_SPEC, hooks=hooks)
        text = stream.getvalue()
        assert "ssf=" in text
        assert "stop:" in text

    def test_store_log_is_contiguous_prefix(self, tmp_path):
        store = RunStore.create(tmp_path, ADAPTIVE_SPEC, run_id="log")
        result = run_spec(ADAPTIVE_SPEC, store=store)
        replayed = list(store.replay_chunks())
        assert [entry.index for entry in replayed] == list(
            range(len(replayed))
        )
        assert sum(len(entry.records) for entry in replayed) == result.n_samples
