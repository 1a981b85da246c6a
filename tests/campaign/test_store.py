"""Tests for the durable run store."""

import json

import pytest

from repro.attack.spec import AttackSample
from repro.campaign import (
    CampaignSpec,
    RunStore,
    record_from_dict,
    record_to_dict,
)
from repro.core.results import OutcomeCategory, SampleRecord
from repro.errors import EvaluationError


def make_record(e=1, weight=2.5):
    return SampleRecord(
        sample=AttackSample(t=3, centre=17, radius_um=5.0, weight=weight),
        e=e,
        category=OutcomeCategory.NEEDS_RTL if e else OutcomeCategory.MASKED,
        flipped_bits=frozenset({("viol_q", 0), ("cfg_top0", 3)}),
        injection_cycle=42,
        n_pulses_injected=7,
        n_pulses_latched=2,
        analytical=bool(e),
    )


class TestRecordSerialization:
    def test_roundtrip_preserves_everything(self):
        record = make_record()
        restored = record_from_dict(record_to_dict(record))
        assert restored == record
        assert restored.contribution == record.contribution

    def test_json_compatible(self):
        payload = json.dumps(record_to_dict(make_record()))
        assert record_from_dict(json.loads(payload)) == make_record()


class TestRunStoreLifecycle:
    def test_create_persists_spec(self, tmp_path):
        spec = CampaignSpec(seed=17, chunk_size=10)
        store = RunStore.create(tmp_path, spec, run_id="alpha")
        assert store.run_id == "alpha"
        assert RunStore.open(tmp_path, "alpha").load_spec() == spec

    def test_create_rejects_duplicate(self, tmp_path):
        RunStore.create(tmp_path, CampaignSpec(), run_id="dup")
        with pytest.raises(EvaluationError):
            RunStore.create(tmp_path, CampaignSpec(), run_id="dup")

    def test_open_missing_run(self, tmp_path):
        with pytest.raises(EvaluationError):
            RunStore.open(tmp_path, "ghost")

    def test_list_runs(self, tmp_path):
        assert RunStore.list_runs(tmp_path / "void") == []
        RunStore.create(tmp_path, CampaignSpec(), run_id="b")
        RunStore.create(tmp_path, CampaignSpec(), run_id="a")
        assert RunStore.list_runs(tmp_path) == ["a", "b"]


class TestLogReplay:
    def test_append_then_replay(self, tmp_path):
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        store.append_chunk(0, [make_record(1), make_record(0)])
        store.append_chunk(1, [make_record(0)])
        replayed = list(store.replay_chunks())
        assert [entry.index for entry in replayed] == [0, 1]
        assert [len(entry.records) for entry in replayed] == [2, 1]
        assert replayed[0].records[0] == make_record(1)

    def test_empty_log(self, tmp_path):
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        assert list(store.replay_chunks()) == []

    def test_torn_final_append_discarded(self, tmp_path):
        """A crash mid-append leaves a truncated last line; replay must
        recover the intact prefix."""
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        store.append_chunk(0, [make_record()])
        store.append_chunk(1, [make_record()])
        log = store.path / "log.jsonl"
        text = log.read_text()
        log.write_text(text + '{"chunk": 2, "records": [{"t"')
        assert [entry.index for entry in store.replay_chunks()] == [0, 1]

    def test_non_contiguous_log_rejected(self, tmp_path):
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        store.append_chunk(0, [make_record()])
        store.append_chunk(2, [make_record()])
        with pytest.raises(EvaluationError):
            list(store.replay_chunks())

    def test_corrupt_interior_line_rejected(self, tmp_path):
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        store.append_chunk(0, [make_record()])
        log = store.path / "log.jsonl"
        log.write_text("garbage\n" + log.read_text())
        with pytest.raises(EvaluationError):
            list(store.replay_chunks())


class TestMetricsPersistence:
    def chunk_metrics(self, records):
        from repro.obs import metrics_from_records

        return metrics_from_records(records).snapshot()

    def test_chunk_metrics_roundtrip_through_log(self, tmp_path):
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        records = [make_record(1), make_record(0)]
        snapshot = self.chunk_metrics(records)
        store.append_chunk(0, records, metrics=snapshot)
        (entry,) = store.replay_chunks()
        assert entry.index == 0
        assert entry.metrics == snapshot
        assert entry.records == records

    def test_metricless_log_lines_replay_as_none(self, tmp_path):
        """Lines written before observability existed (or by unobserved
        engines) must still replay."""
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        store.append_chunk(0, [make_record()])
        (entry,) = store.replay_chunks()
        assert entry.metrics is None

    def test_write_then_read_metrics(self, tmp_path):
        from repro.obs import MetricsRegistry

        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        assert store.read_metrics() == []
        registry = MetricsRegistry()
        registry.counter("engine_samples_total").inc(12)
        store.write_metrics(registry)
        assert store.read_metrics() == registry.snapshot()
        assert "engine_samples_total 12" in (
            store.path / "metrics.prom"
        ).read_text()

    def test_write_trace(self, tmp_path):
        from repro.obs.tracing import RunTrace

        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        run_trace = RunTrace()
        run_trace.add_spans(
            "w0",
            [{"name": "chunk.run", "start_s": 0.0, "duration_s": 0.5,
              "attrs": {"chunk": 0}}],
        )
        store.write_trace(run_trace.build())
        trace = json.loads((store.path / "trace.json").read_text())
        assert [e["name"] for e in trace["traceEvents"]] == [
            "process_name", "thread_name", "chunk.run"
        ]


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        store.write_checkpoint({"status": "running", "n_samples": 120})
        assert store.read_checkpoint()["n_samples"] == 120

    def test_torn_checkpoint_recovers(self, tmp_path):
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        (store.path / "checkpoint.json").write_text('{"status": "ru')
        assert store.read_checkpoint()["status"] == "interrupted"

    def test_missing_checkpoint_recovers(self, tmp_path):
        store = RunStore.create(tmp_path, CampaignSpec(), run_id="r")
        (store.path / "checkpoint.json").unlink()
        assert store.read_checkpoint()["status"] == "interrupted"
