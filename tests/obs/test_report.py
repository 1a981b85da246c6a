"""Report rendering from serialized snapshots — no live registry, no
engine, just the ``metrics.jsonl`` contract."""

import pytest

from repro.attack.spec import AttackSample
from repro.core.results import OutcomeCategory, SampleRecord
from repro.obs.engine_metrics import (
    observe_batch_timing,
    observe_slowest_samples,
)
from repro.obs import (
    FUNNEL_STAGES,
    MetricsRegistry,
    load_metrics_jsonl,
    masking_funnel,
    metrics_from_records,
    outcome_rates,
    render_report,
    slowest_samples,
    stage_breakdown,
)


def make_record(e, category, n_bits=0, n_injected=0, analytical=False):
    return SampleRecord(
        sample=AttackSample(t=5, centre=10, radius_um=5.0, weight=1.0),
        e=e,
        category=category,
        flipped_bits=frozenset(("reg", i) for i in range(n_bits)),
        injection_cycle=5,
        n_pulses_injected=n_injected,
        n_pulses_latched=min(n_bits, n_injected),
        analytical=analytical,
    )


RECORDS = [
    make_record(0, OutcomeCategory.MASKED),
    make_record(0, OutcomeCategory.MASKED, n_injected=2),
    make_record(0, OutcomeCategory.MEMORY_ONLY, n_bits=1, n_injected=3,
                analytical=True),
    make_record(1, OutcomeCategory.NEEDS_RTL, n_bits=4, n_injected=5),
    make_record(0, OutcomeCategory.OUT_OF_RANGE),
]


def snapshot_with_timings():
    """The metrics the engine writes for one batch of ``RECORDS``."""
    registry = metrics_from_records(RECORDS)
    observe_batch_timing(
        registry, {"restart": 1e-3, "transient": 4e-3}, 2e-2, len(RECORDS)
    )
    observe_slowest_samples(
        registry,
        [(5e-3 + i * 1e-3, record) for i, record in enumerate(RECORDS)],
    )
    return registry.snapshot()


class TestAggregations:
    def test_masking_funnel_counts_and_order(self):
        funnel = masking_funnel(snapshot_with_timings())
        assert [stage for stage, _ in funnel] == list(FUNNEL_STAGES)
        counts = dict(funnel)
        assert counts["sampled"] == 5
        assert counts["in_window"] == 4   # one OUT_OF_RANGE
        assert counts["injected"] == 3
        assert counts["latched"] == 2
        assert counts["memory_only"] == 1
        assert counts["needs_rtl"] == 1
        assert counts["success"] == 1

    def test_outcome_rates_sorted_by_count(self):
        rows = outcome_rates(snapshot_with_timings())
        assert rows[0][0] == "masked"
        assert rows[0][1] == 2
        assert rows[0][2] == pytest.approx(0.4)
        assert sum(count for _, count, _ in rows) == 5

    def test_stage_breakdown_shares_sum_to_one(self):
        rows = stage_breakdown(snapshot_with_timings())
        assert {row["stage"] for row in rows} == {"restart", "transient"}
        assert rows[0]["stage"] == "transient"  # dominant stage first
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)
        assert rows[0]["mean_s"] == pytest.approx(4e-3)

    def test_slowest_samples_descending(self):
        slowest = slowest_samples(snapshot_with_timings(), top_n=3)
        values = [item["value"] for item in slowest]
        assert values == sorted(values, reverse=True)
        assert len(slowest) == 3

    def test_timingless_snapshot_degrades_gracefully(self):
        snapshot = metrics_from_records(RECORDS).snapshot()
        assert stage_breakdown(snapshot) == []
        assert slowest_samples(snapshot) == []
        assert masking_funnel(snapshot)[0] == ("sampled", 5)


class TestRenderReport:
    def test_renders_every_section(self):
        text = render_report(snapshot_with_timings(), title="Run report: x")
        assert "Run report: x" in text
        assert "Stage-time breakdown" in text
        assert "Masking funnel" in text
        assert "Outcome categories" in text
        assert "slowest samples" in text
        assert "transient" in text

    def test_renders_from_jsonl_file_alone(self, tmp_path):
        """The acceptance property: the report needs nothing but the
        exported metrics.jsonl."""
        registry = MetricsRegistry.from_snapshot(snapshot_with_timings())
        path = tmp_path / "metrics.jsonl"
        path.write_text(registry.to_jsonl())
        text = render_report(load_metrics_jsonl(path))
        assert "Masking funnel" in text
        assert "needs_rtl" in text
