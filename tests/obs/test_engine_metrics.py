"""Per-batch engine metrics against a per-record reference.

``metrics_from_records`` tallies a batch in one pass and updates each
collector once.  Its snapshot must equal what recording every record on
its own gives, batch by batch and merged across batches.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.attack.spec import AttackSample
from repro.core.results import OutcomeCategory, SampleRecord
from repro.obs import BIT_COUNT_BUCKETS, MetricsRegistry, metrics_from_records
from repro.obs.engine_metrics import observe_slowest_samples


def reference_observe_record(registry, record):
    """The per-record recording the per-batch tally replaced."""
    registry.counter("engine_samples_total").inc()
    registry.counter(
        "engine_outcomes_total", category=record.category.value
    ).inc()
    if record.e:
        registry.counter("engine_success_total").inc()
    if record.n_pulses_injected:
        registry.counter("engine_pulses_injected_total").inc(
            record.n_pulses_injected
        )
    if record.n_pulses_latched:
        registry.counter("engine_pulses_latched_total").inc(
            record.n_pulses_latched
        )
    if record.analytical:
        registry.counter("engine_analytical_evals_total").inc()
    elif record.category is OutcomeCategory.NEEDS_RTL or (
        record.category is OutcomeCategory.MEMORY_ONLY and not record.analytical
    ):
        registry.counter("engine_rtl_resumes_total").inc()

    funnel = registry.counter
    funnel("engine_funnel_total", stage="sampled").inc()
    if record.category is OutcomeCategory.OUT_OF_RANGE:
        return
    funnel("engine_funnel_total", stage="in_window").inc()
    if record.n_pulses_injected:
        funnel("engine_funnel_total", stage="injected").inc()
    if record.flipped_bits:
        funnel("engine_funnel_total", stage="latched").inc()
        registry.histogram(
            "engine_flipped_bits", BIT_COUNT_BUCKETS
        ).observe(len(record.flipped_bits))
    if record.category is OutcomeCategory.MEMORY_ONLY:
        funnel("engine_funnel_total", stage="memory_only").inc()
    elif record.category is OutcomeCategory.NEEDS_RTL:
        funnel("engine_funnel_total", stage="needs_rtl").inc()
    if record.e:
        funnel("engine_funnel_total", stage="success").inc()


@st.composite
def records(draw):
    category = draw(st.sampled_from(list(OutcomeCategory)))
    n_bits = draw(st.integers(0, 40))
    injected = draw(st.integers(0, 6))
    return SampleRecord(
        sample=AttackSample(
            t=draw(st.integers(0, 50)),
            centre=draw(st.integers(0, 200)),
            radius_um=draw(st.sampled_from((3.0, 5.0))),
            weight=1.0,
        ),
        e=draw(st.integers(0, 1)),
        category=category,
        flipped_bits=frozenset(("reg", i) for i in range(n_bits)),
        injection_cycle=draw(st.integers(-5, 500)),
        n_pulses_injected=injected,
        n_pulses_latched=draw(st.integers(0, injected)),
        analytical=draw(st.booleans()),
    )


class TestTallyMatchesPerRecord:
    @given(st.lists(st.lists(records(), max_size=30), max_size=4))
    def test_batches_equal_per_record_recording(self, batches):
        tallied = MetricsRegistry()
        expected = MetricsRegistry()
        for batch in batches:
            shard = metrics_from_records(batch)
            tallied.merge_snapshot(shard.snapshot())
            for record in batch:
                reference_observe_record(expected, record)
        assert tallied.snapshot() == expected.snapshot()

    def test_empty_batch_creates_no_collectors(self):
        assert len(metrics_from_records([])) == 0


class TestSlowestSamples:
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), records()),
            max_size=40,
            unique_by=lambda item: item[0],
        )
    )
    def test_batch_offer_keeps_the_same_top_k(self, timed):
        batched = MetricsRegistry()
        observe_slowest_samples(batched, timed)
        every = MetricsRegistry()
        for seconds, record in timed:
            observe_slowest_samples(every, [(seconds, record)])
        assert batched.snapshot() == every.snapshot()
