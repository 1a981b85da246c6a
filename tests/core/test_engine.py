"""Integration tests for the cross-level engine."""

import numpy as np
import pytest

from repro.attack.spec import AttackSample
from repro.core.engine import CrossLevelEngine, EngineConfig
from repro.core.results import OutcomeCategory
from repro.errors import EvaluationError
from repro.sampling import ImportanceSampler, RandomSampler
from repro import default_attack_spec


@pytest.fixture(scope="module")
def spec(small_context):
    return default_attack_spec(small_context, window=10)


@pytest.fixture(scope="module")
def engine(small_context, spec):
    return CrossLevelEngine(small_context, spec)


class TestSingleSamples:
    def test_memory_only_sample_uses_analytical_path(
        self, small_context, engine
    ):
        nl = small_context.netlist
        centre = nl.register_dff("cfg_base5", 3).nid
        rng = np.random.default_rng(0)
        record = engine.run_sample(
            AttackSample(t=5, centre=centre, radius_um=3.0, weight=1.0), rng
        )
        assert record.category in (
            OutcomeCategory.MEMORY_ONLY,
            OutcomeCategory.MASKED,
            OutcomeCategory.NEEDS_RTL,
        )
        if record.category == OutcomeCategory.MEMORY_ONLY:
            assert record.analytical

    def test_critical_cfg_centre_succeeds(self, small_context, engine):
        nl = small_context.netlist
        centre = nl.register_dff("cfg_top0", 12).nid
        rng = np.random.default_rng(1)
        record = engine.run_sample(
            AttackSample(t=4, centre=centre, radius_um=3.0, weight=1.0), rng
        )
        assert ("cfg_top0", 12) in record.flipped_bits
        assert record.e == 1

    def test_out_of_range_injection(self, small_context, engine):
        record = engine.run_sample(
            AttackSample(
                t=small_context.target_cycle + 10,
                centre=0,
                radius_um=3.0,
                weight=1.0,
            ),
            np.random.default_rng(0),
        )
        assert record.category == OutcomeCategory.OUT_OF_RANGE
        assert record.e == 0

    def test_analytical_matches_rtl_when_disabled(self, small_context, spec):
        """With the analytical path disabled, memory-only samples must take
        the RTL route and produce the same indicator."""
        fast = CrossLevelEngine(small_context, spec)
        slow = CrossLevelEngine(
            small_context, spec, EngineConfig(analytical_memory_eval=False)
        )
        nl = small_context.netlist
        for reg, bit, t in [
            ("cfg_top0", 12, 3),
            ("cfg_perm1", 2, 5),
            ("cfg_base5", 3, 2),
        ]:
            centre = nl.register_dff(reg, bit).nid
            sample = AttackSample(t=t, centre=centre, radius_um=3.0, weight=1.0)
            a = fast.run_sample(sample, np.random.default_rng(7))
            b = slow.run_sample(sample, np.random.default_rng(7))
            assert a.e == b.e, (reg, bit)
            assert a.flipped_bits == b.flipped_bits
            assert not b.analytical


class TestCampaigns:
    def test_campaign_reproducible(self, engine, spec):
        sampler = RandomSampler(spec)
        a = engine.evaluate(sampler, n_samples=60, seed=3)
        b = engine.evaluate(sampler, n_samples=60, seed=3)
        assert a.ssf == b.ssf
        assert [r.e for r in a.records] == [r.e for r in b.records]

    def test_campaign_categories_partition(self, engine, spec):
        result = engine.evaluate(RandomSampler(spec), n_samples=80, seed=5)
        counts = result.category_counts()
        assert sum(counts.values()) == 80
        fractions = result.category_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_masked_majority(self, engine, spec):
        """Paper Fig. 10(a): the majority of injections are masked."""
        result = engine.evaluate(RandomSampler(spec), n_samples=120, seed=8)
        assert result.category_fractions()[OutcomeCategory.MASKED] > 0.4

    def test_importance_and_random_agree(self, small_context, engine, spec):
        random_result = engine.evaluate(RandomSampler(spec), 400, seed=21)
        imp = ImportanceSampler(
            spec, small_context.characterization,
            placement=small_context.placement,
        )
        imp_result = engine.evaluate(imp, 400, seed=21)
        # both unbiased estimates of the same SSF; generous tolerance
        hi = max(random_result.ssf, imp_result.ssf)
        assert hi > 0
        assert abs(random_result.ssf - imp_result.ssf) < 0.6 * hi + 0.02

    def test_progress_callback_sees_every_sample(self, engine, spec):
        """``progress(i, estimator)`` fires once per sample, in order,
        with the estimator already holding sample ``i``."""
        seen = []
        result = engine.evaluate(
            RandomSampler(spec),
            n_samples=50,
            seed=2,
            progress=lambda i, est: seen.append((i, est.n_samples)),
        )
        assert seen == [(i, i + 1) for i in range(50)]
        assert result.n_samples == 50

    def test_invalid_sample_count(self, engine, spec):
        with pytest.raises(EvaluationError):
            engine.evaluate(RandomSampler(spec), n_samples=0)

    def test_summary_shape(self, engine, spec):
        result = engine.evaluate(RandomSampler(spec), n_samples=10, seed=1)
        summary = result.summary()
        assert summary["strategy"] == "RandomSampler"
        assert "ssf" in summary and "categories" in summary


class TestGoldenStateUnperturbed:
    def test_campaigns_do_not_corrupt_golden_run(self, small_context, engine, spec):
        """Fault runs reuse the context's SoC; a fresh restart afterwards
        must still reproduce the golden final state."""
        engine.evaluate(RandomSampler(spec), n_samples=30, seed=4)
        sim = small_context.simulator
        sim.restart_from(small_context.golden, small_context.n_cycles)
        assert sim.state_matches(small_context.golden.final)
