"""Tests for the three sampling strategies.

The central property is *unbiasedness*: for any indicator supported inside
the cones, the weighted estimate must match the nominal probability.  We
check it with an artificial success oracle so no simulation noise enters.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import FaninConeSampler, ImportanceSampler, RandomSampler
from repro import default_attack_spec


@pytest.fixture(scope="module")
def spec(small_context):
    return default_attack_spec(small_context, window=10)


@pytest.fixture(scope="module")
def samplers(small_context, spec):
    ch = small_context.characterization
    return {
        "random": RandomSampler(spec),
        "cone": FaninConeSampler(spec, ch),
        "importance": ImportanceSampler(
            spec, ch, placement=small_context.placement
        ),
    }


class TestBasicContracts:
    def test_random_weights_are_one(self, samplers):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert samplers["random"].sample(rng).weight == 1.0

    def test_samples_inside_nominal_support(self, spec, samplers):
        rng = np.random.default_rng(1)
        for name, sampler in samplers.items():
            for _ in range(100):
                s = sampler.sample(rng)
                assert spec.density(s.t, s.centre, s.radius_um) > 0, name

    def test_weights_are_exact_density_ratios(self, spec, samplers, small_context):
        rng = np.random.default_rng(2)
        imp = samplers["importance"]
        for _ in range(100):
            s = imp.sample(rng)
            g = imp.g_T(s.t) * imp.g_P_given_T(s.centre, s.t)
            f = spec.temporal.pmf(s.t) * spec.spatial.pmf(s.centre)
            assert s.weight == pytest.approx(f / g)

    def test_cone_samples_in_cones(self, samplers, small_context):
        ch = small_context.characterization
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = samplers["cone"].sample(rng)
            assert s.centre in ch.omega_nodes(s.t)

    def test_gT_is_a_distribution(self, samplers, spec):
        imp = samplers["importance"]
        total = sum(imp.g_T(t) for t in spec.temporal.support())
        assert total == pytest.approx(1.0)

    def test_alpha_beta_validation(self, spec, small_context):
        ch = small_context.characterization
        with pytest.raises(SamplingError):
            ImportanceSampler(spec, ch, alpha=-1)
        with pytest.raises(SamplingError):
            ImportanceSampler(spec, ch, beta=-0.5)


class TestUnbiasedness:
    def oracle(self, small_context):
        """Artificial success indicator: inside the cones, deterministic in
        (t, centre) — flips of the two critical config cells at t >= 1 and
        the decision cone at t == 0."""
        ch = small_context.characterization
        nl = small_context.netlist
        crit = {
            nl.register_dff("cfg_top0", 12).nid,
            nl.register_dff("cfg_perm1", 2).nid,
        }
        frame0 = ch.omega_nodes(0)

        def e(sample):
            if sample.t == 0:
                return int(sample.centre in frame0 and sample.centre % 3 == 0)
            return int(sample.centre in crit)

        return e

    def estimate(self, sampler, oracle, n, seed):
        rng = np.random.default_rng(seed)
        acc = 0.0
        for _ in range(n):
            s = sampler.sample(rng)
            acc += s.weight * oracle(s)
        return acc / n

    def exact(self, spec, oracle, small_context):
        total = 0.0
        for t in spec.temporal.support():
            for g in spec.spatial.universe:
                class S:  # tiny ad-hoc sample
                    pass

                s = S()
                s.t, s.centre = t, g
                total += spec.temporal.pmf(t) * spec.spatial.pmf(g) * oracle(s)
        return total

    def test_all_strategies_agree_with_exact_value(
        self, spec, samplers, small_context
    ):
        oracle = self.oracle(small_context)
        truth = self.exact(spec, oracle, small_context)
        assert truth > 0
        for name, sampler in samplers.items():
            est = self.estimate(sampler, oracle, 8000, seed=11)
            assert est == pytest.approx(truth, rel=0.35), (name, est, truth)

    def test_importance_variance_lower_than_random(
        self, spec, samplers, small_context
    ):
        oracle = self.oracle(small_context)
        rng_r = np.random.default_rng(5)
        rng_i = np.random.default_rng(5)
        vals_r, vals_i = [], []
        for _ in range(4000):
            s = samplers["random"].sample(rng_r)
            vals_r.append(s.weight * oracle(s))
            s = samplers["importance"].sample(rng_i)
            vals_i.append(s.weight * oracle(s))
        assert np.var(vals_i) < np.var(vals_r)


class TestHardLifetimeGate:
    @pytest.fixture(scope="class")
    def full_spec(self, small_context):
        # Whole-die universe so short-lived pipeline registers (req_*) are
        # part of the nominal support.
        return default_attack_spec(
            small_context, window=10, subblock_fraction=1.0
        )

    def test_gate_removes_short_lived_nodes_at_deep_frames(
        self, full_spec, small_context
    ):
        ch = small_context.characterization
        gated = ImportanceSampler(full_spec, ch, hard_lifetime_gate=True)
        ungated = ImportanceSampler(full_spec, ch, hard_lifetime_gate=False)
        deep = max(t for t in full_spec.temporal.support() if gated.support_size(t))
        assert gated.support_size(deep) < ungated.support_size(deep)

    def test_gated_support_only_long_lived(self, full_spec, small_context):
        ch = small_context.characterization
        gated = ImportanceSampler(
            full_spec, ch, hard_lifetime_gate=True, beta=1.0
        )
        for t in range(1, 10):
            if t not in gated._tables:
                continue
            for nid in gated._tables[t].nodes:
                assert ch.L(int(nid)) >= t


class TestProbabilityChecks:
    """A hand-edited characterization cache is outside input: tables that
    ``Generator.choice`` would refuse fail at construction."""

    def characterization_with(self, small_context, spec, value):
        """The write context's characterization with ``value`` as the
        correlation of one lifetime-qualified frame-0 support cell."""
        ch = small_context.characterization
        frame0 = sorted(ch.omega_nodes(0) & set(spec.spatial.universe))
        assert len(frame0) > 50
        correlations = dict(ch.signatures.correlations)
        correlations[(frame0[0], 0)] = value
        signatures = dataclasses.replace(
            ch.signatures, correlations=correlations
        )
        return dataclasses.replace(ch, signatures=signatures)

    def test_nan_correlation_rejected_at_construction(self, small_context, spec):
        edited = self.characterization_with(small_context, spec, float("nan"))
        with pytest.raises(SamplingError, match="finite"):
            ImportanceSampler(spec, edited, placement=small_context.placement)

    def test_negative_term_rejected_at_construction(self, small_context, spec):
        # 1 + 50 * (-0.5) = -24: one negative mass in a frame whose total
        # stays positive, so its probability is negative.
        edited = self.characterization_with(small_context, spec, -0.5)
        with pytest.raises(SamplingError, match="non-negative"):
            ImportanceSampler(spec, edited)
