"""Differential tests: MC engine vs the exhaustive exact oracle.

Fast tier (always on): the ``write-cfg`` design over the shared session
context — exhaustive enumeration, then uniform and importance MC runs
checked for CI coverage of the exact SSF, per-sample outcome agreement,
per-bit success counts, and chi-square goodness of fit of the realized
sampling distribution.

Full tier (``REPRO_CONFORMANCE=full``, set in the CI conformance job):
every registry design with its own context build — minutes, not seconds.
"""

import dataclasses
import os

import pytest

from repro.conformance import (
    DESIGNS,
    DifferentialConfig,
    get_design,
    run_design,
)
from repro.conformance.differential import _check_sampler, build_samplers
from repro.core.exhaustive import enumerate_single_bit_faults

from tests.core.scalar_reference import ScalarReference

FAST_CONFIG = DifferentialConfig(epsilon=0.06, max_samples=4000, seed=7)

FULL = os.environ.get("REPRO_CONFORMANCE") == "full"


@pytest.fixture(scope="module")
def report(small_context):
    return run_design(get_design("write-cfg"), FAST_CONFIG, context=small_context)


class TestDifferentialFast:
    def test_both_samplers_pass(self, report):
        assert {v.sampler for v in report.verdicts} == {"uniform", "importance"}
        assert report.passed, report.to_dict()

    def test_exact_oracle_enumerated_full_space(self, report):
        design = get_design("write-cfg")
        assert report.n_enumerated == len(design.bits) * design.window
        assert 0.0 < report.exact_ssf < 1.0

    def test_ci_covers_exact_ssf(self, report):
        for verdict in report.verdicts:
            assert verdict.ci_low <= report.exact_ssf <= verdict.ci_high, (
                verdict.sampler, verdict.to_dict()
            )
            assert verdict.covers_exact

    def test_every_mc_sample_agrees_with_oracle(self, report):
        """The differential core: each MC record's outcome must equal the
        oracle's truth-table entry for its (bit, t) — zero tolerance."""
        for verdict in report.verdicts:
            assert verdict.n_outcome_mismatches == 0

    def test_per_bit_success_counts_match(self, report):
        for verdict in report.verdicts:
            assert verdict.per_bit_ok
            assert set(verdict.per_bit_mc) == set(verdict.per_bit_expected)

    def test_realized_distribution_passes_gof(self, report):
        for verdict in report.verdicts:
            assert verdict.gof_ok, (verdict.sampler, verdict.gof)
            assert verdict.gof.p_value > FAST_CONFIG.gof_alpha

    def test_importance_sampler_converges_faster(self, report):
        """Variance reduction: with the same stopping rule, importance
        sampling should stop at or before the uniform sampler."""
        by_name = {v.sampler: v for v in report.verdicts}
        assert by_name["importance"].n_samples <= by_name["uniform"].n_samples

    def test_report_serializes(self, report):
        payload = report.to_dict()
        assert payload["design"] == "write-cfg"
        assert payload["passed"] is True
        assert len(payload["verdicts"]) == 2
        for verdict in payload["verdicts"]:
            assert {"sampler", "ssf", "ci_low", "ci_high", "passed"} <= set(verdict)


class TestDifferentialBatchedKernel:
    """The oracle gate also pins the kernel to the per-sample reference."""

    def test_default_engine_is_batched(self, small_context):
        """The harness engine evaluates through ``run_batch``: its
        cycle-baseline cache sees traffic."""
        from repro.campaign import chunk_seed_sequence
        from repro.sampling import RandomSampler

        built = get_design("write-cfg").build(small_context)
        built.engine.evaluate(
            RandomSampler(built.spec), 10, seed=chunk_seed_sequence(1, 0)
        )
        _, misses = built.engine.baseline_cache_stats
        assert misses > 0

    def test_batched_and_scalar_harness_agree(self, small_context):
        """Same design, same seed tree: the differential harness must
        produce identical verdicts on the engine and on the test-only
        per-sample reference — the strongest end-to-end statement of
        run_batch bit-identity."""
        config = DifferentialConfig(epsilon=0.09, max_samples=1500, seed=11)
        design = get_design("write-cfg")
        batched = run_design(design, config, context=small_context)

        built = design.build(small_context)
        exact = enumerate_single_bit_faults(
            built.engine,
            bits=list(built.bits),
            timing_distances=list(range(built.window)),
        )
        reference = dataclasses.replace(
            built, engine=ScalarReference(built.engine)
        )
        verdicts = [
            _check_sampler(reference, exact, name, sampler, config)
            for name, sampler in build_samplers(built)
        ]
        assert batched.passed and all(v.passed for v in verdicts)
        assert batched.exact_ssf == exact.ssf_exact
        assert [v.to_dict() for v in batched.verdicts] == [
            v.to_dict() for v in verdicts
        ]


@pytest.mark.skipif(
    not FULL, reason="set REPRO_CONFORMANCE=full to run the full registry"
)
@pytest.mark.parametrize("name", [d.name for d in DESIGNS])
def test_full_registry_design(name):
    report = run_design(get_design(name), DifferentialConfig(epsilon=0.06))
    assert report.passed, report.to_dict()
