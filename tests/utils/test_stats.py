"""Tests for streaming statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    RunningStats,
    chi2_sf,
    chi_square_gof,
    samples_for_risk,
    wilson_interval,
)

floats = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=200,
)


class TestRunningStats:
    @given(floats)
    def test_matches_numpy(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert stats.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-6, abs=1e-4
        )

    @given(floats, floats)
    def test_merge_equals_concatenation(self, a, b):
        left = RunningStats()
        left.extend(a)
        right = RunningStats()
        right.extend(b)
        left.merge(right)
        combined = RunningStats()
        combined.extend(a + b)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-6)
        assert left.variance == pytest.approx(combined.variance, rel=1e-6, abs=1e-4)

    def test_merge_with_empty(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0])
        stats.merge(RunningStats())
        assert stats.count == 2

    def test_history_recording(self):
        stats = RunningStats(record_history=True)
        stats.extend([1.0, 3.0])
        assert stats.history == [1.0, 2.0]

    def test_variance_of_single_sample(self):
        stats = RunningStats()
        stats.push(5.0)
        assert stats.variance == 0.0
        assert stats.std_error == float("inf")

    def test_std_error_shrinks(self):
        stats = RunningStats()
        rng = np.random.default_rng(0)
        stats.extend(rng.normal(size=100))
        early = stats.std_error
        stats.extend(rng.normal(size=900))
        assert stats.std_error < early


class TestWilson:
    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0 < hi < 0.05

    def test_contains_proportion(self):
        lo, hi = wilson_interval(27, 1000)
        assert lo < 0.027 < hi

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(10, 5)

    @given(st.integers(0, 500), st.integers(1, 500))
    def test_interval_ordered_and_bounded(self, k, n):
        if k > n:
            return
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= hi <= 1.0


class TestChi2Sf:
    def test_known_critical_values(self):
        # Classic chi-square table entries (alpha = 0.05).
        assert chi2_sf(3.841, 1) == pytest.approx(0.05, abs=5e-4)
        assert chi2_sf(5.991, 2) == pytest.approx(0.05, abs=5e-4)
        assert chi2_sf(18.307, 10) == pytest.approx(0.05, abs=5e-4)

    def test_df2_closed_form(self):
        # For df=2 the survival function is exactly exp(-x/2).
        for x in (0.1, 1.0, 4.0, 25.0, 120.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)

    def test_boundaries_and_validation(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0
        assert chi2_sf(1e4, 3) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    @given(st.floats(0.01, 200.0), st.integers(1, 80))
    def test_is_a_survival_function(self, x, df):
        p = chi2_sf(x, df)
        assert 0.0 <= p <= 1.0
        # Monotone non-increasing in x.
        assert chi2_sf(x + 1.0, df) <= p + 1e-12


class TestChiSquareGof:
    def test_perfect_fit_has_p_one(self):
        observed = {"a": 50, "b": 50}
        result = chi_square_gof(observed, {"a": 0.5, "b": 0.5}, min_expected=5.0)
        assert result.statistic == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)

    def test_gross_mismatch_rejected(self):
        observed = {"a": 95, "b": 5}
        result = chi_square_gof(observed, {"a": 0.5, "b": 0.5})
        assert result.p_value < 1e-6

    def test_outside_support_is_fatal(self):
        result = chi_square_gof({"a": 5, "zz": 1}, {"a": 1.0})
        assert result.p_value == 0.0
        assert math.isinf(result.statistic)

    def test_small_cells_are_pooled(self):
        probs = {"a": 0.48, "b": 0.48, "c": 0.02, "d": 0.02}
        observed = {"a": 48, "b": 48, "c": 2, "d": 2}
        result = chi_square_gof(observed, probs, min_expected=5.0)
        assert result.n_pooled == 2
        assert result.n_cells < len(probs)
        assert result.p_value > 0.5

    def test_degenerate_support_is_vacuous(self):
        result = chi_square_gof({"a": 10}, {"a": 1.0})
        assert result.p_value == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_gof({}, {"a": 1.0})
        with pytest.raises(ValueError):
            chi_square_gof({"a": 0}, {"a": 1.0})

    def test_zero_probability_counts_as_outside_support(self):
        result = chi_square_gof({"a": 3}, {"a": 0.0, "b": 1.0})
        assert result.p_value == 0.0


class TestChebyshevBound:
    def test_paper_bound_shape(self):
        # N >= sigma^2 / (delta eps^2): quadrupling precision needs 16x N.
        base = samples_for_risk(0.01, 0.01, 0.05)
        finer = samples_for_risk(0.01, 0.0025, 0.05)
        assert finer == pytest.approx(16 * base, rel=0.01)

    def test_zero_variance(self):
        assert samples_for_risk(0.0, 0.01, 0.05) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            samples_for_risk(0.1, 0.0, 0.05)
        with pytest.raises(ValueError):
            samples_for_risk(0.1, 0.1, 1.5)
        with pytest.raises(ValueError):
            samples_for_risk(-1.0, 0.1, 0.5)
