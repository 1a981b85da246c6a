"""Tests for the SSF estimator."""

import numpy as np
import pytest

from repro.attack.spec import AttackSample
from repro.sampling.estimator import SsfEstimator


def sample(weight=1.0):
    return AttackSample(t=0, centre=0, radius_um=3.0, weight=weight)


class TestSsfEstimator:
    def test_unweighted_mean(self):
        est = SsfEstimator()
        for e in [1, 0, 0, 1]:
            est.push(sample(), e)
        assert est.ssf == pytest.approx(0.5)
        assert est.n_success == 2
        assert est.success_rate() == 0.5

    def test_weighted_mean(self):
        est = SsfEstimator()
        est.push(sample(0.1), 1)
        est.push(sample(1.0), 0)
        assert est.ssf == pytest.approx(0.05)

    def test_history_tracks_running_mean(self):
        est = SsfEstimator(record_history=True)
        est.push(sample(), 1)
        est.push(sample(), 0)
        assert est.history == [1.0, 0.5]

    def test_variance_matches_numpy(self):
        rng = np.random.default_rng(0)
        est = SsfEstimator()
        values = []
        for _ in range(500):
            w = float(rng.uniform(0.1, 2.0))
            e = int(rng.random() < 0.1)
            est.push(sample(w), e)
            values.append(w * e)
        assert est.variance == pytest.approx(np.var(values, ddof=1), rel=1e-9)

    def test_confidence_interval_brackets(self):
        est = SsfEstimator()
        for i in range(1000):
            est.push(sample(), int(i % 40 == 0))
        lo, hi = est.raw_confidence_interval()
        assert lo < est.success_rate() < hi

    def test_samples_needed_uses_variance(self):
        est = SsfEstimator()
        for i in range(100):
            est.push(sample(), i % 2)
        n = est.samples_needed(epsilon=0.01, delta=0.05)
        assert n > 1000

    def test_summary_fields(self):
        est = SsfEstimator()
        est.push(sample(), 1)
        est.push(sample(), 0)
        summary = est.summary()
        assert summary["n_samples"] == 2
        assert summary["n_success"] == 1
        assert "variance" in summary
