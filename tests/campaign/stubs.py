"""Deterministic stub engine/sampler for campaign-subsystem tests.

The orchestration layer only needs the engine's ``evaluate(sampler, n,
seed)`` contract, so tests drive it with a cheap Bernoulli engine instead
of the full cross-level stack: seeds still flow through ``as_generator``,
so the per-chunk seed policy (and therefore resume determinism) is
exercised exactly as with the real engine.
"""

from __future__ import annotations

import time

from repro.attack.spec import AttackSample
from repro.core.results import CampaignResult, OutcomeCategory, SampleRecord
from repro.sampling.estimator import SsfEstimator
from repro.utils.rng import as_generator


class StubSampler:
    name = "stub"


class BernoulliEngine:
    """Attack succeeds with probability ``p``; optional per-chunk delay."""

    def __init__(self, p: float = 0.3, delay_s: float = 0.0):
        self.p = p
        self.delay_s = delay_s

    def evaluate(self, sampler, n_samples, seed=None, progress=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        rng = as_generator(seed)
        estimator = SsfEstimator()
        records = []
        for _ in range(n_samples):
            e = int(rng.random() < self.p)
            sample = AttackSample(
                t=int(rng.integers(0, 50)),
                centre=int(rng.integers(0, 100)),
                radius_um=float(rng.choice((3.0, 5.0))),
                weight=1.0,
            )
            records.append(
                SampleRecord(
                    sample=sample,
                    e=e,
                    category=(
                        OutcomeCategory.NEEDS_RTL
                        if e
                        else OutcomeCategory.MASKED
                    ),
                    flipped_bits=frozenset({("viol_q", 0)}) if e else frozenset(),
                    injection_cycle=10,
                )
            )
            estimator.push(sample, e)
        return CampaignResult(
            strategy="stub", records=records, estimator=estimator
        )


class InstrumentedEngine(BernoulliEngine):
    """Bernoulli engine that ships a per-chunk metrics snapshot, like the
    real engine with ``observe=True``: deterministic outcome metrics from
    the records plus (non-deterministic) synthetic per-batch timings."""

    def evaluate(self, sampler, n_samples, seed=None, progress=None):
        from repro.obs import MetricsRegistry, metrics_from_records
        from repro.obs.engine_metrics import observe_batch_timing

        result = super().evaluate(sampler, n_samples, seed=seed)
        registry = MetricsRegistry()
        observe_batch_timing(
            registry,
            {"restart": 5e-4 * n_samples, "transient": 2e-3 * n_samples},
            2.5e-3 * n_samples,
            n_samples,
        )
        metrics_from_records(result.records, registry)
        result.metrics = registry.snapshot()
        return result
