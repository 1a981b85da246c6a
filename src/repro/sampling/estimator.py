"""The SSF estimator: weighted running mean with convergence reporting.

Implements the paper's finite-sample estimate

    ``SSF_hat = (1/N) Σ (f/g)(t_i, p_i) · e(t_i, p_i)``

and tracks the sample variance ``σ²`` that controls the Chebyshev/LLN
convergence bound of Section 3.3 — the quantity the paper's Fig. 9(b)
table compares across strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.attack.spec import AttackSample
from repro.utils.stats import RunningStats, samples_for_risk, wilson_interval


class SsfEstimator:
    """Accumulates weighted attack outcomes into an SSF estimate."""

    def __init__(self, record_history: bool = True):
        self.stats = RunningStats(record_history=record_history)
        self.n_success = 0
        self.n_samples = 0
        self.weighted_successes: List[Tuple[int, float]] = []

    def push(self, sample: AttackSample, e: int) -> None:
        """Record one attack outcome (``e`` is the 0/1 indicator)."""
        value = sample.weight * e
        self.stats.push(value)
        self.n_samples += 1
        if e:
            self.n_success += 1
            self.weighted_successes.append((self.n_samples, value))

    @property
    def ssf(self) -> float:
        return self.stats.mean

    @property
    def variance(self) -> float:
        """Sample variance of the per-sample contribution ``w·e``."""
        return self.stats.variance

    @property
    def std_error(self) -> float:
        return self.stats.std_error

    @property
    def history(self) -> List[float]:
        """Running SSF estimate per sample (the Fig. 9(a) curve)."""
        return self.stats.history

    def success_rate(self) -> float:
        """Raw (unweighted) fraction of successful attacks under ``g``."""
        return self.n_success / self.n_samples if self.n_samples else 0.0

    def raw_confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        if self.n_samples == 0:
            return (0.0, 1.0)
        return wilson_interval(self.n_success, self.n_samples, z)

    def samples_needed(self, epsilon: float, delta: float = 0.05) -> int:
        """Chebyshev sample-count bound at the current variance estimate."""
        return samples_for_risk(self.variance, epsilon, delta)

    def summary(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_success": self.n_success,
            "ssf": self.ssf,
            "variance": self.variance,
            "std_error": self.std_error if self.n_samples >= 2 else None,
        }
