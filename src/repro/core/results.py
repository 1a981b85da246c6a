"""Result records of the SSF evaluation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.attack.spec import AttackSample
from repro.sampling.estimator import SsfEstimator


class OutcomeCategory(enum.Enum):
    """Where one fault-attack run terminated in the Fig. 5 flow."""

    MASKED = "masked"                # no register latched an error
    MEMORY_ONLY = "memory_only"      # errors confined to memory-type regs
    NEEDS_RTL = "needs_rtl"          # computation-type regs hit: RTL resume
    OUT_OF_RANGE = "out_of_range"    # injection cycle before reset


@dataclass(frozen=True)
class SampleRecord:
    """One fault-attack run."""

    sample: AttackSample
    e: int                                     # success indicator
    category: OutcomeCategory
    flipped_bits: FrozenSet[Tuple[str, int]]
    injection_cycle: int
    n_pulses_injected: int = 0
    n_pulses_latched: int = 0
    analytical: bool = False                   # evaluated without RTL resume

    @property
    def contribution(self) -> float:
        """This record's term in the SSF average: ``w · e``."""
        return self.sample.weight * self.e


@dataclass
class CampaignResult:
    """A finished (or converged) evaluation campaign."""

    strategy: str
    records: List[SampleRecord]
    estimator: SsfEstimator
    wall_time_s: float = 0.0
    # Serialized repro.obs.MetricsRegistry snapshot recorded during the
    # run (None when the producer ran unobserved).
    metrics: Optional[List[dict]] = None
    # The engine's StageClock laps, (stage, perf_counter start, seconds)
    # per Fig. 5 stage (None when the engine ran unobserved).
    laps: Optional[List[Tuple[str, float, float]]] = None

    @property
    def ssf(self) -> float:
        return self.estimator.ssf

    @property
    def variance(self) -> float:
        return self.estimator.variance

    @property
    def n_samples(self) -> int:
        return len(self.records)

    @property
    def n_success(self) -> int:
        return sum(r.e for r in self.records)

    def category_counts(self) -> Dict[OutcomeCategory, int]:
        counts: Dict[OutcomeCategory, int] = {c: 0 for c in OutcomeCategory}
        for record in self.records:
            counts[record.category] += 1
        return counts

    def category_fractions(self) -> Dict[OutcomeCategory, float]:
        counts = self.category_counts()
        total = max(1, len(self.records))
        return {c: n / total for c, n in counts.items()}

    def rtl_resume_fraction(self) -> float:
        """Share of runs that needed the expensive RTL resume (Fig. 10(a))."""
        return self.category_fractions()[OutcomeCategory.NEEDS_RTL]

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "strategy": self.strategy,
            "wall_time_s": round(self.wall_time_s, 3),
            **self.estimator.summary(),
        }
        out["categories"] = {
            c.value: n for c, n in self.category_counts().items() if n
        }
        return out
