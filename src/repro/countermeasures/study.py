"""End-to-end SSF evaluation of structural MPU countermeasures.

For each variant the full pipeline runs from scratch — elaboration,
placement, golden run, pre-characterization, Monte Carlo campaign — because
a countermeasure changes the netlist, the register manifest, *and* the
characterization (parity bits are memory-type; redundant rails are
computation-type decision registers).

The interesting security phenomenology this surfaces:

* **cfg parity** kills the dominant attack class (single-bit configuration
  upsets become fail-secure violations) but leaves the decision-register
  and combinational attack paths open;
* **dual-rail decision registers** force double upsets on the rails but
  share the combinational check logic, so a single well-placed transient
  still defeats them (a common-mode weakness the evaluation exposes);
* **TMR** additionally out-votes any single latched error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.context import EvaluationContext, build_context
from repro.core.engine import CrossLevelEngine
from repro.core.results import CampaignResult
from repro.precharac.characterization import CharacterizationConfig
from repro.sampling import SAMPLERS, make_sampler
from repro.soc.mpu import MpuVariant
from repro.soc.programs import BenchmarkProgram

STANDARD_VARIANTS: List[MpuVariant] = [
    MpuVariant(),
    MpuVariant(cfg_parity=True),
    MpuVariant(redundancy="dual"),
    MpuVariant(redundancy="dual", cfg_parity=True),
    MpuVariant(redundancy="tmr", cfg_parity=True),
]


@dataclass
class CountermeasureResult:
    """Measured security/cost numbers for one variant."""

    variant: MpuVariant
    ssf: float
    variance: float
    n_success: int
    n_samples: int
    area_um2: float
    area_overhead: float          # vs the baseline variant
    wall_time_s: float
    campaign: CampaignResult = field(repr=False, default=None)
    context: EvaluationContext = field(repr=False, default=None)

    @property
    def name(self) -> str:
        return self.variant.name

    def improvement_over(self, baseline: "CountermeasureResult") -> float:
        if self.ssf <= 0:
            return float("inf")
        return baseline.ssf / self.ssf


class CountermeasureStudy:
    """Runs the same attack campaign against every MPU variant."""

    def __init__(
        self,
        benchmark_factory: Callable[[], BenchmarkProgram],
        variants: Optional[Sequence[MpuVariant]] = None,
        n_samples: int = 1000,
        window: int = 50,
        seed: int = 404,
        sampler: str = "importance",
        charac_config: Optional[CharacterizationConfig] = None,
        spec_kwargs: Optional[dict] = None,
    ):
        if sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {sampler!r}")
        self.benchmark_factory = benchmark_factory
        self.variants = list(variants or STANDARD_VARIANTS)
        self.n_samples = n_samples
        self.window = window
        self.seed = seed
        self.sampler = sampler
        self.charac_config = charac_config
        self.spec_kwargs = dict(spec_kwargs or {})

    def evaluate_variant(self, variant: MpuVariant) -> CountermeasureResult:
        from repro import default_attack_spec  # local: avoids import cycle

        start = time.perf_counter()
        context = build_context(
            self.benchmark_factory(),
            charac_config=self.charac_config,
            mpu_variant=variant,
        )
        spec = default_attack_spec(
            context, window=self.window, **self.spec_kwargs
        )
        engine = CrossLevelEngine(context, spec)
        sampler = make_sampler(self.sampler, spec, context)
        campaign = engine.evaluate(sampler, self.n_samples, seed=self.seed)
        wall = time.perf_counter() - start
        return CountermeasureResult(
            variant=variant,
            ssf=campaign.ssf,
            variance=campaign.variance,
            n_success=campaign.n_success,
            n_samples=campaign.n_samples,
            area_um2=context.netlist.area(),
            area_overhead=0.0,  # filled in by run()
            wall_time_s=wall,
            campaign=campaign,
            context=context,
        )

    def run(self) -> List[CountermeasureResult]:
        """Evaluate every variant; first one is the baseline for overheads."""
        results = [self.evaluate_variant(v) for v in self.variants]
        base_area = results[0].area_um2
        for result in results:
            result.area_overhead = result.area_um2 / base_area - 1.0
        return results

    @staticmethod
    def table_rows(results: List[CountermeasureResult]) -> List[List[object]]:
        """Rows for :func:`repro.analysis.reporting.format_table`."""
        baseline = results[0]
        rows: List[List[object]] = []
        for result in results:
            rows.append(
                [
                    result.name,
                    f"{result.ssf:.5f}",
                    f"{result.n_success}/{result.n_samples}",
                    (
                        f"{result.improvement_over(baseline):.1f}x"
                        if result is not baseline
                        else "1.0x"
                    ),
                    f"{100 * result.area_overhead:.1f} %",
                ]
            )
        return rows
