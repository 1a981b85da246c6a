"""Differential harness: exact enumeration vs the Monte Carlo engine.

For each registry design the harness computes the exact SSF by exhaustive
single-bit enumeration, then runs the MC engine under both uniform and
importance sampling with the campaign stopping rule (Chebyshev (ε, δ)
risk target, hard-capped) and the campaign seed tree, and checks:

1. **CI coverage** — the exact SSF lies inside the stopping-rule CI
   (± ε when the risk target fired, the guarantee Section 3.3 provides
   with probability ≥ 1 − δ; ± z·SE when the cap fired first);
2. **per-sample agreement** — the pinpoint technique is deterministic
   given ``(t, centre)``, so every MC record's indicator must equal the
   oracle's truth-table entry for that fault: any mismatch means the two
   evaluation paths (full cross-level vs RTL probe/analytical) disagree;
3. **per-bit success counts** — MC successes grouped by struck bit equal
   the oracle-predicted counts for the drawn fault sequence;
4. **goodness of fit** — a chi-square test that the realized draw counts
   over ``(t, centre)`` match the declared sampling distribution
   (``f`` for uniform, ``g_T · g_{P|T}`` for importance sampling).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaign.scheduler import chunk_seed_sequence
from repro.campaign.stopping import BoundedRule, RiskTargetRule
from repro.conformance.registry import BuiltDesign, ConformanceDesign
from repro.core.exhaustive import ExhaustiveResult, enumerate_single_bit_faults
from repro.sampling.estimator import SsfEstimator
from repro.utils.stats import Chi2Result, chi_square_gof


@dataclass(frozen=True)
class DifferentialConfig:
    """Knobs of one differential run (defaults suit the registry designs)."""

    epsilon: float = 0.05        # risk-target absolute error
    delta: float = 0.05          # risk-target failure probability
    min_samples: int = 200       # variance warm-up before the rule may fire
    max_samples: int = 20_000    # hard cap (cap-stop falls back to z·SE CI)
    chunk_size: int = 250        # evaluation granularity (campaign-style)
    seed: int = 7                # root of the chunk/sample seed tree
    z: float = 1.96              # CI quantile when the cap fired first
    gof_alpha: float = 1e-3      # chi-square rejection threshold


@dataclass
class SamplerVerdict:
    """One sampler's differential outcome on one design."""

    sampler: str
    ssf: float
    n_samples: int
    n_success: int
    ci_low: float
    ci_high: float
    ci_kind: str                 # "risk" (±ε guarantee) or "normal" (z·SE)
    stop_reason: str
    covers_exact: bool
    n_outcome_mismatches: int
    per_bit_ok: bool
    per_bit_mc: Dict[str, int] = field(default_factory=dict)
    per_bit_expected: Dict[str, int] = field(default_factory=dict)
    gof: Optional[Chi2Result] = None
    gof_ok: bool = True

    @property
    def passed(self) -> bool:
        return (
            self.covers_exact
            and self.n_outcome_mismatches == 0
            and self.per_bit_ok
            and self.gof_ok
        )

    def to_dict(self) -> dict:
        data = {
            "sampler": self.sampler,
            "ssf": self.ssf,
            "n_samples": self.n_samples,
            "n_success": self.n_success,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "ci_kind": self.ci_kind,
            "stop_reason": self.stop_reason,
            "covers_exact": self.covers_exact,
            "n_outcome_mismatches": self.n_outcome_mismatches,
            "per_bit_ok": self.per_bit_ok,
            "gof_ok": self.gof_ok,
            "passed": self.passed,
        }
        if self.gof is not None:
            data["gof"] = {
                "statistic": self.gof.statistic,
                "dof": self.gof.dof,
                "p_value": self.gof.p_value,
                "n_cells": self.gof.n_cells,
                "n_pooled": self.gof.n_pooled,
            }
        return data


@dataclass
class DifferentialReport:
    """Full differential outcome for one registry design."""

    design: str
    exact_ssf: float
    n_enumerated: int
    enumeration_wall_s: float
    verdicts: List[SamplerVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "exact_ssf": self.exact_ssf,
            "n_enumerated": self.n_enumerated,
            "enumeration_wall_s": self.enumeration_wall_s,
            "passed": self.passed,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _expected_cell_probs(built: BuiltDesign, sampler) -> Dict[Tuple[int, int], float]:
    """Declared pmf over ``(t, centre)`` cells for the given sampler."""
    spec = built.spec
    probs: Dict[Tuple[int, int], float] = {}
    if hasattr(sampler, "g_P_given_T"):  # importance sampling: g = g_T·g_{P|T}
        for t in spec.temporal.support():
            g_t = sampler.g_T(t)
            if g_t <= 0.0:
                continue
            for centre in spec.spatial.universe:
                p = g_t * sampler.g_P_given_T(centre, t)
                if p > 0.0:
                    probs[(t, centre)] = p
    else:  # uniform sampling draws straight from f
        for t in spec.temporal.support():
            p_t = spec.temporal.pmf(t)
            for centre in spec.spatial.universe:
                probs[(t, centre)] = p_t * spec.spatial.pmf(centre)
    return probs


def _check_sampler(
    built: BuiltDesign,
    exact: ExhaustiveResult,
    name: str,
    sampler,
    config: DifferentialConfig,
) -> SamplerVerdict:
    rule = BoundedRule(
        RiskTargetRule(
            epsilon=config.epsilon,
            delta=config.delta,
            min_samples=config.min_samples,
        ),
        config.max_samples,
    )
    estimator = SsfEstimator(record_history=False)
    records = []
    chunk_index = 0
    while True:
        n = min(config.chunk_size, config.max_samples - len(records))
        result = built.engine.evaluate(
            sampler, n, seed=chunk_seed_sequence(config.seed, chunk_index)
        )
        chunk_index += 1
        for record in result.records:
            estimator.push(record.sample, record.e)
            records.append(record)
        decision = rule.check(estimator)
        if decision.stop:
            break

    # 1. stopping-rule CI coverage of the exact SSF.
    risk_met = "risk target met" in decision.reason
    half = config.epsilon if risk_met else config.z * estimator.std_error
    ci_low, ci_high = estimator.ssf - half, estimator.ssf + half

    # 2 + 3. per-sample and per-bit agreement against the oracle.
    mismatches = 0
    per_bit_mc: Dict[str, int] = {}
    per_bit_expected: Dict[str, int] = {}
    for record in records:
        bit = built.bit_of_cell[record.sample.centre]
        predicted = exact.outcomes[(bit, record.sample.t)]
        label = f"{bit[0]}[{bit[1]}]"
        if record.e:
            per_bit_mc[label] = per_bit_mc.get(label, 0) + 1
        if predicted:
            per_bit_expected[label] = per_bit_expected.get(label, 0) + 1
        if record.e != predicted:
            mismatches += 1

    # 4. realized draw distribution vs its spec.
    observed = Counter((r.sample.t, r.sample.centre) for r in records)
    gof = chi_square_gof(dict(observed), _expected_cell_probs(built, sampler))

    return SamplerVerdict(
        sampler=name,
        ssf=estimator.ssf,
        n_samples=estimator.n_samples,
        n_success=estimator.n_success,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_kind="risk" if risk_met else "normal",
        stop_reason=decision.reason,
        covers_exact=ci_low <= exact.ssf_exact <= ci_high,
        n_outcome_mismatches=mismatches,
        per_bit_ok=per_bit_mc == per_bit_expected,
        per_bit_mc=per_bit_mc,
        per_bit_expected=per_bit_expected,
        gof=gof,
        gof_ok=gof.p_value >= config.gof_alpha,
    )


def build_samplers(built: BuiltDesign):
    """The (name, sampler) pairs the harness compares: uniform draws from
    ``f`` and the paper's two-step importance sampler."""
    from repro.sampling import ImportanceSampler, RandomSampler

    context = built.context
    return (
        ("uniform", RandomSampler(built.spec)),
        (
            "importance",
            ImportanceSampler(
                built.spec,
                context.characterization,
                placement=context.placement,
            ),
        ),
    )


def run_design(
    design: ConformanceDesign,
    config: Optional[DifferentialConfig] = None,
    context=None,
) -> DifferentialReport:
    """Run the full differential check on one registry design."""
    config = config or DifferentialConfig()
    built = design.build(context)
    exact = enumerate_single_bit_faults(
        built.engine,
        bits=list(built.bits),
        timing_distances=list(range(built.window)),
    )
    report = DifferentialReport(
        design=design.name,
        exact_ssf=exact.ssf_exact,
        n_enumerated=exact.n_evaluations,
        enumeration_wall_s=exact.wall_time_s,
    )
    for name, sampler in build_samplers(built):
        report.verdicts.append(
            _check_sampler(built, exact, name, sampler, config)
        )
    return report
