"""The cross-level Monte Carlo SSF evaluation engine (Section 5).

This is the paper's primary contribution, assembled from the substrates:

* :mod:`repro.core.context` — :func:`build_context` wires a benchmark, the
  elaborated MPU netlist, placement, the golden run with checkpoints, the
  target cycle, and (optionally) the full pre-characterization into one
  frozen :class:`Design`, which engines share, and hands it out in an
  :class:`EvaluationContext` with an engine's own SoC.
* :mod:`repro.core.engine` — :class:`CrossLevelEngine` implements the
  Fig. 5 flow: two-step sampling, restart from the nearest golden
  checkpoint, gate-level fault injection at the injection cycle, register
  classification, analytical evaluation or RTL resume, outcome comparison.
* :mod:`repro.core.analytical` — the simulation-free evaluator for faults
  confined to memory-type registers.
* :mod:`repro.core.hardening` — per-register SSF attribution and the
  selective-hardening study (Section 6's 6.5x / <2% area result).
"""

from repro.core.context import Design, EvaluationContext, build_context
from repro.core.engine import CrossLevelEngine, EngineConfig
from repro.core.analytical import AnalyticalEvaluator
from repro.core.results import CampaignResult, OutcomeCategory, SampleRecord
from repro.core.hardening import HardeningStudy, attribute_ssf
from repro.core.exhaustive import ExhaustiveResult, enumerate_single_bit_faults

__all__ = [
    "Design",
    "EvaluationContext",
    "build_context",
    "CrossLevelEngine",
    "EngineConfig",
    "AnalyticalEvaluator",
    "CampaignResult",
    "OutcomeCategory",
    "SampleRecord",
    "HardeningStudy",
    "attribute_ssf",
    "ExhaustiveResult",
    "enumerate_single_bit_faults",
]
