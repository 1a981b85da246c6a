"""Correctness tooling: differential testing, invariants, replay.

The paper's central claim is statistical — the cross-level Monte Carlo
SSF estimate converges to the ground truth exhaustive enumeration would
compute (Section 3.3), and importance sampling stays unbiased after
reweighting.  This subsystem turns that claim into an executable gate:

* :mod:`repro.conformance.registry` — small designs where exhaustive
  single-bit enumeration is cheap enough to serve as an exact oracle;
* :mod:`repro.conformance.differential` — runs the oracle and the MC
  engine (uniform + importance sampling) on each registry design and
  checks CI coverage of the exact SSF, per-sample/per-bit outcome
  agreement, and a chi-square goodness-of-fit of the realized sampling
  distribution against its spec;
* :mod:`repro.conformance.replay` — reconstructs any logged campaign
  sample from the chunk log's seed lineage and re-executes it to a
  bit-identical outcome record (``repro replay``).
"""

from repro.conformance.differential import (
    DifferentialConfig,
    DifferentialReport,
    SamplerVerdict,
    run_design,
)
from repro.conformance.registry import (
    DESIGNS,
    ConformanceDesign,
    design_names,
    get_design,
)
from repro.conformance.replay import ReplayedSample, locate_sample, replay_sample

__all__ = [
    "DESIGNS",
    "ConformanceDesign",
    "DifferentialConfig",
    "DifferentialReport",
    "ReplayedSample",
    "SamplerVerdict",
    "design_names",
    "get_design",
    "locate_sample",
    "replay_sample",
    "run_design",
]
