"""Registry of small designs with an affordable exact oracle.

A conformance design restricts the attack model to *pinpoint* single-bit
upsets (:class:`~repro.attack.techniques.PinpointUpsetTechnique`) over an
explicit set of register bits and a short timing window, so the fault
space ``bits × window`` is small enough for exhaustive enumeration to
yield the exact SSF in seconds.  Because the pinpoint technique is
deterministic given ``(t, centre)``, every Monte Carlo record can also be
checked sample-by-sample against the oracle's truth table — a genuine
differential test of the full MC path (RTL restart → gate-level injection
→ writeback → resume) against the independent RTL-probe / analytical
path, not just a statistical comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import EvaluationError

RegisterBit = Tuple[str, int]


@dataclass
class BuiltDesign:
    """A registry design instantiated against a live evaluation context."""

    name: str
    engine: object                      # CrossLevelEngine
    spec: object                        # AttackSpec (pinpoint)
    bits: Tuple[RegisterBit, ...]
    bit_of_cell: Dict[int, RegisterBit]  # spatial centre nid -> register bit
    window: int
    context: object = None


@dataclass(frozen=True)
class ConformanceDesign:
    """One differential-testing target: benchmark + bit set + window."""

    name: str
    description: str
    benchmark: str                      # write | read | dma
    bits: Tuple[RegisterBit, ...]
    window: int
    variant: str = "none"
    max_frame: int = 12                 # reduced pre-characterization depth

    def build_context(self):
        """Build a reduced-characterization context for this design.

        ``max_frame`` must cover the window so the importance sampler has
        correlation evidence at every frame the spec can draw.
        """
        from repro.core.context import build_context
        from repro.precharac.characterization import CharacterizationConfig
        from repro.soc.mpu import MpuVariant
        from repro.soc.programs import BENCHMARKS

        if self.benchmark not in BENCHMARKS:
            raise EvaluationError(f"unknown benchmark {self.benchmark!r}")
        return build_context(
            BENCHMARKS[self.benchmark](),
            mpu_variant=MpuVariant.parse(self.variant),
            charac_config=CharacterizationConfig(
                max_frame=max(self.max_frame, self.window),
                lifetime_horizon=60,
                lifetime_trials=1,
                seed=5,
            ),
        )

    def build(self, context=None) -> BuiltDesign:
        """Instantiate the engine + pinpoint attack spec.

        ``context`` lets callers inject an already-built (compatible)
        context — the fast test tier reuses the session-scoped small
        context instead of paying a fresh characterization.
        """
        from repro.attack.distributions import (
            RadiusDistribution,
            SpatialDistribution,
            TemporalDistribution,
        )
        from repro.attack.spec import AttackSpec
        from repro.attack.techniques import PinpointUpsetTechnique
        from repro.core.engine import CrossLevelEngine

        if context is None:
            context = self.build_context()
        bit_of_cell: Dict[int, RegisterBit] = {}
        for reg, bit in self.bits:
            # register_dff raises NetlistError for a bit the design lacks.
            bit_of_cell[context.netlist.register_dff(reg, bit).nid] = (reg, bit)
        spec = AttackSpec(
            technique=PinpointUpsetTechnique(timing=context.timing),
            temporal=TemporalDistribution(self.window),
            spatial=SpatialDistribution(sorted(bit_of_cell)),
            radius=RadiusDistribution((1.0,)),
        )
        engine = CrossLevelEngine(context, spec, observe=False)
        return BuiltDesign(
            name=self.name,
            engine=engine,
            spec=spec,
            bits=tuple(self.bits),
            bit_of_cell=bit_of_cell,
            window=self.window,
            context=context,
        )


#: The conformance registry.  ``write-cfg`` is the fast tier (reused by
#: tier-1 tests with the shared small context); the remaining designs
#: vary the benchmark program and the bit census and run in the dedicated
#: CI conformance job / ``repro conformance``.
DESIGNS: Tuple[ConformanceDesign, ...] = (
    ConformanceDesign(
        name="write-cfg",
        description="illegal write, 6 MPU config/violation bits, window 6",
        benchmark="write",
        bits=(
            ("cfg_top0", 12), ("cfg_top0", 13), ("cfg_base5", 3),
            ("cfg_base2", 4), ("cfg_top3", 2), ("viol_addr", 1),
        ),
        window=6,
    ),
    ConformanceDesign(
        name="write-wide",
        description="illegal write, 8 bits incl. permission regs, window 10",
        benchmark="write",
        bits=(
            ("cfg_top0", 12), ("cfg_top0", 13), ("cfg_top3", 2),
            ("cfg_base5", 3), ("cfg_base2", 4), ("cfg_perm1", 2),
            ("viol_addr", 1), ("viol_addr", 2),
        ),
        window=10,
    ),
    ConformanceDesign(
        name="read-cfg",
        description="illegal read, 6 MPU config/violation bits, window 6",
        benchmark="read",
        bits=(
            ("cfg_top0", 12), ("cfg_top0", 13), ("cfg_base5", 3),
            ("cfg_base2", 4), ("cfg_top3", 2), ("viol_addr", 1),
        ),
        window=6,
    ),
)


def design_names() -> Tuple[str, ...]:
    return tuple(d.name for d in DESIGNS)


def get_design(name: str) -> ConformanceDesign:
    for design in DESIGNS:
        if design.name == name:
            return design
    raise EvaluationError(
        f"unknown conformance design {name!r} "
        f"(available: {', '.join(design_names())})"
    )
