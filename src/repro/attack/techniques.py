"""Physical fault-injection techniques.

Each technique turns sampled attack parameters into a
:class:`~repro.gatesim.transient.TransientInjection` for the gate-level
simulator.  The radiation technique is the paper's primary model (its
physics mirror particle-strike soft errors, so transient width falls off
with distance from the spot centre); clock and voltage glitch models are
included to demonstrate the framework is technique-agnostic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import AttackModelError
from repro.gatesim.timing import TimingModel
from repro.gatesim.transient import TransientInjection
from repro.netlist.cells import GateKind
from repro.netlist.placement import Placement


class AttackTechnique(abc.ABC):
    """Base class: parameters -> deposited faults.

    ``impact_cycles`` is the number of consecutive clock cycles one
    injection disturbs (1 for a short radiation pulse; >1 models sustained
    techniques like long laser pulses or slow supply droop — the paper's
    "multi-cycle impact" extension).  The engine calls
    :meth:`build_injection` once per impacted cycle.
    """

    impact_cycles: int = 1

    @abc.abstractmethod
    def build_injection(
        self,
        placement: Placement,
        centre: int,
        radius_um: float,
        rng: np.random.Generator,
    ) -> TransientInjection:
        """Materialize one injection for one fault-injection cycle."""


@dataclass
class RadiationTechnique(AttackTechnique):
    """Radiation spot: all cells within ``radius`` of the centre are hit.

    Combinational cells receive a voltage transient whose width decays
    linearly with distance from the spot centre (peak ``peak_width_ps`` at
    the centre, zero at the rim).  Flip-flops whose cells lie within
    ``dff_upset_fraction`` of the radius have their stored bit flipped
    directly (storage-node upset).  ``target_filter`` restricts the hit to
    combinational gates or sequential elements only — used by the paper's
    Fig. 7(b)/Fig. 10 comparisons.
    """

    timing: TimingModel
    peak_width_ps: float = 280.0
    # Storage-node upsets need the strike core, not the whole spot: with
    # the default radii this gives 1-3 upset cells, matching the multi-cell
    # upset statistics of particle strikes.
    dff_upset_fraction: float = 0.22
    target_filter: Optional[str] = None  # None | "comb_only" | "seq_only"
    # Consecutive cycles disturbed by one shot (sustained exposure).  Note
    # the storage-node strikes are toggles, so over an *even* number of
    # cycles the direct upsets on a cell cancel pairwise (the combinational
    # transients, whose latching depends on the per-cycle strike phase, do
    # not).
    impact_cycles: int = 1

    def __post_init__(self) -> None:
        if self.peak_width_ps <= 0:
            raise AttackModelError("peak transient width must be positive")
        if not 0 < self.dff_upset_fraction <= 1:
            raise AttackModelError("dff_upset_fraction must be in (0, 1]")
        if self.target_filter not in (None, "comb_only", "seq_only"):
            raise AttackModelError(f"bad target_filter {self.target_filter!r}")
        if self.impact_cycles < 1:
            raise AttackModelError("impact_cycles must be at least 1")

    def build_injection(
        self,
        placement: Placement,
        centre: int,
        radius_um: float,
        rng: np.random.Generator,
    ) -> TransientInjection:
        if radius_um <= 0:
            raise AttackModelError("radiation radius must be positive")
        hit = placement.footprint(centre, radius_um)
        strike_time = float(rng.uniform(0.0, self.timing.clock_period_ps))
        gate_pulses: Dict[int, float] = {}
        struck_dffs: List[int] = []
        if self.target_filter != "comb_only":
            upset = hit.dff & (hit.distances <= self.dff_upset_fraction * radius_um)
            struck_dffs = hit.nodes[upset].tolist()
        if self.target_filter != "seq_only":
            # A cell at or past the rim gets a width <= 0, which the
            # ``> 0`` test drops just as it would a width clamped to 0.
            widths = self.peak_width_ps * (1.0 - hit.distances / radius_um)
            pulsed = hit.comb & (widths > 0)
            gate_pulses = dict(
                zip(hit.nodes[pulsed].tolist(), widths[pulsed].tolist())
            )
        return TransientInjection(
            gate_pulses=gate_pulses,
            struck_dffs=struck_dffs,
            strike_time_ps=strike_time,
        )


@dataclass
class PinpointUpsetTechnique(AttackTechnique):
    """Idealized single-cell injection (validation / what-if tool).

    The sampled centre is hit exactly: a flip-flop centre has its stored
    bit flipped; a combinational centre emits one full-width transient.
    The radius is ignored.  With the spatial universe restricted to
    flip-flop cells, this is the classical *single-bit upset* fault model
    — whose fault space is small enough to enumerate exhaustively
    (:mod:`repro.core.exhaustive`), giving the exact SSF the Monte Carlo
    estimate must converge to.
    """

    timing: TimingModel
    pulse_width_ps: float = 280.0
    impact_cycles: int = 1

    def build_injection(
        self,
        placement: Placement,
        centre: int,
        radius_um: float,
        rng: np.random.Generator,
    ) -> TransientInjection:
        node = placement.netlist.node(centre)
        if node.kind is GateKind.DFF:
            return TransientInjection(struck_dffs=[centre])
        return TransientInjection(
            gate_pulses={centre: self.pulse_width_ps},
            strike_time_ps=float(rng.uniform(0.0, self.timing.clock_period_ps)),
        )


@dataclass
class ClockGlitchTechnique(AttackTechnique):
    """Clock-period compression: long paths miss the shortened edge.

    Modelled as narrow transients appearing on the slowest gates inside the
    affected region near the (early) capture edge — the downstream latch-
    window check then decides what is captured.  ``glitch_depth_ps`` is how
    much the period is compressed.
    """

    timing: TimingModel
    glitch_depth_ps: float = 250.0

    def build_injection(
        self,
        placement: Placement,
        centre: int,
        radius_um: float,
        rng: np.random.Generator,
    ) -> TransientInjection:
        hit = placement.footprint(centre, radius_um)
        threshold = self.timing.clock_period_ps - self.glitch_depth_ps
        arrival = placement.netlist.arrival_times()
        # A net still settling when the glitched edge samples is hit.
        gate_pulses: Dict[int, float] = {
            nid: self.glitch_depth_ps
            for nid in hit.nodes[hit.comb].tolist()
            if arrival[nid] >= threshold
        }
        strike_time = self.timing.clock_period_ps - self.glitch_depth_ps
        return TransientInjection(gate_pulses=gate_pulses, strike_time_ps=strike_time)


@dataclass
class VoltageGlitchTechnique(AttackTechnique):
    """Supply droop: every gate in the region slows down; the slowest nets
    emit late transients.  A cruder, wider-footprint cousin of the clock
    glitch."""

    timing: TimingModel
    slowdown: float = 1.5
    width_ps: float = 120.0

    def build_injection(
        self,
        placement: Placement,
        centre: int,
        radius_um: float,
        rng: np.random.Generator,
    ) -> TransientInjection:
        if self.slowdown <= 1.0:
            raise AttackModelError("slowdown must exceed 1.0")
        hit = placement.footprint(centre, radius_um)
        arrival = placement.netlist.arrival_times()
        lo, _hi = self.timing.latch_window
        gate_pulses: Dict[int, float] = {
            nid: self.width_ps
            for nid in hit.nodes[hit.comb].tolist()
            if arrival[nid] * self.slowdown >= lo
        }
        return TransientInjection(
            gate_pulses=gate_pulses,
            strike_time_ps=float(rng.uniform(0.0, self.timing.clock_period_ps)),
        )
