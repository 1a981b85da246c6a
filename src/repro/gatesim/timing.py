"""Timing model for the transient simulation.

Captures the quantities the latch-window analysis (Fig. 6 of the paper)
needs: the clock period, per-gate propagation delays (from the cell
library), DFF setup/hold times, and a simple electrical-masking model where
a pulse loses a fixed width per logic stage and dies below a minimum width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.errors import AttackModelError
from repro.netlist.cells import CELL_LIBRARY, GateKind


@dataclass(frozen=True)
class TimingModel:
    """All timing constants, in picoseconds.

    The default clock period comfortably exceeds the elaborated MPU's
    critical path (~1.4 ns with this cell library), as any design that
    closes timing must; :func:`for_netlist` derives a period from an actual
    critical path when a different design is simulated.
    """

    clock_period_ps: float = 1800.0
    setup_ps: float = 40.0
    hold_ps: float = 25.0
    # Electrical masking: width lost per traversed gate, and the width below
    # which a pulse can no longer switch a gate.
    attenuation_ps: float = 6.0
    min_pulse_ps: float = 12.0
    delay_overrides: Dict[GateKind, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.clock_period_ps <= 0:
            raise AttackModelError("clock period must be positive")
        if self.setup_ps < 0 or self.hold_ps < 0:
            raise AttackModelError("setup/hold must be non-negative")
        if self.attenuation_ps < 0 or self.min_pulse_ps <= 0:
            raise AttackModelError("attenuation must be >= 0, min pulse > 0")

    def gate_delay(self, kind: GateKind) -> float:
        if kind in self.delay_overrides:
            return self.delay_overrides[kind]
        return CELL_LIBRARY[kind].delay_ps

    @property
    def latch_window(self) -> tuple:
        """(open, close) of the capture window around the clock edge.

        The clock edge sits at ``clock_period_ps``; a pulse present anywhere
        in ``[T - setup, T + hold]`` violates the flop's sampling and gets
        latched (pessimistic capture, as in the paper's Fig. 6(b)).
        """
        return (
            self.clock_period_ps - self.setup_ps,
            self.clock_period_ps + self.hold_ps,
        )

    def attenuate(self, width_ps: float) -> float:
        """Pulse width after traversing one gate; <= 0 means filtered out."""
        remaining = width_ps - self.attenuation_ps
        return remaining if remaining >= self.min_pulse_ps else 0.0

    def latch_hits(
        self, starts_ps: Sequence[float], widths_ps: Sequence[float]
    ) -> np.ndarray:
        """Vectorized latch-window classification for a batch of pulses.

        Element ``i`` is True iff the pulse ``[starts[i], starts[i] +
        widths[i])`` overlaps :attr:`latch_window` — the same float64
        comparisons as :meth:`~repro.gatesim.transient.Pulse.overlaps`,
        so a batched check is bit-identical to the scalar one.
        """
        starts = np.asarray(starts_ps, dtype=np.float64)
        widths = np.asarray(widths_ps, dtype=np.float64)
        lo, hi = self.latch_window
        return (starts < hi) & (starts + widths > lo)


def for_netlist(netlist, slack_fraction: float = 0.25, **overrides) -> TimingModel:
    """A timing model whose clock period fits the netlist's critical path.

    ``period = critical_path * (1 + slack_fraction)``, mirroring how a real
    design is clocked at its slowest path plus margin.
    """
    arrival = netlist.arrival_times()
    critical = max(arrival) if arrival else 1000.0
    period = critical * (1.0 + slack_fraction)
    return TimingModel(clock_period_ps=period, **overrides)
