"""The device protocol every simulatable design implements.

A *device* is any behavioural model with named registers (the flip-flop
state the cross-level flow exchanges with the gate level) and optional
memory arrays (RAM/ROM contents that checkpoints must also capture).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping


@dataclass(frozen=True)
class RegisterSpec:
    """Width and reset value of one named register."""

    width: int
    init: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("register width must be positive")
        if not 0 <= self.init < (1 << self.width):
            raise ValueError("register init value does not fit its width")

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


class Device(abc.ABC):
    """Behavioural RTL model: registers + arrays + a step function."""

    @abc.abstractmethod
    def register_specs(self) -> Dict[str, RegisterSpec]:
        """The register manifest: name -> spec.  Stable across the run."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Return all state (registers, arrays, internal) to power-on."""

    @abc.abstractmethod
    def step(self) -> None:
        """Advance exactly one clock cycle."""

    @abc.abstractmethod
    def get_registers(self) -> Dict[str, int]:
        """Snapshot of every register value."""

    @abc.abstractmethod
    def set_registers(self, values: Mapping[str, int]) -> None:
        """Overwrite (a subset of) register values."""

    def set_cycle(self, cycle: int) -> None:
        """Tell the device which cycle its restored state belongs to.

        :meth:`Checkpoint.restore <repro.rtl.checkpoint.Checkpoint.restore>`
        calls it; a device that numbers what it records overrides it.
        Default: the device keeps no cycle count.
        """

    def get_arrays(self) -> Dict[str, List[int]]:
        """Snapshot of memory arrays; default: none."""
        return {}

    def set_arrays(self, arrays: Mapping[str, List[int]]) -> None:
        """Restore memory arrays; default: nothing to restore."""
        if arrays:
            raise NotImplementedError(
                f"{type(self).__name__} has no arrays to restore"
            )

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def flip_register_bit(self, register: str, bit: int) -> None:
        """Inject a single bit error into one register."""
        specs = self.register_specs()
        if register not in specs:
            raise KeyError(f"unknown register {register!r}")
        if not 0 <= bit < specs[register].width:
            raise ValueError(
                f"bit {bit} out of range for {register!r} "
                f"(width {specs[register].width})"
            )
        current = self.get_registers()[register]
        self.set_registers({register: current ^ (1 << bit)})

    def total_register_bits(self) -> int:
        return sum(spec.width for spec in self.register_specs().values())
