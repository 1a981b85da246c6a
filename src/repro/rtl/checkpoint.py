"""Golden checkpoints.

A checkpoint is a full architectural snapshot (registers + memory arrays) at
a known cycle.  The golden run dumps one every ``interval`` cycles; every
fault-attack run restarts from the nearest checkpoint at or before its
injection cycle, which is where the bulk of the paper's per-sample speedup
over naive re-simulation comes from.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.errors import CheckpointError
from repro.rtl.device import Device


@dataclass(frozen=True)
class Checkpoint:
    """Immutable snapshot of a device at one cycle."""

    cycle: int
    registers: Dict[str, int]
    arrays: Dict[str, List[int]]

    @classmethod
    def capture(cls, device: Device, cycle: int) -> "Checkpoint":
        return cls(
            cycle=cycle,
            registers=dict(device.get_registers()),
            arrays={k: list(v) for k, v in device.get_arrays().items()},
        )

    def restore(self, device: Device) -> None:
        device.set_registers(self.registers)
        device.set_arrays({k: list(v) for k, v in self.arrays.items()})
        device.set_cycle(self.cycle)

    def diff_registers(self, other: "Checkpoint") -> Dict[str, int]:
        """XOR of register values that differ between two snapshots."""
        out: Dict[str, int] = {}
        for name, value in self.registers.items():
            delta = value ^ other.registers.get(name, 0)
            if delta:
                out[name] = delta
        return out


class CheckpointStore:
    """Ordered collection of checkpoints with nearest-lookup."""

    def __init__(self) -> None:
        self._cycles: List[int] = []
        self._checkpoints: Dict[int, Checkpoint] = {}

    def add(self, checkpoint: Checkpoint) -> None:
        if checkpoint.cycle in self._checkpoints:
            raise CheckpointError(f"duplicate checkpoint at cycle {checkpoint.cycle}")
        bisect.insort(self._cycles, checkpoint.cycle)
        self._checkpoints[checkpoint.cycle] = checkpoint

    def __len__(self) -> int:
        return len(self._cycles)

    def cycles(self) -> List[int]:
        return list(self._cycles)

    def at(self, cycle: int) -> Checkpoint:
        try:
            return self._checkpoints[cycle]
        except KeyError:
            raise CheckpointError(f"no checkpoint at cycle {cycle}") from None

    def nearest_before(self, cycle: int) -> Checkpoint:
        """Latest checkpoint with ``checkpoint.cycle <= cycle``."""
        idx = bisect.bisect_right(self._cycles, cycle) - 1
        if idx < 0:
            raise CheckpointError(
                f"no checkpoint at or before cycle {cycle} "
                f"(earliest is {self._cycles[0] if self._cycles else 'none'})"
            )
        return self._checkpoints[self._cycles[idx]]
