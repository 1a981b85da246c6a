"""The RTL simulator: golden runs, restarts, probing.

:class:`RtlSimulator` wraps a :class:`~repro.rtl.device.Device` and adds the
framework-level services of Section 5 of the paper:

* :meth:`golden_run` — simulate the whole benchmark once, dumping
  checkpoints at a fixed interval and recording any probe traces;
* :meth:`restart_from` — restore the nearest checkpoint before a cycle and
  advance to that cycle (warm-up elimination for fault-attack runs);
* :meth:`run_to` / :meth:`step` — plain cycle advancement with probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import SimulationError
from repro.rtl.checkpoint import Checkpoint, CheckpointStore
from repro.rtl.device import Device

Probe = Callable[[Device, int], object]


@dataclass
class GoldenRun:
    """Artifacts of one golden (fault-free) benchmark run."""

    n_cycles: int
    checkpoints: CheckpointStore
    final: Checkpoint
    traces: Dict[str, List[object]] = field(default_factory=dict)


class RtlSimulator:
    """Cycle driver for one device."""

    def __init__(self, device: Device):
        self.device = device
        self.cycle = 0
        self._probes: Dict[str, Probe] = {}

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def add_probe(self, name: str, probe: Probe) -> None:
        """Register a per-cycle probe; its results are collected in traces."""
        if name in self._probes:
            raise SimulationError(f"duplicate probe {name!r}")
        self._probes[name] = probe

    def remove_probe(self, name: str) -> None:
        self._probes.pop(name, None)

    # ------------------------------------------------------------------
    # plain stepping
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.device.reset()
        self.cycle = 0

    def step(self, traces: Optional[Dict[str, List[object]]] = None) -> None:
        """One clock edge; probes observe the *pre-edge* state."""
        if traces is not None:
            for name, probe in self._probes.items():
                traces.setdefault(name, []).append(probe(self.device, self.cycle))
        self.device.step()
        self.cycle += 1

    def run_to(
        self, cycle: int, traces: Optional[Dict[str, List[object]]] = None
    ) -> None:
        if cycle < self.cycle:
            raise SimulationError(
                f"cannot run backwards: at {self.cycle}, asked for {cycle}"
            )
        while self.cycle < cycle:
            self.step(traces)

    # ------------------------------------------------------------------
    # golden run
    # ------------------------------------------------------------------
    def golden_run(
        self,
        n_cycles: int,
        checkpoint_interval: int = 50,
        collect_traces: bool = True,
    ) -> GoldenRun:
        """Fault-free full run with periodic checkpoint dumps.

        Checkpoints land at cycles 0, interval, 2*interval, ..., and always
        at ``n_cycles`` so outcome comparison has an end-of-run reference.
        """
        if n_cycles <= 0:
            raise SimulationError("golden run needs a positive cycle count")
        if checkpoint_interval <= 0:
            raise SimulationError("checkpoint interval must be positive")
        self.reset()
        store = CheckpointStore()
        traces: Dict[str, List[object]] = {}
        store.add(Checkpoint.capture(self.device, 0))
        while self.cycle < n_cycles:
            self.step(traces if collect_traces else None)
            if self.cycle % checkpoint_interval == 0 or self.cycle == n_cycles:
                store.add(Checkpoint.capture(self.device, self.cycle))
        final = store.at(n_cycles)
        return GoldenRun(
            n_cycles=n_cycles, checkpoints=store, final=final, traces=traces
        )

    # ------------------------------------------------------------------
    # fault-attack run support
    # ------------------------------------------------------------------
    def restart_from(self, golden: GoldenRun, cycle: int) -> None:
        """Restore nearest checkpoint <= cycle, then advance to ``cycle``."""
        checkpoint = golden.checkpoints.nearest_before(cycle)
        checkpoint.restore(self.device)
        self.cycle = checkpoint.cycle
        self.run_to(cycle)

    def inject_bit_errors(self, bits: Mapping[str, int]) -> None:
        """XOR error masks into registers (cross-level write-back)."""
        current = self.device.get_registers()
        updates = {
            reg: current[reg] ^ mask for reg, mask in bits.items() if mask
        }
        if updates:
            self.device.set_registers(updates)

    def state_matches(self, checkpoint: Checkpoint, registers: Optional[List[str]] = None) -> bool:
        """Compare current register state against a golden checkpoint."""
        current = self.device.get_registers()
        names = registers if registers is not None else checkpoint.registers.keys()
        return all(current[name] == checkpoint.registers[name] for name in names)
