"""Top-level SoC: core + MPU + bus + memory + DMA.

Implements :class:`repro.rtl.Device`, so the RTL simulator can golden-run,
checkpoint, restart and fault-inject it.  Each :meth:`step` follows a strict
two-phase discipline — all combinational decisions are taken against the
*current* register state, then every sequential element commits at once —
which is what makes the behavioural model cycle-equivalent to a synchronous
netlist.

The MPU's registers appear in the SoC manifest under the **same names** as
the DFFs of the elaborated MPU netlist (``cfg_base0`` … ``viol_addr``);
this shared naming is the cross-level contract the SSF engine relies on
when it hands RTL state to the gate-level simulator and writes latched bit
errors back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.rtl.device import Device, RegisterSpec
from repro.soc.bus import Bus, BusRequest, BusStatus, SRC_CORE
from repro.soc.core import Core, CoreState
from repro.soc.dma import Dma
from repro.soc.memmap import MemoryMap, DEFAULT_MEMORY_MAP
from repro.soc.memory import Memory
from repro.soc.mpu import BASELINE_VARIANT, MpuBehavioral, MpuInputs, MpuVariant


@dataclass
class MpuTraceEntry:
    """Per-cycle record used by the pre-characterization.

    ``inputs`` are the MPU port values during the cycle and ``state`` the
    MPU register values at the start of it — exactly the two things the
    bit-parallel gate-level re-simulation needs.  ``cycle`` counts from
    the last reset or checkpoint restore, so it is the cycle simulated.
    """

    cycle: int
    inputs: Dict[str, int]
    state: Dict[str, int]


#: MPU stimulus of a cycle that issues no request, writes no configuration
#: and clears no flag (most cycles); the MPU only reads its inputs.
_IDLE_INPUTS = MpuInputs()


class Soc(Device):
    """The complete device under evaluation."""

    def __init__(
        self,
        memmap: MemoryMap = DEFAULT_MEMORY_MAP,
        mpu_variant: MpuVariant = BASELINE_VARIANT,
    ):
        self.memmap = memmap
        self.mpu_variant = mpu_variant
        self.core = Core(memmap)
        self.mpu = MpuBehavioral(memmap, mpu_variant)
        self.bus = Bus(memmap)
        self.dma = Dma(memmap)
        self.memory = Memory(memmap)
        self._image: List[int] = []
        self._image_base = 0
        self.record_mpu_trace = False
        self.mpu_trace: List[MpuTraceEntry] = []
        self._cycle = 0

    # ------------------------------------------------------------------
    # program loading
    # ------------------------------------------------------------------
    def load_program(self, words: List[int], base: int = 0) -> None:
        """Install a program image; it survives :meth:`reset`."""
        self._image = list(words)
        self._image_base = base
        self.memory.load_image(self._image, base)

    # ------------------------------------------------------------------
    # Device protocol
    # ------------------------------------------------------------------
    def register_specs(self) -> Dict[str, RegisterSpec]:
        specs: Dict[str, RegisterSpec] = {}
        for part in (self.core, self.mpu, self.bus, self.dma):
            for name, spec in part.register_specs().items():
                if name in specs:
                    raise SimulationError(f"register name collision: {name!r}")
                specs[name] = spec
        return specs

    def reset(self) -> None:
        self.core.reset()
        self.mpu.reset()
        self.bus.reset()
        self.dma.reset()
        self.memory.reset()
        if self._image:
            self.memory.load_image(self._image, self._image_base)
        self.mpu_trace = []
        self._cycle = 0

    def step(self) -> None:
        # ---------------- phase 1: combinational ----------------
        mpu_out = self.mpu.outputs()
        bus_status = self.bus.status()
        core_comb = self.core.compute(mpu_out, bus_status, self.memory)
        dma_req = self.dma.request(bus_status, core_comb.request is not None)
        issued: Optional[BusRequest] = core_comb.request or dma_req

        # Commit stage of an in-flight transaction (writes apply "at the
        # end" of the cycle; reads produce data the bus latches).
        rdata: Optional[int] = None
        if bus_status.stage == 2 and not bus_status.free:
            rdata = self.bus.commit_cycle(bool(mpu_out.grant_q), self.memory, self.dma)

        cfg_write = core_comb.cfg_write
        if issued or cfg_write or core_comb.flag_clear:
            mpu_inputs = MpuInputs(
                in_addr=issued.addr if issued else 0,
                in_write=1 if (issued and issued.write) else 0,
                in_priv=1 if (issued and issued.priv) else 0,
                in_valid=1 if issued else 0,
                cfg_we=1 if cfg_write else 0,
                cfg_index=cfg_write[0] if cfg_write else 0,
                cfg_field=cfg_write[1] if cfg_write else 0,
                cfg_wdata=cfg_write[2] if cfg_write else 0,
                flag_clear=1 if core_comb.flag_clear else 0,
            )
        else:
            mpu_inputs = _IDLE_INPUTS

        if self.record_mpu_trace:
            self.mpu_trace.append(
                MpuTraceEntry(
                    cycle=self._cycle,
                    inputs=mpu_inputs.as_port_dict(),
                    state=self.mpu.get_registers(),
                )
            )

        # ---------------- phase 2: commit ----------------
        self.mpu.step(mpu_inputs)
        self.bus.step(issued, rdata)
        self.dma.step(bus_status, issued, bool(mpu_out.viol_q), rdata)
        self.core.commit(core_comb.next_regs)
        self._cycle += 1

    def set_cycle(self, cycle: int) -> None:
        self._cycle = cycle

    def get_registers(self) -> Dict[str, int]:
        return {
            **self.core.regs, **self.mpu.regs, **self.bus.regs, **self.dma.regs
        }

    def set_registers(self, values: Mapping[str, int]) -> None:
        core_vals: Dict[str, int] = {}
        mpu_vals: Dict[str, int] = {}
        bus_vals: Dict[str, int] = {}
        dma_vals: Dict[str, int] = {}
        for name, value in values.items():
            if name.startswith("core_"):
                core_vals[name] = value
            elif name.startswith("bus_"):
                bus_vals[name] = value
            elif name.startswith("dma_"):
                dma_vals[name] = value
            else:
                mpu_vals[name] = value
        if core_vals:
            self.core.set_registers(core_vals)
        if mpu_vals:
            self.mpu.set_registers(mpu_vals)
        if bus_vals:
            self.bus.set_registers(bus_vals)
        if dma_vals:
            self.dma.set_registers(dma_vals)

    def get_arrays(self) -> Dict[str, List[int]]:
        return {"ram": self.memory.snapshot()}

    def set_arrays(self, arrays: Mapping[str, List[int]]) -> None:
        if "ram" in arrays:
            self.memory.restore(list(arrays["ram"]))

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        return self.core.halted

    def mpu_register_names(self) -> List[str]:
        return list(self.mpu.register_specs().keys())

    def run_until_halt(self, max_cycles: int = 100_000) -> int:
        """Step until the core halts; returns the cycle count."""
        cycles = 0
        while not self.halted:
            if cycles >= max_cycles:
                raise SimulationError(
                    f"program did not halt within {max_cycles} cycles"
                )
            self.step()
            cycles += 1
        return cycles
