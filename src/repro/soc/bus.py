"""System bus.

Single outstanding transaction, fixed three-stage protocol aligned with the
MPU pipeline (see :mod:`repro.soc.mpu`):

* stage 0 / idle — a master (core has priority over DMA) may issue; the
  request is presented to the MPU inputs and captured into the bus
  registers at the edge;
* stage 1 — the MPU evaluates the captured request;
* stage 2 — commit: if ``grant_q`` the operation touches memory or MMIO
  (write applies, read data latches into ``rdata_q``); if ``viol_q`` the
  operation is aborted; either way the bus frees.

Crucially, the bus keeps its **own copy** of the address/data: the MPU
checks its captured ``req_addr`` while the bus commits ``addr``.  A fault
that corrupts the MPU's copy between capture and commit therefore bypasses
the policy without altering the attacked operation — one of the attack
paths the paper's framework is built to find.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.rtl.device import RegisterSpec
from repro.soc.memmap import (
    DMA_REG_CTRL,
    DMA_REG_DST,
    DMA_REG_LEN,
    DMA_REG_SRC,
    MemoryMap,
    DEFAULT_MEMORY_MAP,
)

SRC_CORE = 0
SRC_DMA = 1


@dataclass(frozen=True)
class BusRequest:
    """A master's request for this cycle."""

    addr: int
    write: bool
    wdata: int = 0
    priv: bool = False
    src: int = SRC_CORE


@dataclass(frozen=True)
class BusStatus:
    """What masters can observe about the bus this cycle."""

    free: bool          # a new request can be issued this cycle
    stage: int          # 0 idle, 1 checking, 2 committing
    src: int            # owner of the in-flight transaction
    write: bool
    rdata_q: int        # read data from the last committed read


@functools.lru_cache(maxsize=256)
def _status(pending: int, stage: int, src: int, write: int, rdata: int) -> BusStatus:
    """Bus status from its register values (memoized: they rarely change)."""
    return BusStatus(
        free=not pending, stage=stage, src=src, write=bool(write), rdata_q=rdata
    )


_STATUS_REGISTERS = operator.itemgetter(
    "bus_pending", "bus_stage", "bus_src", "bus_write", "bus_rdata"
)


def bus_register_specs(memmap: MemoryMap = DEFAULT_MEMORY_MAP) -> Dict[str, RegisterSpec]:
    return {
        "bus_pending": RegisterSpec(1),
        "bus_stage": RegisterSpec(2),
        "bus_addr": RegisterSpec(memmap.addr_bits),
        "bus_wdata": RegisterSpec(memmap.data_bits),
        "bus_write": RegisterSpec(1),
        "bus_src": RegisterSpec(1),
        "bus_rdata": RegisterSpec(memmap.data_bits),
    }


class Bus:
    """Behavioural bus; registers prefixed ``bus_`` in the SoC manifest."""

    def __init__(self, memmap: MemoryMap = DEFAULT_MEMORY_MAP):
        self.memmap = memmap
        self._specs = bus_register_specs(memmap)
        self.regs: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.regs = {name: spec.init for name, spec in self._specs.items()}

    def register_specs(self) -> Dict[str, RegisterSpec]:
        return dict(self._specs)

    def status(self) -> BusStatus:
        return _status(*_STATUS_REGISTERS(self.regs))

    def commit_cycle(
        self,
        grant: bool,
        memory,
        dma,
    ) -> Optional[int]:
        """Stage-2 combinational work: returns read data to latch, applies
        writes.  Call only when ``stage == 2``.  MMIO decodes here."""
        if not grant:
            return None
        addr = self.regs["bus_addr"]
        if self.regs["bus_write"]:
            if self.memmap.is_dma_mmio(addr):
                dma.mmio_write(addr - self.memmap.dma_mmio_base, self.regs["bus_wdata"])
            else:
                memory.write(addr, self.regs["bus_wdata"])
            return None
        if self.memmap.is_dma_mmio(addr):
            return dma.mmio_read(addr - self.memmap.dma_mmio_base)
        return memory.read(addr)

    def step(self, request: Optional[BusRequest], rdata: Optional[int]) -> None:
        """Clock edge: advance the transaction pipeline."""
        regs = self.regs
        if not regs["bus_pending"] and request is None:
            return  # idle, and nothing issued: no register changes
        nxt = dict(regs)
        if regs["bus_pending"]:
            if regs["bus_stage"] == 1:
                nxt["bus_stage"] = 2
            else:  # stage 2 just committed (or aborted)
                nxt["bus_pending"] = 0
                nxt["bus_stage"] = 0
                if rdata is not None:
                    nxt["bus_rdata"] = rdata & self.memmap.data_mask
        elif request is not None:
            nxt["bus_pending"] = 1
            nxt["bus_stage"] = 1
            nxt["bus_addr"] = request.addr & self.memmap.addr_mask
            nxt["bus_wdata"] = request.wdata & self.memmap.data_mask
            nxt["bus_write"] = 1 if request.write else 0
            nxt["bus_src"] = request.src
        self.regs = nxt

    # checkpoint support -------------------------------------------------
    def get_registers(self) -> Dict[str, int]:
        return dict(self.regs)

    def set_registers(self, values: Mapping[str, int]) -> None:
        for name, value in values.items():
            self.regs[name] = value & self._specs[name].mask
