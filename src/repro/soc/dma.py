"""DMA controller peripheral.

A classic mem-to-mem engine programmed through four MMIO registers (SRC,
DST, LEN, CTRL).  Every transfer beat is two bus transactions — a read of
``src + i`` and a write of ``dst + i`` — and each goes through the MPU like
any core access (Fig. 1 of the paper shows peripherals behind the same
access check).  A violation aborts the transfer and sets the error bit.

The DMA matters to the evaluation for two reasons: its configuration
registers are classic *memory-type* registers (written once, then static),
and it provides the third attacker workload (unprivileged code trying to
exfiltrate protected memory via DMA).
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional

from repro.rtl.device import RegisterSpec
from repro.soc.bus import BusRequest, BusStatus, SRC_DMA
from repro.soc.memmap import (
    DMA_REG_CTRL,
    DMA_REG_DST,
    DMA_REG_LEN,
    DMA_REG_SRC,
    MemoryMap,
    DEFAULT_MEMORY_MAP,
)


class DmaState(enum.IntEnum):
    IDLE = 0         # waiting for the bus to start the next read beat
    RD_INFLIGHT = 1  # read transaction owned by us is in the bus pipeline
    WR_PEND = 2      # have read data, waiting for the bus for the write
    WR_INFLIGHT = 3  # write transaction in the pipeline


# Per-cycle comparisons use these bindings rather than enum lookups.
_IDLE, _RD_INFLIGHT, _WR_PEND, _WR_INFLIGHT = DmaState


def dma_register_specs(memmap: MemoryMap = DEFAULT_MEMORY_MAP) -> Dict[str, RegisterSpec]:
    return {
        "dma_src": RegisterSpec(memmap.addr_bits),
        "dma_dst": RegisterSpec(memmap.addr_bits),
        "dma_len": RegisterSpec(memmap.addr_bits),
        "dma_active": RegisterSpec(1),
        "dma_error": RegisterSpec(1),
        "dma_state": RegisterSpec(2),
        "dma_cnt": RegisterSpec(memmap.addr_bits),
        "dma_data": RegisterSpec(memmap.data_bits),
    }


class Dma:
    """Behavioural DMA engine; registers prefixed ``dma_``."""

    def __init__(self, memmap: MemoryMap = DEFAULT_MEMORY_MAP):
        self.memmap = memmap
        self._specs = dma_register_specs(memmap)
        self.regs: Dict[str, int] = {}
        # MMIO write arriving this cycle, applied at the edge.
        self._mmio_write: Optional[tuple] = None
        self.reset()

    def reset(self) -> None:
        self.regs = {name: spec.init for name, spec in self._specs.items()}
        self._mmio_write = None

    def register_specs(self) -> Dict[str, RegisterSpec]:
        return dict(self._specs)

    # ------------------------------------------------------------------
    # MMIO port (called by the bus during its commit stage)
    # ------------------------------------------------------------------
    def mmio_read(self, offset: int) -> int:
        if offset == DMA_REG_SRC:
            return self.regs["dma_src"]
        if offset == DMA_REG_DST:
            return self.regs["dma_dst"]
        if offset == DMA_REG_LEN:
            return self.regs["dma_len"]
        if offset == DMA_REG_CTRL:
            return self.regs["dma_active"] | (self.regs["dma_error"] << 1)
        return 0

    def mmio_write(self, offset: int, value: int) -> None:
        """Record an MMIO write; it takes effect at the coming clock edge."""
        self._mmio_write = (offset, value)

    # ------------------------------------------------------------------
    # bus mastering
    # ------------------------------------------------------------------
    def request(self, bus: BusStatus, core_is_issuing: bool) -> Optional[BusRequest]:
        """The DMA's bus request for this cycle, if any.

        DMA transfers run *unprivileged*: the engine acts on behalf of
        whoever programmed it, so its accesses are checked against the
        user-mode rules (the conservative hardware policy).
        """
        if not bus.free or core_is_issuing or not self.regs["dma_active"]:
            return None
        state = self.regs["dma_state"]
        if state == _IDLE and self.regs["dma_cnt"] < self.regs["dma_len"]:
            return BusRequest(
                addr=(self.regs["dma_src"] + self.regs["dma_cnt"])
                & self.memmap.addr_mask,
                write=False,
                priv=False,
                src=SRC_DMA,
            )
        if state == _WR_PEND:
            return BusRequest(
                addr=(self.regs["dma_dst"] + self.regs["dma_cnt"])
                & self.memmap.addr_mask,
                write=True,
                wdata=self.regs["dma_data"],
                priv=False,
                src=SRC_DMA,
            )
        return None

    def step(
        self,
        bus: BusStatus,
        issued: Optional[BusRequest],
        viol: bool,
        rdata: Optional[int],
    ) -> None:
        """Clock edge.

        ``issued`` is the request the bus accepted this cycle (ours or the
        core's); ``viol`` is the MPU violation output visible this cycle;
        ``rdata`` is the read data the bus is latching (None if none).
        """
        regs = self.regs
        state = regs["dma_state"]
        our_issue = issued is not None and issued.src == SRC_DMA
        if (
            state == _IDLE
            and not regs["dma_active"]
            and not our_issue
            and self._mmio_write is None
        ):
            return  # idle, inactive, no MMIO write: no register changes
        nxt = dict(regs)
        our_commit = (not bus.free) and bus.stage == 2 and bus.src == SRC_DMA

        if state == _IDLE:
            if regs["dma_active"] and regs["dma_cnt"] >= regs["dma_len"]:
                nxt["dma_active"] = 0  # transfer complete
                nxt["dma_cnt"] = 0
            elif our_issue:
                nxt["dma_state"] = DmaState.RD_INFLIGHT
        elif state == _RD_INFLIGHT:
            if our_commit:
                if viol:
                    nxt["dma_active"] = 0
                    nxt["dma_error"] = 1
                    nxt["dma_cnt"] = 0
                    nxt["dma_state"] = DmaState.IDLE
                else:
                    # Without a grant rdata stays None and dma_data holds its
                    # stale value — a silently-blocked read beat.
                    if rdata is not None:
                        nxt["dma_data"] = rdata & self.memmap.data_mask
                    nxt["dma_state"] = DmaState.WR_PEND
        elif state == _WR_PEND:
            if our_issue:
                nxt["dma_state"] = DmaState.WR_INFLIGHT
        elif state == _WR_INFLIGHT:
            if our_commit:
                if viol:
                    nxt["dma_active"] = 0
                    nxt["dma_error"] = 1
                    nxt["dma_cnt"] = 0
                else:
                    nxt["dma_cnt"] = (regs["dma_cnt"] + 1) & self.memmap.addr_mask
                nxt["dma_state"] = DmaState.IDLE

        # MMIO writes win over the engine's own updates.
        if self._mmio_write is not None:
            offset, value = self._mmio_write
            if offset == DMA_REG_SRC:
                nxt["dma_src"] = value & self.memmap.addr_mask
            elif offset == DMA_REG_DST:
                nxt["dma_dst"] = value & self.memmap.addr_mask
            elif offset == DMA_REG_LEN:
                nxt["dma_len"] = value & self.memmap.addr_mask
            elif offset == DMA_REG_CTRL:
                nxt["dma_active"] = value & 1
                nxt["dma_error"] = 0
                nxt["dma_cnt"] = 0
                nxt["dma_state"] = DmaState.IDLE
            self._mmio_write = None

        self.regs = nxt

    # checkpoint support -------------------------------------------------
    def get_registers(self) -> Dict[str, int]:
        return dict(self.regs)

    def set_registers(self, values: Mapping[str, int]) -> None:
        for name, value in values.items():
            self.regs[name] = value & self._specs[name].mask
