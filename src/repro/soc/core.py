"""The processor core (behavioural).

A compact in-order core: one instruction per cycle except loads/stores,
which take four (issue, MPU check, commit, writeback) through the bus
pipeline.  It implements the privilege machinery the benchmarks need —
user/privileged modes, a trap vector, SVC/ERET, privileged CSRs — and is
the consumer of the MPU's responding signals: a ``viol_q`` during the
commit stage of its own transaction makes it take the MPU-violation trap
instead of completing the access.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.rtl.device import RegisterSpec
from repro.soc.bus import BusRequest, BusStatus, SRC_CORE
from repro.soc.isa import Csr, Opcode, TrapCause, csr_is_privileged, decode
from repro.soc.memmap import MemoryMap, DEFAULT_MEMORY_MAP
from repro.soc.mpu import CFG_FIELD_BASE, CFG_FIELD_PERM, CFG_FIELD_TOP, MpuOutputs


class CoreState(enum.IntEnum):
    RUN = 0
    MEM1 = 1   # transaction captured, MPU checking
    MEM2 = 2   # commit stage: observe grant_q / viol_q
    MEM3 = 3   # writeback (loads), advance pc
    HALT = 4


# The per-cycle path compares against these bindings: an enum attribute
# lookup, or an enum call, costs more than the comparison itself.
_RUN, _MEM1, _MEM2, _MEM3, _HALT = CoreState

#: Register names of r1..r7 (r0 is hardwired to zero).
_GPR_NAMES = (None,) + tuple(f"core_gpr{i}" for i in range(1, 8))

#: Instruction words repeat (a program is a few hundred words), and an
#: :class:`~repro.soc.isa.Instruction` is immutable: decode each once.
_decode = functools.lru_cache(maxsize=1024)(decode)


@dataclass
class CoreComb:
    """Everything the core decides combinationally in one cycle."""

    next_regs: Dict[str, int]
    request: Optional[BusRequest] = None
    cfg_write: Optional[Tuple[int, int, int]] = None  # (region, field, data)
    flag_clear: bool = False


def core_register_specs(memmap: MemoryMap = DEFAULT_MEMORY_MAP) -> Dict[str, RegisterSpec]:
    specs: Dict[str, RegisterSpec] = {
        "core_pc": RegisterSpec(memmap.addr_bits),
        # Reset in privileged mode, like any real boot flow.
        "core_mode": RegisterSpec(1, init=1),
        "core_state": RegisterSpec(3),
        "core_trapvec": RegisterSpec(memmap.addr_bits),
        "core_epc": RegisterSpec(memmap.addr_bits),
        "core_cause": RegisterSpec(2),
        "core_mem_rd": RegisterSpec(3),
        "core_mem_is_load": RegisterSpec(1),
    }
    for i in range(1, 8):
        specs[f"core_gpr{i}"] = RegisterSpec(memmap.data_bits)
    return specs


class Core:
    """Behavioural core; registers prefixed ``core_``."""

    def __init__(self, memmap: MemoryMap = DEFAULT_MEMORY_MAP):
        self.memmap = memmap
        self._specs = core_register_specs(memmap)
        self._amask = memmap.addr_mask
        self._dmask = memmap.data_mask
        self.regs: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.regs = {name: spec.init for name, spec in self._specs.items()}

    def register_specs(self) -> Dict[str, RegisterSpec]:
        return dict(self._specs)

    # ------------------------------------------------------------------
    # register-file helpers
    # ------------------------------------------------------------------
    def _read_gpr(self, regs: Mapping[str, int], index: int) -> int:
        if index == 0:
            return 0
        return regs[_GPR_NAMES[index]]

    @staticmethod
    def _write_gpr(nxt: Dict[str, int], index: int, value: int, mask: int) -> None:
        if index != 0:
            nxt[_GPR_NAMES[index]] = value & mask

    @property
    def halted(self) -> bool:
        return self.regs["core_state"] == _HALT

    # ------------------------------------------------------------------
    # combinational cycle logic
    # ------------------------------------------------------------------
    def compute(self, mpu: MpuOutputs, bus: BusStatus, memory) -> CoreComb:
        regs = self.regs
        nxt = dict(regs)
        comb = CoreComb(next_regs=nxt)
        state = regs["core_state"]
        dmask = self._dmask
        amask = self._amask
        pc = regs["core_pc"]

        if state == _HALT:
            return comb

        if state == _MEM1:
            nxt["core_state"] = CoreState.MEM2
            return comb

        if state == _MEM2:
            if bus.src == SRC_CORE and bus.stage == 2:
                if mpu.viol_q:
                    self._trap(nxt, TrapCause.MPU_VIOLATION, return_pc=pc + 1)
                else:
                    # Granted — or silently blocked (viol_q suppressed but no
                    # grant): either way the pipeline must drain.
                    nxt["core_state"] = CoreState.MEM3
            else:  # pragma: no cover - protocol keeps this unreachable
                nxt["core_state"] = CoreState.MEM3
            return comb

        if state == _MEM3:
            if regs["core_mem_is_load"]:
                self._write_gpr(nxt, regs["core_mem_rd"], bus.rdata_q, dmask)
            nxt["core_pc"] = (pc + 1) & amask
            nxt["core_state"] = CoreState.RUN
            return comb

        if state != _RUN:
            # A 3-bit register holds 5 states; an upset can leave it at 5-7.
            raise ValueError(f"{state!r} is not a valid {CoreState.__name__}")

        # ---------------- CoreState.RUN: fetch + execute ----------------
        instr = _decode(memory.fetch(pc))
        op = instr.opcode
        rs1 = self._read_gpr(regs, instr.rs1)
        rs2 = self._read_gpr(regs, instr.rs2)
        next_pc = (pc + 1) & amask

        if op == Opcode.NOP:
            pass
        elif op == Opcode.HALT:
            nxt["core_state"] = CoreState.HALT
            next_pc = pc
        elif op == Opcode.LI:
            self._write_gpr(nxt, instr.rd, instr.imm, dmask)
        elif op == Opcode.LUI:
            self._write_gpr(nxt, instr.rd, (instr.imm & 0xFFFF) << 16, dmask)
        elif op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                    Opcode.XOR, Opcode.SHL, Opcode.SHR):
            self._write_gpr(nxt, instr.rd, _alu(op, rs1, rs2, dmask), dmask)
        elif op == Opcode.ADDI:
            self._write_gpr(nxt, instr.rd, rs1 + instr.imm, dmask)
        elif op in (Opcode.LW, Opcode.SW):
            if bus.free:
                addr = (rs1 + instr.imm) & amask
                comb.request = BusRequest(
                    addr=addr,
                    write=(op == Opcode.SW),
                    wdata=rs2,
                    priv=bool(regs["core_mode"]),
                    src=SRC_CORE,
                )
                nxt["core_mem_rd"] = instr.rd
                nxt["core_mem_is_load"] = 1 if op == Opcode.LW else 0
                nxt["core_state"] = CoreState.MEM1
            # Bus busy: retry this instruction next cycle.
            next_pc = pc
        elif op == Opcode.BEQ:
            next_pc = (instr.imm & amask) if rs1 == rs2 else next_pc
        elif op == Opcode.BNE:
            next_pc = (instr.imm & amask) if rs1 != rs2 else next_pc
        elif op == Opcode.JMP:
            next_pc = instr.imm & amask
        elif op == Opcode.JAL:
            self._write_gpr(nxt, instr.rd, pc + 1, dmask)
            next_pc = instr.imm & amask
        elif op == Opcode.CSRR:
            self._write_gpr(nxt, instr.rd, self._csr_read(instr.imm, mpu), dmask)
        elif op == Opcode.CSRW:
            next_pc = self._csr_write(comb, nxt, instr.imm, rs1, pc, next_pc)
        elif op == Opcode.SVC:
            self._trap(nxt, TrapCause.SVC, return_pc=pc + 1)
            next_pc = nxt["core_pc"]
        elif op == Opcode.ERET:
            nxt["core_mode"] = 0
            next_pc = regs["core_epc"]

        if nxt["core_state"] not in (_MEM1, _HALT):
            nxt["core_pc"] = next_pc & amask
        return comb

    # ------------------------------------------------------------------
    # CSR / trap helpers
    # ------------------------------------------------------------------
    def _csr_read(self, index: int, mpu: MpuOutputs) -> int:
        if index == Csr.TRAPVEC:
            return self.regs["core_trapvec"]
        if index == Csr.EPC:
            return self.regs["core_epc"]
        if index == Csr.CAUSE:
            return self.regs["core_cause"]
        if index == Csr.VIOLFLAG:
            return mpu.sticky_flag
        if index == Csr.VIOLADDR:
            return mpu.viol_addr
        return 0  # MPU config is write-only from the core's side

    def _csr_write(
        self,
        comb: CoreComb,
        nxt: Dict[str, int],
        index: int,
        value: int,
        pc: int,
        next_pc: int,
    ) -> int:
        if csr_is_privileged(index, self.memmap.n_mpu_regions) and not self.regs["core_mode"]:
            self._trap(nxt, TrapCause.ILLEGAL_CSR, return_pc=pc + 1)
            return nxt["core_pc"]
        amask = self.memmap.addr_mask
        if index == Csr.TRAPVEC:
            nxt["core_trapvec"] = value & amask
        elif index == Csr.EPC:
            nxt["core_epc"] = value & amask
        elif index == Csr.CAUSE:
            nxt["core_cause"] = value & 0x3
        elif index == Csr.VIOLFLAG:
            comb.flag_clear = True
        elif Csr.MPU_CFG_BASE <= index < Csr.MPU_CFG_BASE + 4 * self.memmap.n_mpu_regions:
            offset = index - Csr.MPU_CFG_BASE
            region, cfg_field = divmod(offset, 4)
            if cfg_field in (CFG_FIELD_BASE, CFG_FIELD_TOP, CFG_FIELD_PERM):
                comb.cfg_write = (region, cfg_field, value & amask)
        return next_pc

    def _trap(self, nxt: Dict[str, int], cause: TrapCause, return_pc: int) -> None:
        nxt["core_epc"] = return_pc & self.memmap.addr_mask
        nxt["core_cause"] = int(cause) & 0x3
        nxt["core_mode"] = 1
        nxt["core_pc"] = self.regs["core_trapvec"]
        nxt["core_state"] = CoreState.RUN

    # ------------------------------------------------------------------
    # state exchange
    # ------------------------------------------------------------------
    def commit(self, next_regs: Dict[str, int]) -> None:
        self.regs = next_regs

    def get_registers(self) -> Dict[str, int]:
        return dict(self.regs)

    def set_registers(self, values: Mapping[str, int]) -> None:
        for name, value in values.items():
            self.regs[name] = value & self._specs[name].mask


def _alu(op: Opcode, a: int, b: int, mask: int) -> int:
    if op == Opcode.ADD:
        return a + b
    if op == Opcode.SUB:
        return a - b
    if op == Opcode.AND:
        return a & b
    if op == Opcode.OR:
        return a | b
    if op == Opcode.XOR:
        return a ^ b
    if op == Opcode.SHL:
        return a << (b & 31)
    if op == Opcode.SHR:
        return (a & mask) >> (b & 31)
    raise ValueError(f"not an ALU opcode: {op}")
