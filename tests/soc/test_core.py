"""Per-instruction semantics of the behavioural core.

Each test assembles a tiny program, runs the full SoC to halt, and checks
architectural state — so these double as ISA conformance tests for the
fetch/decode/execute path including the 4-cycle memory pipeline.
"""

import pytest

from repro.soc.assembler import assemble
from repro.soc.core import CoreState
from repro.soc.isa import Csr, TrapCause
from repro.soc.soc import Soc


def run_program(source: str, max_cycles: int = 5000) -> Soc:
    soc = Soc()
    soc.load_program(assemble(source).words)
    soc.reset()
    soc.run_until_halt(max_cycles)
    return soc


def gpr(soc: Soc, index: int) -> int:
    return soc.core.regs[f"core_gpr{index}"]


class TestAluOps:
    def test_li_lui(self):
        soc = run_program("li r1, -2\nlui r2, 0x8001\nhalt")
        assert gpr(soc, 1) == 0xFFFFFFFE
        assert gpr(soc, 2) == 0x80010000

    def test_arith(self):
        soc = run_program("""
            li r1, 7
            li r2, 3
            add r3, r1, r2
            sub r4, r1, r2
            sub r5, r2, r1
            halt
        """)
        assert gpr(soc, 3) == 10
        assert gpr(soc, 4) == 4
        assert gpr(soc, 5) == (3 - 7) & 0xFFFFFFFF

    def test_logic(self):
        soc = run_program("""
            li r1, 0xFF0
            li r2, 0x0FF
            and r3, r1, r2
            or  r4, r1, r2
            xor r5, r1, r2
            halt
        """)
        assert gpr(soc, 3) == 0x0F0
        assert gpr(soc, 4) == 0xFFF
        assert gpr(soc, 5) == 0xF0F

    def test_shifts(self):
        soc = run_program("""
            li r1, 0x81
            li r2, 4
            shl r3, r1, r2
            shr r4, r1, r2
            halt
        """)
        assert gpr(soc, 3) == 0x810
        assert gpr(soc, 4) == 0x8

    def test_r0_hardwired_zero(self):
        soc = run_program("li r0, 99\nadd r1, r0, r0\nhalt")
        assert gpr(soc, 1) == 0

    def test_addi_negative(self):
        soc = run_program("li r1, 5\naddi r2, r1, -9\nhalt")
        assert gpr(soc, 2) == (5 - 9) & 0xFFFFFFFF


class TestControlFlow:
    def test_branches(self):
        soc = run_program("""
            li r1, 1
            li r2, 1
            beq r1, r2, equal
            li r3, 111
            halt
        equal:
            li r3, 222
            bne r1, r0, done
            li r3, 333
        done:
            halt
        """)
        assert gpr(soc, 3) == 222

    def test_jal_links(self):
        soc = run_program("""
            jal r7, sub
            halt
        sub:
            li r1, 5
            jmp back
        back:
            halt
        """)
        assert gpr(soc, 7) == 1
        assert gpr(soc, 1) == 5

    def test_loop(self):
        soc = run_program("""
            li r1, 5
            li r2, 0
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        """)
        assert gpr(soc, 2) == 15


class TestMemoryOps:
    def test_store_load_roundtrip(self):
        soc = run_program("""
            li r1, 0x0300
            li r2, 12345
            sw r2, r1, 0
            lw r3, r1, 0
            halt
        """)
        assert gpr(soc, 3) == 12345
        assert soc.memory.read(0x0300) == 12345

    def test_offset_addressing(self):
        soc = run_program("""
            li r1, 0x0300
            li r2, 7
            sw r2, r1, 5
            lw r3, r1, 5
            halt
        """)
        assert soc.memory.read(0x0305) == 7
        assert gpr(soc, 3) == 7

    def test_memory_op_takes_four_cycles(self):
        soc = Soc()
        soc.load_program(assemble("li r1, 0x300\nsw r1, r1, 0\nhalt").words)
        soc.reset()
        soc.step()  # li
        assert soc.core.regs["core_state"] == CoreState.RUN
        soc.step()  # sw issue
        assert soc.core.regs["core_state"] == CoreState.MEM1
        soc.step()
        assert soc.core.regs["core_state"] == CoreState.MEM2
        soc.step()
        assert soc.core.regs["core_state"] == CoreState.MEM3
        soc.step()
        assert soc.core.regs["core_state"] == CoreState.RUN

    @pytest.mark.parametrize("state", [5, 6, 7])
    def test_out_of_range_state_raises(self, state):
        """``core_state`` is 3 bits wide for 5 states: an upset that leaves
        it at 5-7 raises on the next step instead of executing."""
        soc = Soc()
        soc.load_program(assemble("li r1, 0x300\nsw r1, r1, 0\nhalt").words)
        soc.reset()
        soc.step()
        soc.set_registers({"core_state": state})
        before = soc.get_registers()
        with pytest.raises(ValueError):
            soc.step()
        assert soc.get_registers() == before


class TestPrivilegeAndTraps:
    def test_boot_mode_is_privileged(self):
        soc = Soc()
        soc.load_program(assemble("halt").words)
        soc.reset()
        assert soc.core.regs["core_mode"] == 1

    def test_eret_drops_privilege(self):
        soc = run_program(f"""
            li r1, =target
            csrw {int(Csr.EPC)}, r1
            eret
        target:
            halt
        """)
        assert soc.core.regs["core_mode"] == 0

    def test_svc_raises_privilege_and_returns(self):
        soc = run_program(f"""
            li r1, =handler
            csrw {int(Csr.TRAPVEC)}, r1
            li r1, =user
            csrw {int(Csr.EPC)}, r1
            eret
        user:
            svc
            li r2, 1
            halt
        handler:
            li r3, 9
            eret
        """)
        assert gpr(soc, 3) == 9  # handler ran
        assert gpr(soc, 2) == 1  # resumed after svc
        assert soc.core.regs["core_cause"] == TrapCause.SVC

    def test_unprivileged_csrw_traps(self):
        soc = run_program(f"""
            li r1, =handler
            csrw {int(Csr.TRAPVEC)}, r1
            li r1, =user
            csrw {int(Csr.EPC)}, r1
            eret
        user:
            csrw {int(Csr.TRAPVEC)}, r1    ; privileged CSR from user mode
            li r2, 5
            halt
        handler:
            li r3, 7
            eret
        """)
        assert gpr(soc, 3) == 7
        assert gpr(soc, 2) == 5  # execution resumed past the faulting csrw
        assert soc.core.regs["core_cause"] == TrapCause.ILLEGAL_CSR

    def test_csr_read_violation_status(self):
        from repro.soc.programs import illegal_write_benchmark

        # After the benchmark's violation, VIOLFLAG/VIOLADDR are readable.
        bench = illegal_write_benchmark()
        soc = Soc()
        soc.load_program(bench.program.words)
        soc.reset()
        soc.run_until_halt()
        assert soc.mpu.regs["sticky_flag"] == 1
        assert soc.mpu.regs["viol_addr"] == bench.protected_addr
