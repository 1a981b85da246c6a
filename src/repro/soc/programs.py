"""Attacker workloads and synthetic pre-characterization programs.

The paper's benchmark is "written in C++ [and] includes illegal memory write
and read operations"; ours are written in the SoC's assembly.  Every
benchmark follows the same shape:

1. **boot** (privileged): program the MPU regions, plant the secret, set the
   trap vector and drop to user mode;
2. **user prologue**: benign loads/stores (gives the pre-characterization
   realistic switching activity);
3. **the malicious operation** — an access the MPU policy forbids (this is
   the paper's target cycle ``Tt`` neighbourhood);
4. **user epilogue** and ``halt``.

The violation handler increments a counter in user RAM, so "the system
detected the attack" is observable as ``counter > 0`` or the MPU sticky
flag.  A *successful* attack commits the malicious operation **and** leaves
both clean — exactly the paper's illegal-transition-without-response
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.soc.assembler import AssembledProgram, assemble
from repro.soc.isa import Csr
from repro.soc.memmap import (
    DMA_REG_CTRL,
    DMA_REG_DST,
    DMA_REG_LEN,
    DMA_REG_SRC,
    MemoryMap,
    DEFAULT_MEMORY_MAP,
    MpuRegionInit,
)
from repro.utils.rng import SeedLike, as_generator

# Fixed data locations (user RAM, word addresses).
COUNTER_ADDR = 0x0300
USER_BUFFER = 0x0200
LEAK_ADDR = 0x0210
SECRET_ADDR = 0x1040
SECRET_VALUE = 0xC0DE
ATTACK_VALUE = 0xBEEF
PROTECTED_TARGET = 0x1050


@dataclass
class IllegalAccess:
    """Metadata about one malicious access (for the analytical evaluator)."""

    addr: int
    write: bool
    priv: bool = False


@dataclass
class BenchmarkProgram:
    """An assembled workload plus everything needed to judge an attack."""

    name: str
    kind: str  # "write" | "read" | "dma" | "synthetic"
    program: AssembledProgram
    illegal_accesses: List[IllegalAccess]
    counter_addr: int = COUNTER_ADDR
    protected_addr: int = PROTECTED_TARGET
    attack_value: int = ATTACK_VALUE
    secret_addr: int = SECRET_ADDR
    secret_value: int = SECRET_VALUE
    leak_addr: int = LEAK_ADDR
    cycle_slack: int = 80

    # ------------------------------------------------------------------
    # outcome predicates (evaluated on a finished SoC)
    # ------------------------------------------------------------------
    def detected(self, soc) -> bool:
        """Did any protection mechanism notice the attack?"""
        sticky = bool(soc.mpu.regs["sticky_flag"])
        counter = soc.memory.read(self.counter_addr) > 0
        dma_error = bool(soc.dma.regs["dma_error"]) if self.kind == "dma" else False
        return sticky or counter or dma_error

    def malicious_op_committed(self, soc) -> bool:
        """Did the forbidden operation actually take effect?"""
        if self.kind == "write":
            return soc.memory.read(self.protected_addr) == self.attack_value
        if self.kind == "read":
            return soc.memory.read(self.leak_addr) == self.secret_value
        if self.kind == "dma":
            return soc.memory.read(self.leak_addr) == self.secret_value
        return False

    def attack_succeeded(self, soc) -> bool:
        """The paper's indicator ``e``: bypass committed and undetected."""
        return self.malicious_op_committed(soc) and not self.detected(soc)


def _region_setup_asm(regions: List[MpuRegionInit]) -> str:
    lines = []
    for i, region in enumerate(regions):
        base_csr = Csr.MPU_CFG_BASE + 4 * i
        lines.append(f"    li   r1, {region.base}")
        lines.append(f"    csrw {base_csr}, r1")
        lines.append(f"    li   r1, {region.top}")
        lines.append(f"    csrw {base_csr + 1}, r1")
        lines.append(f"    li   r1, {region.perm_bits()}")
        lines.append(f"    csrw {base_csr + 2}, r1")
    return "\n".join(lines)


_TRAP_HANDLER = f"""
trap_handler:
    ; record the violation, then resume after the faulting instruction
    li   r6, {COUNTER_ADDR}
    lw   r5, r6, 0
    addi r5, r5, 1
    sw   r5, r6, 0
    eret
"""


def _boot_asm(
    regions: List[MpuRegionInit],
    plant_secret: bool,
) -> str:
    secret = ""
    if plant_secret:
        secret = f"""
    li   r1, {SECRET_VALUE}
    li   r2, {SECRET_ADDR}
    sw   r1, r2, 0
"""
    return f"""
boot:
{_region_setup_asm(regions)}
{secret}
    li   r1, =trap_handler
    csrw {int(Csr.TRAPVEC)}, r1
    li   r1, =user_main
    csrw {int(Csr.EPC)}, r1
    eret
"""


_BENIGN_LOOP = f"""
    ; benign user activity: walk a buffer with stores and loads
    li   r3, {USER_BUFFER}
    li   r4, 6
benign_loop:
    sw   r4, r3, 0
    lw   r5, r3, 0
    add  r6, r6, r5
    addi r3, r3, 2
    addi r4, r4, -1
    bne  r4, r0, benign_loop
"""


def illegal_write_benchmark(
    memmap: MemoryMap = DEFAULT_MEMORY_MAP,
) -> BenchmarkProgram:
    """Unprivileged store into the MPU-protected window (paper's scenario 1)."""
    source = f"""
    jmp boot
{_TRAP_HANDLER}
{_boot_asm(memmap.default_regions(), plant_secret=True)}
user_main:
{_BENIGN_LOOP}
    ; ---- the malicious operation ----
    li   r2, {ATTACK_VALUE}
    li   r1, {PROTECTED_TARGET}
    sw   r2, r1, 0
    ; ---- user epilogue ----
    li   r3, {USER_BUFFER + 1}
    lw   r5, r3, 0
    add  r6, r6, r5
    sw   r6, r3, 1
    halt
"""
    return BenchmarkProgram(
        name="illegal_write",
        kind="write",
        program=assemble(source),
        illegal_accesses=[IllegalAccess(PROTECTED_TARGET, write=True)],
    )


def illegal_read_benchmark(
    memmap: MemoryMap = DEFAULT_MEMORY_MAP,
) -> BenchmarkProgram:
    """Unprivileged load of a protected secret, then exfiltration to user RAM."""
    source = f"""
    jmp boot
{_TRAP_HANDLER}
{_boot_asm(memmap.default_regions(), plant_secret=True)}
user_main:
{_BENIGN_LOOP}
    ; ---- the malicious operation: read the secret ----
    li   r1, {SECRET_ADDR}
    lw   r2, r1, 0
    ; exfiltrate whatever was read
    li   r3, {LEAK_ADDR}
    sw   r2, r3, 0
    ; ---- user epilogue ----
    lw   r5, r3, 0
    add  r6, r6, r5
    halt
"""
    return BenchmarkProgram(
        name="illegal_read",
        kind="read",
        program=assemble(source),
        illegal_accesses=[IllegalAccess(SECRET_ADDR, write=False)],
    )


def dma_exfiltration_benchmark(
    memmap: MemoryMap = DEFAULT_MEMORY_MAP,
) -> BenchmarkProgram:
    """User-mode DMA programmed to copy one protected word to user RAM.

    The DMA MMIO window is opened to user mode here (region 3 loses its
    privileged-only bit) — the "driver exposes DMA to userspace"
    configuration — but the DMA's *transfers* are still checked as
    unprivileged, so the read of the protected source violates.  The attack
    surface is the check of the DMA read beat.
    """
    regions = memmap.default_regions()
    regions[3] = MpuRegionInit(
        base=memmap.dma_mmio_base,
        top=memmap.dma_mmio_top,
        privileged_only=False,
    )
    mmio = memmap.dma_mmio_base
    source = f"""
    jmp boot
{_TRAP_HANDLER}
{_boot_asm(regions, plant_secret=True)}
user_main:
{_BENIGN_LOOP}
    ; ---- program the DMA: one word, protected -> user RAM ----
    li   r1, {SECRET_ADDR}
    li   r2, {mmio + DMA_REG_SRC}
    sw   r1, r2, 0
    li   r1, {LEAK_ADDR}
    li   r2, {mmio + DMA_REG_DST}
    sw   r1, r2, 0
    li   r1, 1
    li   r2, {mmio + DMA_REG_LEN}
    sw   r1, r2, 0
    li   r1, 1
    li   r2, {mmio + DMA_REG_CTRL}
    sw   r1, r2, 0
    ; ---- poll until the DMA goes idle ----
    li   r3, 1
poll:
    lw   r5, r2, 0
    and  r5, r5, r3
    bne  r5, r0, poll
    halt
"""
    return BenchmarkProgram(
        name="dma_exfiltration",
        kind="dma",
        program=assemble(source),
        illegal_accesses=[IllegalAccess(SECRET_ADDR, write=False)],
        cycle_slack=120,
    )


#: The attacked benchmarks by campaign name (``CampaignSpec.benchmark``,
#: the CLI's ``--benchmark``, conformance designs).
BENCHMARKS: Dict[str, Callable[[], BenchmarkProgram]] = {
    "write": illegal_write_benchmark,
    "read": illegal_read_benchmark,
    "dma": dma_exfiltration_benchmark,
}


def reconfig_workload(
    seed: SeedLike = 0,
    n_phases: int = 10,
    memmap: MemoryMap = DEFAULT_MEMORY_MAP,
) -> BenchmarkProgram:
    """Synthetic workload with periodic MPU *reconfiguration*.

    Real firmware reprograms the MPU on context switches; this workload
    models that: every phase executes an ``svc`` whose handler flips the
    configuration between the locked-down default and an "open" layout
    (user region grown over the protected window, region 1 no longer
    privileged-only), then probes the protected window at varying offsets.

    This is the *excitation* benchmark of the pre-characterization: the
    decision-critical configuration bits actually toggle here, and their
    toggles are followed (at the probe offsets) by responding-signal
    toggles, which is precisely what the bit-flip correlation ``Corr_i``
    measures.  The static :func:`synthetic_workload` remains the right
    input for the lifetime/contamination campaign (attack benchmarks do
    not reconfigure, so lifetimes there follow the static overwrite
    pattern).
    """
    rng = as_generator(seed)
    top0_csr = Csr.MPU_CFG_BASE + 0 * 4 + 1
    perm1_csr = Csr.MPU_CFG_BASE + 1 * 4 + 2
    default_top0 = memmap.protected_base - 1
    # The "open" layout grows the user region over the whole address space
    # (a boot-time configuration on real parts), so every top-bound bit
    # that can grant the protected window toggles and earns correlation.
    open_top0 = 0xFFFF
    default_perm1 = 0b1111  # EN | PRIV | W | R
    open_perm1 = 0b1011     # EN | W | R
    toggle_addr = COUNTER_ADDR + 4

    handler = f"""
trap_handler:
    csrr r5, {int(Csr.CAUSE)}
    li   r6, 3            ; TrapCause.SVC
    beq  r5, r6, reconfig
    ; MPU violation: bump the counter and resume
    li   r6, {COUNTER_ADDR}
    lw   r5, r6, 0
    addi r5, r5, 1
    sw   r5, r6, 0
    eret
reconfig:
    li   r6, {toggle_addr}
    lw   r5, r6, 0
    bne  r5, r0, open_layout
    ; -> locked layout (the boot default)
    li   r1, {default_top0}
    csrw {top0_csr}, r1
    li   r1, {default_perm1}
    csrw {perm1_csr}, r1
    li   r5, 1
    sw   r5, r6, 0
    eret
open_layout:
    li   r1, {open_top0}
    csrw {top0_csr}, r1
    li   r1, {open_perm1}
    csrw {perm1_csr}, r1
    sw   r0, r6, 0
    eret
"""
    blocks: List[str] = []
    for phase in range(n_phases):
        pad = int(rng.integers(0, 4))
        filler = "\n".join("    add  r7, r7, r7" for _ in range(pad))
        # A burst of probes at staggered offsets after the reconfiguration,
        # so the critical configuration bits earn correlation mass at many
        # unrolled frames (not just one).
        probe_lines: List[str] = []
        for _ in range(int(rng.integers(3, 6))):
            probe = int(
                rng.integers(memmap.protected_base, memmap.protected_top + 1)
            )
            user = int(rng.integers(0x0080, 0x0F00))
            inner_pad = "\n".join(
                "    add  r7, r7, r7" for _ in range(int(rng.integers(0, 3)))
            )
            probe_lines.append(f"""
{inner_pad}
    li   r1, {probe}
    lw   r6, r1, 0
    li   r1, {user}
    sw   r6, r1, 0
""")
        blocks.append(f"""
    svc
{filler}
{''.join(probe_lines)}
""")
    body = "\n".join(blocks)
    source = f"""
    jmp boot
{handler}
{_boot_asm(memmap.default_regions(), plant_secret=True)}
user_main:
{body}
    halt
"""
    return BenchmarkProgram(
        name=f"reconfig_{seed}",
        kind="synthetic",
        program=assemble(source),
        illegal_accesses=[],
    )


def synthetic_workload(
    seed: SeedLike = 0,
    n_blocks: int = 12,
    memmap: MemoryMap = DEFAULT_MEMORY_MAP,
) -> BenchmarkProgram:
    """Randomized mixed workload for the pre-characterization step.

    Alternates user-mode blocks of benign accesses at pseudo-random
    addresses with occasional illegal probes into the protected window, so
    the switching signatures cover both granted and violating paths (the
    bit-flip correlation needs the responding signals to toggle).
    """
    rng = as_generator(seed)
    blocks: List[str] = []
    for b in range(n_blocks):
        addr = int(rng.integers(0x0080, 0x0FF0))
        count = int(rng.integers(2, 5))
        value = int(rng.integers(1, 1 << 16))
        blocks.append(f"""
    li   r3, {addr}
    li   r4, {count}
    li   r5, {value}
syn_loop_{b}:
    sw   r5, r3, 0
    lw   r6, r3, 0
    add  r7, r7, r6
    addi r3, r3, 1
    addi r4, r4, -1
    bne  r4, r0, syn_loop_{b}
""")
        if rng.random() < 0.4:
            probe = int(
                rng.integers(memmap.protected_base, memmap.protected_top + 1)
            )
            write = bool(rng.integers(0, 2))
            if write:
                blocks.append(f"""
    li   r1, {probe}
    sw   r7, r1, 0
""")
            else:
                blocks.append(f"""
    li   r1, {probe}
    lw   r6, r1, 0
""")
    body = "\n".join(blocks)
    source = f"""
    jmp boot
{_TRAP_HANDLER}
{_boot_asm(memmap.default_regions(), plant_secret=True)}
user_main:
{body}
    halt
"""
    return BenchmarkProgram(
        name=f"synthetic_{seed}",
        kind="synthetic",
        program=assemble(source),
        illegal_accesses=[],
    )
