"""Evaluation context: one benchmark's shared design plus one engine's SoC.

:func:`build_context` runs the framework's setup stages:

1. elaborate the MPU netlist and place it;
2. golden-run the benchmark with checkpoints and the MPU port trace;
3. locate the target cycle ``Tt`` (the check cycle of the malicious
   access);
4. optionally run the full pre-characterization on a synthetic workload.

What they produce is a :class:`Design`, and engines only ever read it:
the dataclass is frozen, the MPU trace and the MPU lockstep tables are
tuples, the netlist's derived tables are filled before it is handed
out, and its numpy arrays are read-only.  One design therefore serves
any number of engines, in one thread or in several.
:meth:`repro.campaign.spec.CampaignSpec.build_context` keeps the
designs it builds in a per-process memo keyed by content, so every
spec-based build (service jobs, fleet workers, CLI verbs, replay) pays
setup once per design per process.
:func:`build_context` itself is uncached: each call runs every stage.

An :class:`EvaluationContext` is one engine's part: a design plus the
``Soc`` and ``RtlSimulator`` that the engine restarts, steps and
injects faults into.  Engines therefore never share a context;
:meth:`EvaluationContext.for_design` gives each its own.  The design's
fields read through the context under their own names
(``context.netlist`` is ``context.design.netlist``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.gatesim.timing import TimingModel
from repro.gatesim.transient import TransientSimulator
from repro.netlist.graph import Netlist
from repro.netlist.placement import GridPlacer, Placement
from repro.precharac.characterization import (
    CharacterizationConfig,
    SystemCharacterization,
    precharacterize,
)
from repro.rtl.simulator import GoldenRun, RtlSimulator
from repro.soc.memmap import MemoryMap, DEFAULT_MEMORY_MAP
from repro.soc.mpu import (
    BASELINE_VARIANT,
    MpuConfigView,
    MpuLockstep,
    MpuVariant,
    build_mpu_netlist,
    default_responding_signals,
    mpu_decision,
)
from repro.soc.programs import BenchmarkProgram, reconfig_workload, synthetic_workload
from repro.soc.soc import MpuTraceEntry, Soc


@dataclass(frozen=True)
class Design:
    """One benchmark on one MPU variant: everything its engines read.

    ``transient_sim`` holds only the netlist's structural tables (see
    :class:`~repro.gatesim.transient.TransientSimulator`), so engines
    share it, and ``mpu_lockstep`` only the golden run's MPU tables (see
    :class:`~repro.soc.mpu.MpuLockstep`): each engine steps an MPU of
    its own on them.  The one part that grows after the build is the
    placement's strike-footprint memo: a pure function of the
    coordinates, filled on demand and outside the placement's value
    (``compare=False``).
    """

    memmap: MemoryMap
    benchmark: BenchmarkProgram
    netlist: Netlist
    placement: Placement
    timing: TimingModel
    golden: GoldenRun
    n_cycles: int
    target_cycle: int
    mpu_trace: Tuple[MpuTraceEntry, ...]
    mpu_lockstep: MpuLockstep
    responding: Tuple[int, ...]
    transient_sim: TransientSimulator
    characterization: Optional[SystemCharacterization] = None
    mpu_variant: MpuVariant = BASELINE_VARIANT

    def violation_check_cycles(self) -> List[int]:
        """All cycles in the golden run whose MPU check violated."""
        return find_violation_cycles(self.mpu_trace, self.memmap.n_mpu_regions)


@dataclass(eq=False)
class EvaluationContext:
    """One engine's part: a shared :class:`Design` and a SoC of its own.

    Every field of the design reads through as a read-only property
    (``context.golden``, ``context.characterization``, ...), so nothing
    an engine holds can replace a part of the shared design.
    """

    design: Design
    soc: Soc
    simulator: RtlSimulator

    @classmethod
    def for_design(cls, design: Design) -> "EvaluationContext":
        """A context with a fresh SoC on ``design``.

        Every engine run restores a golden checkpoint before it steps,
        so a fresh SoC behaves as the one the golden run left behind.
        """
        soc = Soc(design.memmap, design.mpu_variant)
        soc.load_program(design.benchmark.program.words)
        soc.reset()
        return cls(design, soc, RtlSimulator(soc))

    def violation_check_cycles(self) -> List[int]:
        """All cycles in the golden run whose MPU check violated."""
        return self.design.violation_check_cycles()


for _field in fields(Design):
    setattr(
        EvaluationContext,
        _field.name,
        property(attrgetter(f"design.{_field.name}")),
    )
del _field


def find_violation_cycles(mpu_trace: Sequence, n_regions: int) -> List[int]:
    """Cycles ``c`` whose captured request violates (``viol_q`` latches at
    the end of ``c``)."""
    cycles = []
    for entry in mpu_trace:
        state = entry.state
        if not state["req_valid"]:
            continue
        cfg = MpuConfigView.from_registers(state, n_regions)
        if mpu_decision(
            cfg,
            state["req_addr"],
            bool(state["req_write"]),
            bool(state["req_priv"]),
        ):
            cycles.append(entry.cycle)
    return cycles


def build_context(
    benchmark: BenchmarkProgram,
    memmap: MemoryMap = DEFAULT_MEMORY_MAP,
    timing: Optional[TimingModel] = None,
    placement_seed: int = 7,
    checkpoint_interval: int = 25,
    characterize: bool = True,
    charac_config: Optional[CharacterizationConfig] = None,
    synthetic_seed: int = 11,
    mpu_variant: MpuVariant = BASELINE_VARIANT,
) -> EvaluationContext:
    """Build a fresh :class:`Design` for one benchmark, and a context on it.

    Uncached: every call runs every setup stage.  The context's ``soc``
    is the one the golden run used.
    """
    timing = timing or TimingModel()
    netlist = build_mpu_netlist(memmap, mpu_variant)
    # Filled here, once: the attack techniques read it for every sample.
    netlist.arrival_times()
    placement = GridPlacer(pitch_um=2.0, jitter=0.25, seed=placement_seed).place(
        netlist
    )
    responding = tuple(default_responding_signals(netlist))

    # Golden run of the attacked benchmark, ports traced.
    soc = Soc(memmap, mpu_variant)
    soc.load_program(benchmark.program.words)
    soc.reset()
    halt_cycles = soc.run_until_halt()
    n_cycles = halt_cycles + benchmark.cycle_slack

    simulator = RtlSimulator(soc)
    soc.record_mpu_trace = True
    golden = simulator.golden_run(n_cycles, checkpoint_interval, collect_traces=False)
    soc.record_mpu_trace = False
    mpu_trace = tuple(soc.mpu_trace)

    check_cycles = find_violation_cycles(mpu_trace, memmap.n_mpu_regions)
    if benchmark.illegal_accesses and not check_cycles:
        raise EvaluationError(
            f"benchmark {benchmark.name!r} never triggered an MPU violation; "
            "cannot locate the target cycle"
        )
    target_cycle = check_cycles[0] if check_cycles else n_cycles // 2

    characterization: Optional[SystemCharacterization] = None
    if characterize:
        syn = synthetic_workload(seed=synthetic_seed, memmap=memmap)
        syn_soc = Soc(memmap, mpu_variant)
        syn_soc.load_program(syn.program.words)
        syn_soc.reset()
        syn_halt = syn_soc.run_until_halt()
        syn_cycles = syn_halt + 10
        syn_soc.record_mpu_trace = True
        RtlSimulator(syn_soc).golden_run(
            syn_cycles, checkpoint_interval, collect_traces=False
        )
        syn_soc.record_mpu_trace = False
        syn_trace = list(syn_soc.mpu_trace)

        # Excitation run for the correlation step: same platform, but with
        # MPU reconfiguration so configuration state actually toggles.
        exc = reconfig_workload(seed=synthetic_seed + 1, memmap=memmap)
        exc_soc = Soc(memmap, mpu_variant)
        exc_soc.load_program(exc.program.words)
        exc_soc.reset()
        exc_halt = exc_soc.run_until_halt()
        exc_soc.record_mpu_trace = True
        RtlSimulator(exc_soc).golden_run(
            exc_halt + 10, checkpoint_interval, collect_traces=False
        )
        exc_trace = list(exc_soc.mpu_trace)

        characterization = precharacterize(
            netlist,
            responding,
            syn_trace,
            syn_soc,
            n_cycles=syn_cycles,
            config=charac_config,
            excitation_trace=exc_trace,
        )

    design = Design(
        memmap=memmap,
        benchmark=benchmark,
        netlist=netlist,
        placement=placement,
        timing=timing,
        golden=golden,
        n_cycles=n_cycles,
        target_cycle=target_cycle,
        mpu_trace=mpu_trace,
        mpu_lockstep=MpuLockstep.from_trace(
            mpu_trace, golden.final.registers, memmap, mpu_variant
        ),
        responding=responding,
        transient_sim=TransientSimulator(netlist, timing),
        characterization=characterization,
        mpu_variant=mpu_variant,
    )
    return EvaluationContext(design, soc, simulator)
