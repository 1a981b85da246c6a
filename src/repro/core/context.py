"""Evaluation context: everything wired together for one benchmark.

:func:`build_context` performs the framework's setup stages once
(:func:`build_cached_context` loads step 4 from a saved file instead):

1. elaborate the MPU netlist and place it;
2. golden-run the benchmark with checkpoints and the MPU port trace;
3. locate the target cycle ``Tt`` (the check cycle of the malicious
   access);
4. optionally run the full pre-characterization on a synthetic workload.

The resulting :class:`EvaluationContext` is immutable from the engine's
point of view and can be shared by many campaigns (different samplers,
attack specs, hardening what-ifs).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.gatesim.timing import TimingModel
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
    MpuVariant,
    build_mpu_netlist,
    default_responding_signals,
    mpu_decision,
)
from repro.soc.programs import BenchmarkProgram, reconfig_workload, synthetic_workload
from repro.soc.soc import Soc


@dataclass
class EvaluationContext:
    """Shared, read-only state for SSF campaigns on one benchmark."""

    memmap: MemoryMap
    benchmark: BenchmarkProgram
    soc: Soc
    simulator: RtlSimulator
    netlist: Netlist
    placement: Placement
    timing: TimingModel
    golden: GoldenRun
    n_cycles: int
    target_cycle: int
    mpu_trace: List
    responding: Tuple[int, ...]
    characterization: Optional[SystemCharacterization] = None
    mpu_variant: MpuVariant = BASELINE_VARIANT

    def violation_check_cycles(self) -> List[int]:
        """All cycles in the golden run whose MPU check violated."""
        return find_violation_cycles(self.mpu_trace, self.memmap.n_mpu_regions)


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
    """Assemble an :class:`EvaluationContext` for one benchmark."""
    timing = timing or TimingModel()
    netlist = build_mpu_netlist(memmap, mpu_variant)
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
    mpu_trace = list(soc.mpu_trace)

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

    return EvaluationContext(
        memmap=memmap,
        benchmark=benchmark,
        soc=soc,
        simulator=simulator,
        netlist=netlist,
        placement=placement,
        timing=timing,
        golden=golden,
        n_cycles=n_cycles,
        target_cycle=target_cycle,
        mpu_trace=mpu_trace,
        responding=responding,
        characterization=characterization,
        mpu_variant=mpu_variant,
    )


def build_cached_context(
    benchmark: BenchmarkProgram,
    mpu_variant: MpuVariant = BASELINE_VARIANT,
    charac_cache: Optional[str] = None,
) -> EvaluationContext:
    """:func:`build_context`, loading a saved pre-characterization.

    ``charac_cache`` names a file written by ``repro characterize``; it
    replaces the in-process characterization.  A path that does not exist
    raises :class:`EvaluationError` naming it, before any build work: a
    mistyped path must not turn into a silent re-characterization.
    """
    if not charac_cache:
        return build_context(benchmark, mpu_variant=mpu_variant)
    path = pathlib.Path(charac_cache)
    if not path.exists():
        raise EvaluationError(
            f"pre-characterization cache {str(path)!r} does not exist "
            f"(write it with `repro characterize --out {path}`)"
        )
    from repro.precharac.persistence import load_characterization

    context = build_context(
        benchmark, characterize=False, mpu_variant=mpu_variant
    )
    context.characterization = load_characterization(path, context.netlist)
    return context
