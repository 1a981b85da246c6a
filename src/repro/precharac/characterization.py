"""Pre-characterization orchestration and its result object.

:func:`precharacterize` runs the three steps against one design and bundles
everything the importance sampler and the engine's analytical path need:

* unrolled cones of the responding signals (``Ω_i``; with the frame
  convention of :mod:`repro.netlist.cones`, frame ``i`` is exactly the set
  of nodes attackable at timing distance ``t = i``),
* per-(node, frame) bit-flip correlations,
* per-register-bit lifetime/contamination and the memory/computation
  classification,
* ``L(g)`` for every node (registers: own lifetime; combinational gates:
  max lifetime over the registers that can latch their transients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import CharacterizationError, NetlistError
from repro.netlist.cones import ConeExtractor, UnrolledCones
from repro.netlist.graph import Netlist
from repro.precharac.lifetime import LifetimeCampaign, run_lifetime_campaign
from repro.precharac.signatures import SignatureAnalysis, analyze_signatures
from repro.utils.rng import SeedLike


@dataclass
class CharacterizationConfig:
    """Knobs of the pre-characterization."""

    max_frame: int = 50          # deepest unrolled fanin frame == max t
    max_fanout_frame: int = 4
    lifetime_horizon: int = 150
    lifetime_trials: int = 2
    # memory-type iff lifetime >= frac * horizon and contamination <= max
    memory_lifetime_frac: float = 0.9
    memory_contamination_max: float = 2.0
    seed: Optional[int] = 2024


@dataclass
class SystemCharacterization:
    """Everything the sampler and engine consume."""

    netlist: Netlist
    responding: Tuple[int, ...]
    cones: UnrolledCones
    signatures: SignatureAnalysis
    lifetime: LifetimeCampaign
    # per netlist node id: L(g)
    node_lifetime: Dict[int, float]
    memory_type: Set[Tuple[str, int]]
    computation_type: Set[Tuple[str, int]]
    config: CharacterizationConfig

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def omega_nodes(self, frame: int) -> Set[int]:
        """``Ω_i``: cone nodes attackable at timing distance ``frame``."""
        return self.cones.nodes_at(frame)

    def corr(self, nid: int, frame: int) -> float:
        return self.signatures.corr(nid, frame)

    def L(self, nid: int) -> float:  # noqa: N802 - paper notation
        return self.node_lifetime.get(nid, 0.0)

    def is_memory_type(self, register: str, bit: int) -> bool:
        return (register, bit) in self.memory_type

    def memory_type_registers(self) -> Set[str]:
        """Registers *all* of whose characterized bits are memory-type."""
        regs_all: Dict[str, List[bool]] = {}
        for reg, bit in self.memory_type | self.computation_type:
            regs_all.setdefault(reg, []).append((reg, bit) in self.memory_type)
        return {reg for reg, flags in regs_all.items() if all(flags)}

    def cone_register_bits(self) -> List[Tuple[str, int]]:
        """(register, bit) of every DFF inside the cones."""
        bits: List[Tuple[str, int]] = []
        for nid in self.cones.all_nodes():
            node = self.netlist.node(nid)
            if node.is_dff and node.register is not None:
                bits.append((node.register, node.bit))
        return sorted(set(bits))

    def sample_space_profile(self, max_frame: Optional[int] = None) -> Dict[str, List[int]]:
        """Data behind the paper's Fig. 8(b): per unrolled frame, the total
        register count vs cone registers vs cone computation-type registers."""
        limit = max_frame if max_frame is not None else self.config.max_frame
        total = sum(1 for n in self.netlist.nodes if n.is_dff)
        totals, cone_regs, cone_comp, eligible = [], [], [], []
        for frame in range(limit + 1):
            nodes = self.omega_nodes(frame)
            regs = [
                self.netlist.node(nid)
                for nid in nodes
                if self.netlist.node(nid).is_dff
            ]
            comp = [
                node
                for node in regs
                if (node.register, node.bit) in self.computation_type
            ]
            # Computation-type registers whose error lifetime still reaches
            # the target from this depth — the series that shrinks with the
            # unrolled cycle index in the paper's Fig. 8(b).
            alive = [node for node in comp if self.L(node.nid) >= frame]
            totals.append(total)
            cone_regs.append(len(regs))
            cone_comp.append(len(comp))
            eligible.append(len(alive))
        return {
            "total": totals,
            "cone_registers": cone_regs,
            "cone_computation_registers": cone_comp,
            "eligible_computation_registers": eligible,
        }


def classify_registers(
    campaign: LifetimeCampaign, config: CharacterizationConfig
) -> Tuple[Set[Tuple[str, int]], Set[Tuple[str, int]]]:
    """Observation 3's split: memory-type vs computation-type bits."""
    memory: Set[Tuple[str, int]] = set()
    computation: Set[Tuple[str, int]] = set()
    threshold = config.memory_lifetime_frac * campaign.horizon
    for key, char in campaign.results.items():
        if (
            char.lifetime >= threshold
            and char.contamination <= config.memory_contamination_max
        ):
            memory.add(key)
        else:
            computation.add(key)
    return memory, computation


def precharacterize(
    netlist: Netlist,
    responding: Sequence[int],
    mpu_trace: Sequence,
    device,
    n_cycles: int,
    config: Optional[CharacterizationConfig] = None,
    excitation_trace: Optional[Sequence] = None,
) -> SystemCharacterization:
    """Run all three pre-characterization steps.

    ``mpu_trace`` comes from a recorded synthetic-benchmark run of the
    *same device* whose netlist-level block is ``netlist``; ``device`` is
    reused (and reset) for the lifetime campaign over ``n_cycles``.

    ``excitation_trace`` optionally provides a second synthetic run used
    only for the switching-signature/correlation step — typically a
    workload that also exercises *configuration* diversity (MPU
    reprogramming), so rarely-toggling state still earns a meaningful
    ``Corr_i``.  Defaults to ``mpu_trace``.
    """
    config = config or CharacterizationConfig()
    if not responding:
        raise CharacterizationError("need at least one responding signal")

    extractor = ConeExtractor(netlist)
    cones = extractor.extract_many(
        responding,
        max_fanin_depth=config.max_frame,
        max_fanout_depth=config.max_fanout_frame,
    )

    signatures = analyze_signatures(
        netlist,
        cones,
        excitation_trace if excitation_trace is not None else mpu_trace,
        responding,
    )

    target_bits = [
        (netlist.node(nid).register, netlist.node(nid).bit)
        for nid in sorted(cones.all_nodes())
        if netlist.node(nid).is_dff and netlist.node(nid).register is not None
    ]
    target_bits = sorted(set(target_bits))
    campaign = run_lifetime_campaign(
        device,
        n_cycles=n_cycles,
        target_bits=target_bits,
        horizon=config.lifetime_horizon,
        n_trials=config.lifetime_trials,
        seed=config.seed,
    )

    per_dff: Dict[int, float] = {}
    for (reg, bit), char in campaign.results.items():
        try:
            nid = netlist.register_dff(reg, bit).nid
        except NetlistError:  # register not in this netlist (never for cones)
            continue
        per_dff[nid] = char.lifetime
    node_lifetime = extractor.max_over_latching(per_dff)

    memory, computation = classify_registers(campaign, config)
    return SystemCharacterization(
        netlist=netlist,
        responding=tuple(responding),
        cones=cones,
        signatures=signatures,
        lifetime=campaign,
        node_lifetime=node_lifetime,
        memory_type=memory,
        computation_type=computation,
        config=config,
    )
