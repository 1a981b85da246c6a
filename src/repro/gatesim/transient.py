"""Voltage-transient injection, propagation, and latching.

Implements the gate-level half of the cross-level flow (Section 5.3):

1. the attack model hands over a set of impacted gates with initial pulse
   widths (and, for direct hits on flip-flops, state flips);
2. pulses propagate through the struck gates' fanout cone in topological
   order, subject to **logical masking** (a pulse only passes a gate whose
   side inputs sensitize the struck pin) and **electrical masking** (width
   attenuation per stage);
3. every pulse arriving at a DFF data pin that overlaps the setup/hold
   window is latched, flipping that register bit's next state.

The result is the set of faulty register bits at the end of the fault
injection cycle, which the engine writes back into the RTL simulation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.gatesim.logic import LogicEvaluator, NodeValues
from repro.gatesim.timing import TimingModel
from repro.netlist.graph import Netlist


@dataclass(frozen=True)
class Pulse:
    """One voltage transient at a node output: [start, start + width)."""

    start_ps: float
    width_ps: float

    @property
    def end_ps(self) -> float:
        return self.start_ps + self.width_ps

    def overlaps(self, lo: float, hi: float) -> bool:
        return self.start_ps < hi and self.end_ps > lo


@dataclass
class TransientInjection:
    """What the attack deposits into the circuit in the injection cycle.

    ``gate_pulses`` maps combinational-node ids to initial pulse widths;
    ``struck_dffs`` lists flip-flop node ids whose stored state the strike
    flips directly (attack on sequential elements).
    """

    gate_pulses: Dict[int, float] = field(default_factory=dict)
    struck_dffs: List[int] = field(default_factory=list)
    strike_time_ps: float = 0.0


@dataclass
class TransientResult:
    """Outcome of one injection-cycle gate-level simulation."""

    # (register name, bit index) whose *latched next state* flipped.
    flipped_bits: Set[Tuple[str, int]]
    # Faulty next-state words per register (fault-free registers omitted).
    faulty_next_state: Dict[str, int]
    # Fault-free next state of every register, for reference.
    golden_next_state: Dict[str, int]
    # How many pulses were generated / survived to a D pin.
    n_pulses_injected: int = 0
    n_pulses_latched: int = 0

    @property
    def any_fault(self) -> bool:
        return bool(self.flipped_bits)

    def flipped_registers(self) -> Set[str]:
        return {reg for reg, _bit in self.flipped_bits}


@dataclass
class CycleBaseline:
    """Sample-independent gate-level state of one injection cycle.

    Everything here is a pure function of ``(inputs, state)`` — the golden
    stimulus of the cycle — and therefore shared by every sample injected
    into that cycle: the settled node values, the fault-free next state,
    and the per-node pin-sensitization mask (bit ``pin`` of byte ``nid``
    set iff a pulse on that pin passes the gate; logical masking depends
    only on the baseline side-input values, never on the injected
    pulses).  Built once per (injection cycle, cone) by
    :meth:`TransientSimulator.make_baseline` and cached at the engine
    level, so batched evaluation computes golden logic values once per
    cycle instead of once per sample.  The mask is derived, never
    persisted: a baseline loaded with ``pin_mask=None`` gets it on first
    use.
    """

    values: NodeValues
    golden_next: Dict[str, int]
    pin_mask: Optional[bytes] = None


class TransientSimulator:
    """Propagates transients through one clock cycle of a netlist."""

    def __init__(
        self,
        netlist: Netlist,
        timing: Optional[TimingModel] = None,
        max_pulses_per_node: int = 8,
    ):
        self.netlist = netlist
        self.timing = timing or TimingModel()
        self.evaluator = LogicEvaluator(netlist)
        self.max_pulses_per_node = max_pulses_per_node
        nodes = netlist.nodes
        self._combinational = [False] * len(nodes)
        for nid in netlist.topo_order():  # exactly the combinational nodes
            self._combinational[nid] = True
        self._delay = [self.timing.gate_delay(n.kind) for n in nodes]
        self._arrival = self._compute_arrival_times()
        self._dffs = [n for n in nodes if n.is_dff and n.fanins]
        # D-pin node -> indices into ``_dffs`` of the flops it feeds.
        self._dffs_at: Dict[int, List[int]] = {}
        for di, node in enumerate(self._dffs):
            self._dffs_at.setdefault(node.fanins[0], []).append(di)

    def _compute_arrival_times(self) -> List[float]:
        """Static settle time of each node output within a cycle."""
        arrival = [0.0] * len(self.netlist)
        for nid in self.netlist.topo_order():
            fanins = self.netlist.nodes[nid].fanins
            arrival[nid] = self._delay[nid] + max(arrival[f] for f in fanins)
        return arrival

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def simulate_cycle(
        self,
        inputs: Mapping[str, int],
        state: Mapping[str, int],
        injection: TransientInjection,
    ) -> TransientResult:
        """Run the fault injection cycle.

        ``inputs``/``state`` are the word-level stimulus and register state
        at the start of the cycle (provided by the RTL simulation).
        """
        return self._simulate(self._baseline(inputs, state), [injection])[0]

    def make_baseline(
        self, inputs: Mapping[str, int], state: Mapping[str, int]
    ) -> CycleBaseline:
        """Evaluate the golden logic of one cycle for reuse across samples."""
        return self._baseline(inputs, state)

    def _baseline(
        self, inputs: Mapping[str, int], state: Mapping[str, int]
    ) -> CycleBaseline:
        # Shared by simulate_cycle, which does not go through
        # make_baseline: timers around make_baseline (perfbench's
        # gatesim.baseline span) count only the shared per-cycle ones.
        values = self.evaluator.evaluate(inputs, state)
        return CycleBaseline(
            values=values,
            golden_next=self.evaluator.next_state(values),
            pin_mask=self.evaluator.pin_mask(values),
        )

    def simulate_cycle_batch(
        self,
        inputs: Mapping[str, int],
        state: Mapping[str, int],
        injections: Sequence[TransientInjection],
        baseline: Optional[CycleBaseline] = None,
    ) -> List[TransientResult]:
        """Run the injection cycle for a batch of same-cycle samples.

        Bit-identical to calling :meth:`simulate_cycle` once per
        injection, but the shared work is done once: the golden evaluation
        and sensitization verdicts come from ``baseline`` (built here when
        not supplied), and latch-window classification is one vectorized
        check over every surviving D-pin pulse in the batch.
        """
        if baseline is None:
            baseline = self.make_baseline(inputs, state)
        return self._simulate(baseline, injections)

    def _simulate(
        self,
        baseline: CycleBaseline,
        injections: Sequence[TransientInjection],
    ) -> List[TransientResult]:
        if baseline.pin_mask is None:  # loaded from a store: values only
            baseline.pin_mask = self.evaluator.pin_mask(baseline.values)
        per_sample = [self._seed_pulses(inj) for inj in injections]
        n_injected = [sum(len(p) for p in ps.values()) for ps in per_sample]
        for pulses in per_sample:
            self._sweep_cone(baseline, pulses)
        flipped_sets, latched_counts = self._latch_batch(per_sample)
        return [
            self._finish_cycle(
                inj,
                flipped_sets[b],
                baseline.golden_next,
                n_injected[b],
                latched_counts[b],
            )
            for b, inj in enumerate(injections)
        ]

    def _finish_cycle(
        self,
        injection: TransientInjection,
        flipped: Set[Tuple[str, int]],
        golden_next: Dict[str, int],
        n_injected: int,
        n_latched: int,
    ) -> TransientResult:
        # Direct strikes on flip-flops flip the bit the flop will hold next
        # cycle (the strike corrupts the storage node).
        for dff_id in injection.struck_dffs:
            node = self.netlist.node(dff_id)
            if not node.is_dff:
                raise SimulationError(f"struck node {dff_id} is not a DFF")
            if node.register is None or node.bit is None:
                raise SimulationError(f"struck DFF {dff_id} has no register identity")
            key = (node.register, node.bit)
            if key in flipped:
                flipped.discard(key)  # double flip cancels
            else:
                flipped.add(key)

        faulty_next: Dict[str, int] = {}
        for reg, bit in flipped:
            word = faulty_next.get(reg, golden_next[reg])
            faulty_next[reg] = word ^ (1 << bit)

        return TransientResult(
            flipped_bits=flipped,
            faulty_next_state=faulty_next,
            golden_next_state=golden_next,
            n_pulses_injected=n_injected,
            n_pulses_latched=n_latched,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _seed_pulses(self, injection: TransientInjection) -> Dict[int, List[Pulse]]:
        pulses: Dict[int, List[Pulse]] = {}
        for nid, width in injection.gate_pulses.items():
            if not self._combinational[nid]:
                continue  # strikes on non-gates handled via struck_dffs
            if width < self.timing.min_pulse_ps:
                continue
            # The transient appears at the struck gate's output once the
            # strike has happened and the gate has settled.
            start = max(injection.strike_time_ps, self._arrival[nid])
            pulses.setdefault(nid, []).append(Pulse(start, width))
        return pulses

    def _sweep_cone(
        self, baseline: CycleBaseline, pulses: Dict[int, List[Pulse]]
    ) -> None:
        """Exact propagation of one sample's pulses through its fanout cone.

        A heap pops nodes in topological order, seeded with the struck
        gates.  Ascending node id is such an order, because
        :meth:`Netlist.add_gate` only accepts fanins that already exist.
        A combinational consumer is pushed only through a pin the
        baseline's pin mask sensitizes, and every pin a node drives is
        tested, since one node can feed a gate twice.  A node off that
        cone can never receive a pulse, and each popped node gets the
        full-netlist sweep's update — same (pin, fanin) order,
        attenuation, merge and truncation — so the final pulse map is
        bit-identical to sweeping every node.
        """
        nodes = self.netlist.nodes
        fanouts = self.netlist.fanouts()
        mask = baseline.pin_mask
        heap = list(pulses)
        heapq.heapify(heap)
        queued = set(heap)
        while heap:
            nid = heapq.heappop(heap)
            sensitized = mask[nid]
            delay = self._delay[nid]
            incoming: List[Pulse] = []
            for pin, f in enumerate(nodes[nid].fanins):
                if f not in pulses or not (sensitized >> pin) & 1:
                    continue  # no pulse, or logical masking
                for pulse in pulses[f]:
                    width = self.timing.attenuate(pulse.width_ps)
                    if width <= 0:
                        continue  # electrical masking
                    incoming.append(Pulse(pulse.start_ps + delay, width))
            if incoming:
                merged = _merge_pulses(incoming)
                existing = pulses.get(nid, [])
                pulses[nid] = _merge_pulses(existing + merged)[
                    : self.max_pulses_per_node
                ]
            elif nid not in pulses:
                continue  # every arriving pulse was masked
            for c in fanouts[nid]:
                if c in queued:
                    continue
                sensitized = mask[c]  # 0 for flip-flops
                for pin, f in enumerate(nodes[c].fanins):
                    if f == nid and (sensitized >> pin) & 1:
                        queued.add(c)
                        heapq.heappush(heap, c)
                        break

    def _latch_batch(
        self, per_sample: Sequence[Dict[int, List[Pulse]]]
    ) -> Tuple[List[Set[Tuple[str, int]]], List[int]]:
        """Batched latch-window classification across every sample.

        Flattens all surviving D-pin pulses into one array pair and makes
        a single vectorized :meth:`TimingModel.latch_hits` call; a DFF
        counts as latched for a sample when any of that sample's pulses
        at its D pin hits the window.
        """
        flipped: List[Set[Tuple[str, int]]] = [set() for _ in per_sample]
        latched = [0] * len(per_sample)
        starts: List[float] = []
        widths: List[float] = []
        owners: List[Tuple[int, int]] = []
        for b, pulses in enumerate(per_sample):
            # Only flops whose D pin carries a pulse, in ``_dffs`` order.
            hit = sorted(
                di for nid in pulses for di in self._dffs_at.get(nid, ())
            )
            for di in hit:
                for pulse in pulses[self._dffs[di].fanins[0]]:
                    starts.append(pulse.start_ps)
                    widths.append(pulse.width_ps)
                    owners.append((b, di))
        if starts:
            hits = self.timing.latch_hits(starts, widths)
            seen: Set[Tuple[int, int]] = set()
            for i in np.nonzero(hits)[0]:
                owner = owners[i]
                if owner in seen:
                    continue  # one latch per (sample, DFF)
                seen.add(owner)
                b, di = owner
                latched[b] += 1
                node = self._dffs[di]
                if node.register is not None and node.bit is not None:
                    flipped[b].add((node.register, node.bit))
        return flipped, latched


def _merge_pulses(pulses: Sequence[Pulse]) -> List[Pulse]:
    """Coalesce overlapping pulses at one node into maximal intervals."""
    if not pulses:
        return []
    ordered = sorted(pulses, key=lambda p: p.start_ps)
    merged: List[Pulse] = [ordered[0]]
    for pulse in ordered[1:]:
        last = merged[-1]
        if pulse.start_ps <= last.end_ps:
            end = max(last.end_ps, pulse.end_ps)
            merged[-1] = Pulse(last.start_ps, end - last.start_ps)
        else:
            merged.append(pulse)
    return merged
