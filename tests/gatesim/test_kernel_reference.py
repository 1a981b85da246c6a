"""The fanout-cone kernel == the unpruned full-netlist reference sweep.

``simulate_cycle_batch`` and ``simulate_cycle`` share one exact kernel
that visits only the struck gates' sensitized fanout cone.  The
reference kept here is the sweep it replaced: every combinational node
in topological order with sensitization recomputed from the evaluated
node values, then a scalar latch loop over every DFF and the struck-DFF
toggle.  Both entry points must match it bit for bit — the final
per-node pulse map (float arithmetic of delay addition, attenuation,
interval merging and per-node truncation) as well as the result.

Random netlists from ``tests/strategies.py`` exercise DAG shapes the
MPU cannot: deep MUX trees, constant feeds, multi-fanout reconvergence.
``max_pulses_per_node`` is drawn from {1, 2, 8} so that truncation
actually bites; batch shapes are ragged, plus the all-masked and
all-latched extremes.  Directed cases pin faults random draws rarely
reach: one signal on two pins of a gate (either one sensitized), a
truncated pulse that would have latched, and a pulse that leaves a
stage exactly ``min_pulse_ps`` wide.  Random netlists are tiny, so
importance-sampled radiation strikes on the write benchmark's MPU,
whose cones end with tens of pulsed nodes, are checked as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_attack_spec
from repro.gatesim.timing import TimingModel
from repro.gatesim.transient import (
    Pulse,
    TransientInjection,
    TransientSimulator,
    _merge_pulses,
)
from repro.netlist.cells import GateKind, gate_sensitized
from repro.netlist.graph import Netlist
from repro.sampling import ImportanceSampler

from tests.strategies import random_netlists

PULSE_CAPS = (1, 2, 8)


def _propagate(sim, values, pulses):
    """Reference propagation: every combinational node, in topo order."""
    for nid in sim.netlist.topo_order():
        node = sim.netlist.node(nid)
        incoming = []
        for pin, f in enumerate(node.fanins):
            if f not in pulses:
                continue
            in_vals = [int(values[x]) for x in node.fanins]
            if not gate_sensitized(node.kind, in_vals, pin):
                continue  # logical masking
            delay = sim.timing.gate_delay(node.kind)
            for pulse in pulses[f]:
                width = sim.timing.attenuate(pulse.width_ps)
                if width <= 0:
                    continue  # electrical masking
                incoming.append(Pulse(pulse.start_ps + delay, width))
        if incoming:
            merged = _merge_pulses(incoming)
            existing = pulses.get(nid, [])
            pulses[nid] = _merge_pulses(existing + merged)[
                : sim.max_pulses_per_node
            ]


def _latch(sim, pulses):
    """Reference latching: scalar window check at every DFF's D pin."""
    lo, hi = sim.timing.latch_window
    flipped = set()
    n_latched = 0
    for node in sim.netlist.nodes:
        if not node.is_dff or not node.fanins:
            continue
        d_pin = node.fanins[0]
        if d_pin not in pulses:
            continue
        if any(p.overlaps(lo, hi) for p in pulses[d_pin]):
            n_latched += 1
            if node.register is not None and node.bit is not None:
                flipped.add((node.register, node.bit))
    return flipped, n_latched


def _reference(sim, inputs, state, injection):
    """(canonical result, final pulse map) of the reference cycle."""
    values = sim.evaluator.evaluate(inputs, state)
    golden_next = sim.evaluator.next_state(values)
    pulses = sim._seed_pulses(injection)
    n_injected = sum(len(p) for p in pulses.values())
    _propagate(sim, values, pulses)
    flipped, n_latched = _latch(sim, pulses)
    for dff_id in injection.struck_dffs:
        node = sim.netlist.node(dff_id)
        flipped ^= {(node.register, node.bit)}
    faulty_next = {}
    for reg, bit in flipped:
        faulty_next[reg] = faulty_next.get(reg, golden_next[reg]) ^ (1 << bit)
    canon = (
        sorted(flipped),
        n_injected,
        n_latched,
        golden_next,
        faulty_next,
        bool(flipped),
    )
    return canon, pulses


def _canon(result):
    """Order-insensitive view of one TransientResult."""
    return (
        sorted(result.flipped_bits),
        result.n_pulses_injected,
        result.n_pulses_latched,
        result.golden_next_state,
        result.faulty_next_state,
        result.any_fault,
    )


def _assert_matches_reference(sim, inputs, state, injections):
    batch = sim.simulate_cycle_batch(inputs, state, injections)
    baseline = sim.make_baseline(inputs, state)
    for injection, result in zip(injections, batch):
        expected, reference_pulses = _reference(sim, inputs, state, injection)
        assert _canon(result) == expected
        assert _canon(sim.simulate_cycle(inputs, state, injection)) == expected
        pulses = sim._seed_pulses(injection)
        sim._sweep_cone(baseline, pulses)
        assert pulses == reference_pulses


def _random_io(nl, rng):
    inputs = {name.split("[")[0]: int(rng.integers(0, 2)) for name in nl.inputs}
    state = {reg: int(rng.integers(0, 2)) for reg in nl.registers}
    return inputs, state


def _random_injections(nl, sim, rng, n, width_lo=20.0, width_hi=400.0):
    comb = [node.nid for node in nl.nodes if node.kind.is_combinational]
    dffs = [node.nid for node in nl.nodes if node.is_dff]
    out = []
    for _ in range(n):
        gate_pulses = {}
        if comb:
            for _ in range(int(rng.integers(0, 4))):
                nid = int(comb[rng.integers(0, len(comb))])
                gate_pulses[nid] = float(rng.uniform(width_lo, width_hi))
        struck = []
        if dffs and rng.random() < 0.3:
            struck = [int(dffs[rng.integers(0, len(dffs))])]
        out.append(
            TransientInjection(
                gate_pulses=gate_pulses,
                struck_dffs=struck,
                strike_time_ps=float(
                    rng.uniform(0, sim.timing.clock_period_ps)
                ),
            )
        )
    return out


def _draw_case(data):
    nl = data.draw(random_netlists())
    sim = TransientSimulator(
        nl, max_pulses_per_node=data.draw(st.sampled_from(PULSE_CAPS))
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inputs, state = _random_io(nl, rng)
    return nl, sim, rng, inputs, state


class TestKernelReferenceProperty:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_netlists_random_batches(self, data):
        nl, sim, rng, inputs, state = _draw_case(data)
        n = data.draw(st.sampled_from((1, 3, 7, 13, 63, 65, 70)))
        injections = _random_injections(nl, sim, rng, n)
        _assert_matches_reference(sim, inputs, state, injections)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_all_masked_extreme(self, data):
        """Every pulse below min_pulse: nothing is seeded, so nothing may
        latch anywhere."""
        nl, sim, rng, inputs, state = _draw_case(data)
        injections = _random_injections(
            nl, sim, rng, 20,
            width_lo=0.0, width_hi=sim.timing.min_pulse_ps * 0.99,
        )
        for injection in injections:
            injection.struck_dffs = []
        results = sim.simulate_cycle_batch(inputs, state, injections)
        assert all(not r.any_fault for r in results)
        _assert_matches_reference(sim, inputs, state, injections)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_all_latched_extreme(self, data):
        """Cycle-wide pulses on every gate: every node in the cone, heavy
        merging, every latch window crossed."""
        nl, sim, rng, inputs, state = _draw_case(data)
        comb = [node.nid for node in nl.nodes if node.kind.is_combinational]
        wide = float(sim.timing.clock_period_ps * 2)
        injections = [
            TransientInjection(
                gate_pulses={nid: wide for nid in comb},
                strike_time_ps=0.0,
            )
            for _ in range(12)
        ]
        _assert_matches_reference(sim, inputs, state, injections)


class TestKernelReferenceEdges:
    def test_empty_injections_in_batch(self, mpu_netlist):
        """Samples whose pulses all missed combinational logic ride the
        batch with no pulses — no faults, correct counts."""
        sim = TransientSimulator(mpu_netlist)
        rng = np.random.default_rng(3)
        from repro.soc.mpu import MpuBehavioral, MpuInputs

        mpu = MpuBehavioral()
        state = mpu.get_registers()
        inputs = MpuInputs().as_port_dict()
        comb = [
            node.nid for node in mpu_netlist.nodes
            if node.kind.is_combinational
        ]
        injections = []
        for i in range(16):
            if i % 3 == 0:
                injections.append(TransientInjection())
            else:
                injections.append(
                    TransientInjection(
                        gate_pulses={
                            int(comb[rng.integers(0, len(comb))]):
                            float(rng.uniform(50, 300))
                        },
                        strike_time_ps=float(rng.uniform(0, 1800)),
                    )
                )
        _assert_matches_reference(sim, inputs, state, injections)
        results = sim.simulate_cycle_batch(inputs, state, injections)
        for i, result in enumerate(results):
            if i % 3 == 0:
                assert result.n_pulses_injected == 0
                assert not result.any_fault

    @pytest.mark.parametrize("select", (0, 1))
    def test_one_signal_on_two_pins(self, select):
        """MUX(s, x, x): x reaches the MUX through both data pins, and
        the select sensitizes one of them, the first with s=0 and the
        second with s=1, so the MUX must be visited through whichever
        pin that is."""
        nl = Netlist("mux-twice")
        sel = nl.add_input("s")
        x = nl.add_gate(GateKind.BUF, nl.add_input("a"))
        mux = nl.add_gate(GateKind.MUX, sel, x, x)
        q = nl.add_dff(name="q[0]", register="q", bit=0)
        nl.connect_dff(q, mux)
        nl.validate()
        sim = TransientSimulator(nl, TimingModel(clock_period_ps=1000.0))
        inputs, state = {"s": select, "a": 0}, {"q": 0}
        injection = TransientInjection(
            gate_pulses={x: 200.0}, strike_time_ps=900.0
        )
        result = sim.simulate_cycle(inputs, state, injection)
        assert result.flipped_bits == {("q", 0)}
        _assert_matches_reference(sim, inputs, state, [injection])

    @pytest.mark.parametrize("cap", PULSE_CAPS)
    def test_truncation_drops_the_latching_pulse(self, cap):
        """One strike reaches an XOR by a short and a long path, leaving
        two disjoint pulses on the D pin; only the later one hits the
        latch window, so a per-node cap of 1 must drop it."""
        nl = Netlist("reconverge")
        struck = nl.add_gate(GateKind.BUF, nl.add_input("a"))
        tail = struck
        for _ in range(3):
            tail = nl.add_gate(GateKind.BUF, tail)
        xor = nl.add_gate(GateKind.XOR, struck, tail)
        q = nl.add_dff(name="q[0]", register="q", bit=0)
        nl.connect_dff(q, xor)
        nl.validate()
        timing = TimingModel(
            clock_period_ps=1000.0,
            delay_overrides={GateKind.BUF: 100.0, GateKind.XOR: 10.0},
        )
        sim = TransientSimulator(nl, timing, max_pulses_per_node=cap)
        inputs, state = {"a": 0}, {"q": 0}
        # Short path: [660, 704) at the XOR; long path: [960, 986),
        # inside the [960, 1025) window.
        injection = TransientInjection(
            gate_pulses={struck: 50.0}, strike_time_ps=650.0
        )
        result = sim.simulate_cycle(inputs, state, injection)
        assert result.flipped_bits == (set() if cap == 1 else {("q", 0)})
        _assert_matches_reference(sim, inputs, state, [injection])

    @pytest.mark.parametrize("width, reaches", ((18.0, True), (17.999, False)))
    def test_attenuation_boundary(self, width, reaches):
        """BUF -> BUF with the default 6 ps attenuation and 12 ps minimum:
        a struck 18 ps pulse leaves the second BUF exactly 12 ps wide and
        survives (``remaining >= min_pulse_ps``); 17.999 ps dies there."""
        nl = Netlist("buf-chain")
        first = nl.add_gate(GateKind.BUF, nl.add_input("a"))
        second = nl.add_gate(GateKind.BUF, first)
        q = nl.add_dff(name="q[0]", register="q", bit=0)
        nl.connect_dff(q, second)
        nl.validate()
        sim = TransientSimulator(nl)
        assert (sim.timing.attenuation_ps, sim.timing.min_pulse_ps) == (6.0, 12.0)
        inputs, state = {"a": 0}, {"q": 0}
        injection = TransientInjection(
            gate_pulses={first: width}, strike_time_ps=0.0
        )
        pulses = sim._seed_pulses(injection)
        sim._sweep_cone(sim.make_baseline(inputs, state), pulses)
        if reaches:
            assert [w for _start, w in pulses[second]] == [12.0]
        else:
            assert second not in pulses
        _assert_matches_reference(sim, inputs, state, [injection])


class TestKernelReferenceMpu:
    def test_importance_sampled_strikes(self, small_context):
        """Radiation strikes drawn by the importance sampler on the write
        benchmark's MPU netlist, each checked against the reference at
        its own injection cycle's golden stimulus: tens of pulsed nodes
        per cone, struck gates inside other struck gates' cones, and
        nodes that merge several pulses."""
        context = small_context
        spec = default_attack_spec(context, window=10)
        sampler = ImportanceSampler(
            spec, context.characterization, placement=context.placement
        )
        sim = TransientSimulator(context.netlist, context.timing)
        rng = np.random.default_rng(29)
        n_checked = n_pulsed = n_merged = 0
        while n_checked < 40:
            sample = sampler.sample(rng)
            cycle = context.target_cycle - sample.t
            if not 0 <= cycle < len(context.mpu_trace):
                continue
            entry = context.mpu_trace[cycle]
            injection = spec.build_injection(context.placement, sample, rng)
            _assert_matches_reference(sim, entry.inputs, entry.state, [injection])
            pulses = sim._seed_pulses(injection)
            sim._sweep_cone(sim.make_baseline(entry.inputs, entry.state), pulses)
            n_pulsed += len(pulses)
            n_merged += sum(len(p) > 1 for p in pulses.values())
            n_checked += 1
        assert n_pulsed >= 10 * n_checked
        assert n_merged > 0
