"""Tests for transient injection, propagation, masking, and latching."""

import numpy as np
import pytest

from repro.errors import AttackModelError, SimulationError
from repro.gatesim.timing import TimingModel
from repro.gatesim.transient import (
    Pulse,
    TransientInjection,
    TransientSimulator,
    _merge_pulses,
)
from repro.hdl import Module


def straight_path_design(n_bufs=2):
    """in -> BUF^n -> q; returns (netlist, [buf ids], q id)."""
    m = Module("path")
    a = m.input("a", 1)
    q = m.register("q", 1)
    wire = a
    for _ in range(n_bufs):
        # BUF via OR(x, x) is not available; use & with const1
        wire = wire & m.const(1, 1)
    m.connect(q, wire)
    m.output("q", q)
    nl = m.finalize()
    gates = [n.nid for n in nl.nodes if n.kind.is_combinational]
    return nl, gates, nl.register_dff("q", 0).nid


class TestPulse:
    def test_overlap_semantics(self):
        p = Pulse(100.0, 50.0)
        assert p.overlaps(120, 130)
        assert p.overlaps(140, 200)
        assert not p.overlaps(150, 200)  # half-open interval
        assert not p.overlaps(0, 100)

    def test_merge_overlapping(self):
        merged = _merge_pulses([Pulse(0, 10), Pulse(5, 10), Pulse(30, 5)])
        assert len(merged) == 2
        assert merged[0].start_ps == 0 and merged[0].end_ps == 15

    def test_merge_empty(self):
        assert _merge_pulses([]) == []

    def test_equals_a_plain_pair(self):
        assert Pulse(100.0, 50.0) == (100.0, 50.0)
        assert _merge_pulses([(5.0, 10.0), (0.0, 10.0)]) == [(0.0, 15.0)]

    def test_merge_keeps_the_longer_end(self):
        """A pulse inside another leaves the outer end; the kernel
        reference test merges through this same function, so only a
        direct check sees it."""
        assert _merge_pulses([(0.0, 20.0), (5.0, 5.0)]) == [(0.0, 20.0)]
        assert _merge_pulses([(7.0, 3.0), (7.0, 9.0)]) == [(7.0, 9.0)]

    def test_merge_joins_touching_pulses(self):
        assert _merge_pulses([(0.0, 10.0), (10.0, 5.0)]) == [(0.0, 15.0)]
        assert _merge_pulses([(0.0, 10.0), (10.5, 5.0)]) == [
            (0.0, 10.0),
            (10.5, 5.0),
        ]


class TestPulseCap:
    @pytest.mark.parametrize("cap", (0, -1))
    def test_cap_below_one_rejected(self, cap):
        nl, _gates, _q = straight_path_design(1)
        with pytest.raises(SimulationError, match=f"got {cap}"):
            TransientSimulator(nl, max_pulses_per_node=cap)


class TestLatchWindow:
    def make(self, **kw):
        timing = TimingModel(
            clock_period_ps=1000.0, setup_ps=40.0, hold_ps=25.0, **kw
        )
        nl, gates, q = straight_path_design(1)
        return TransientSimulator(nl, timing), nl, gates, q

    def test_pulse_inside_window_latches(self):
        sim, nl, gates, q = self.make()
        inj = TransientInjection(gate_pulses={gates[0]: 200.0}, strike_time_ps=900.0)
        result = sim.simulate_cycle({"a": 1}, {"q": 0}, inj)
        assert ("q", 0) in result.flipped_bits
        assert result.any_fault

    def test_pulse_far_before_window_missed(self):
        sim, nl, gates, q = self.make()
        inj = TransientInjection(gate_pulses={gates[0]: 100.0}, strike_time_ps=100.0)
        result = sim.simulate_cycle({"a": 1}, {"q": 0}, inj)
        assert result.flipped_bits == set()

    def test_narrow_pulse_electrically_masked(self):
        sim, nl, gates, q = self.make(attenuation_ps=50.0, min_pulse_ps=60.0)
        inj = TransientInjection(gate_pulses={gates[0]: 80.0}, strike_time_ps=950.0)
        # 80ps pulse is attenuated to 30ps < min width when crossing a gate
        # — but a pulse at the gate directly feeding D still latches.
        result = sim.simulate_cycle({"a": 1}, {"q": 0}, inj)
        # the struck gate itself drives D: pulse present at its output
        assert ("q", 0) in result.flipped_bits

    def test_attenuation_kills_deep_propagation(self):
        timing = TimingModel(
            clock_period_ps=1000.0, attenuation_ps=100.0, min_pulse_ps=50.0
        )
        nl, gates, q = straight_path_design(4)
        sim = TransientSimulator(nl, timing)
        first_gate = min(gates)
        inj = TransientInjection(
            gate_pulses={first_gate: 120.0}, strike_time_ps=900.0
        )
        result = sim.simulate_cycle({"a": 1}, {"q": 0}, inj)
        assert result.flipped_bits == set()


class TestLogicalMasking:
    def test_blocked_side_input(self):
        """A pulse into an AND whose other input is 0 must not propagate."""
        m = Module("mask")
        a = m.input("a", 1)
        b = m.input("b", 1)
        q = m.register("q", 1)
        inner = a & m.const(1, 1)  # struck gate
        m.connect(q, inner & b)
        m.output("q", q)
        nl = m.finalize()
        struck = nl.node(nl.register_dff("q", 0).nid).fanins[0]
        inner_gate = nl.node(struck).fanins[0]
        sim = TransientSimulator(nl, TimingModel(clock_period_ps=1000.0))
        inj = TransientInjection(gate_pulses={inner_gate: 250.0}, strike_time_ps=900.0)
        masked = sim.simulate_cycle({"a": 1, "b": 0}, {"q": 0}, inj)
        assert masked.flipped_bits == set()
        passed = sim.simulate_cycle({"a": 1, "b": 1}, {"q": 0}, inj)
        assert ("q", 0) in passed.flipped_bits


class TestDirectUpsets:
    def test_struck_dff_flips_next_state(self):
        nl, gates, q = straight_path_design(1)
        sim = TransientSimulator(nl)
        inj = TransientInjection(struck_dffs=[q])
        result = sim.simulate_cycle({"a": 1}, {"q": 0}, inj)
        assert result.flipped_bits == {("q", 0)}
        # golden next state was 1; faulty is 0
        assert result.golden_next_state["q"] == 1
        assert result.faulty_next_state["q"] == 0

    def test_double_strike_cancels(self):
        nl, gates, q = straight_path_design(1)
        sim = TransientSimulator(nl)
        inj = TransientInjection(struck_dffs=[q, q])
        result = sim.simulate_cycle({"a": 1}, {"q": 0}, inj)
        assert result.flipped_bits == set()

    def test_struck_non_dff_rejected(self):
        nl, gates, q = straight_path_design(1)
        sim = TransientSimulator(nl)
        with pytest.raises(SimulationError):
            sim.simulate_cycle(
                {"a": 1}, {"q": 0}, TransientInjection(struck_dffs=[gates[0]])
            )


class TestMpuScale:
    def test_injection_on_mpu_produces_faults_sometimes(self, mpu_netlist):
        """Statistical smoke: radiating the decision cone of a live check
        must produce latched faults at a plausible rate."""
        from repro.soc.mpu import MpuBehavioral, MpuInputs

        beh = MpuBehavioral()
        # capture a live request into the pipeline registers
        beh.step(MpuInputs(in_addr=0x1050, in_write=1, in_priv=0, in_valid=1))
        state = beh.get_registers()
        sim = TransientSimulator(mpu_netlist)
        viol_d = mpu_netlist.node(
            mpu_netlist.register_dff("viol_q", 0).nid
        ).fanins[0]
        rng = np.random.default_rng(0)
        idle = MpuInputs().as_port_dict()
        n_faulty = 0
        for _ in range(40):
            inj = TransientInjection(
                gate_pulses={viol_d: 260.0},
                strike_time_ps=float(
                    rng.uniform(0, sim.timing.clock_period_ps)
                ),
            )
            result = sim.simulate_cycle(idle, state, inj)
            n_faulty += bool(result.any_fault)
        assert 0 < n_faulty < 40
