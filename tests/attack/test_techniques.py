"""Tests for the physical injection techniques."""

import numpy as np
import pytest

from repro.attack.techniques import (
    ClockGlitchTechnique,
    RadiationTechnique,
    VoltageGlitchTechnique,
)
from repro.errors import AttackModelError
from repro.gatesim.timing import TimingModel
from repro.netlist.cells import CELL_LIBRARY, GateKind
from repro.netlist.graph import Netlist
from repro.netlist.placement import GridPlacer


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestRadiation:
    def test_impacted_set_grows_with_radius(self, mpu_placement, rng):
        tech = RadiationTechnique(timing=TimingModel())
        centre = mpu_placement.netlist.register_dff("viol_q", 0).nid
        small = tech.build_injection(mpu_placement, centre, 3.0, rng)
        large = tech.build_injection(mpu_placement, centre, 9.0, rng)
        n_small = len(small.gate_pulses) + len(small.struck_dffs)
        n_large = len(large.gate_pulses) + len(large.struck_dffs)
        assert n_large > n_small

    def test_width_decays_with_distance(self, mpu_placement, rng):
        tech = RadiationTechnique(timing=TimingModel())
        # choose a combinational centre so it carries the peak width
        centre = next(
            n.nid
            for n in mpu_placement.netlist.nodes
            if n.kind.is_combinational
        )
        inj = tech.build_injection(mpu_placement, centre, 9.0, rng)
        assert inj.gate_pulses[centre] == pytest.approx(tech.peak_width_ps)
        for nid, width in inj.gate_pulses.items():
            assert 0 < width <= tech.peak_width_ps

    def test_centre_dff_always_struck(self, mpu_placement, rng):
        tech = RadiationTechnique(timing=TimingModel())
        centre = mpu_placement.netlist.register_dff("cfg_top0", 12).nid
        inj = tech.build_injection(mpu_placement, centre, 3.0, rng)
        assert centre in inj.struck_dffs

    def test_target_filters(self, mpu_placement, rng):
        comb_only = RadiationTechnique(
            timing=TimingModel(), target_filter="comb_only"
        )
        seq_only = RadiationTechnique(
            timing=TimingModel(), target_filter="seq_only"
        )
        centre = mpu_placement.netlist.register_dff("viol_q", 0).nid
        a = comb_only.build_injection(mpu_placement, centre, 9.0, rng)
        assert a.struck_dffs == []
        b = seq_only.build_injection(mpu_placement, centre, 9.0, rng)
        assert b.gate_pulses == {}
        assert b.struck_dffs  # flops near the decision register exist

    def test_cell_on_the_rim_gets_no_pulse(self, rng):
        """Width falls to exactly 0 at the rim; a zero-width pulse is none."""
        # A 3x3 grid at 2 um pitch: gates 1, 3, 5 and 7 sit exactly 2 um
        # from gate 4, the diagonal cells further out.
        placement = GridPlacer(pitch_um=2.0).place(inverter_chain(8))
        assert sorted(placement.within_radius(4, 2.0)) == [1, 3, 4, 5, 7]
        tech = RadiationTechnique(timing=TimingModel())
        inj = tech.build_injection(placement, 4, 2.0, rng)
        assert inj.gate_pulses == {4: tech.peak_width_ps}

    def test_upset_reach_is_inclusive(self, rng):
        """A flop exactly at ``dff_upset_fraction * radius`` is upset."""
        netlist = Netlist("flop")
        g1 = netlist.add_gate(GateKind.NOT, netlist.add_input("a"))
        q = netlist.add_dff(g1, name="q[0]", register="q", bit=0)
        g2 = netlist.add_gate(GateKind.NOT, g1)
        netlist.mark_output("y", g2)
        placement = GridPlacer(pitch_um=2.0).place(netlist)
        assert placement.distance(g2, q) == 2.0
        tech = RadiationTechnique(timing=TimingModel(), dff_upset_fraction=0.5)
        assert tech.build_injection(placement, g2, 4.0, rng).struck_dffs == [q]

    def test_strike_time_within_cycle(self, mpu_placement, rng):
        timing = TimingModel()
        tech = RadiationTechnique(timing=timing)
        centre = mpu_placement.netlist.register_dff("viol_q", 0).nid
        for _ in range(20):
            inj = tech.build_injection(mpu_placement, centre, 5.0, rng)
            assert 0 <= inj.strike_time_ps < timing.clock_period_ps

    def test_validation(self):
        with pytest.raises(AttackModelError):
            RadiationTechnique(timing=TimingModel(), peak_width_ps=0)
        with pytest.raises(AttackModelError):
            RadiationTechnique(timing=TimingModel(), dff_upset_fraction=0)
        with pytest.raises(AttackModelError):
            RadiationTechnique(timing=TimingModel(), target_filter="bogus")
        tech = RadiationTechnique(timing=TimingModel())
        with pytest.raises(AttackModelError):
            tech.build_injection(None, 0, -1.0, np.random.default_rng(0))


class TestGlitchTechniques:
    def test_clock_glitch_hits_slow_paths_only(self, mpu_placement, rng):
        tech = ClockGlitchTechnique(timing=TimingModel(), glitch_depth_ps=300.0)
        centre = mpu_placement.netlist.register_dff("viol_q", 0).nid
        inj = tech.build_injection(mpu_placement, centre, 40.0, rng)
        # every struck gate settles inside the stolen window
        threshold = TimingModel().clock_period_ps - 300.0
        arrival = mpu_placement.netlist.arrival_times()
        for nid in inj.gate_pulses:
            assert arrival[nid] >= threshold

    def test_voltage_glitch_slowdown_validation(self, mpu_placement, rng):
        tech = VoltageGlitchTechnique(timing=TimingModel(), slowdown=1.0)
        with pytest.raises(AttackModelError):
            tech.build_injection(mpu_placement, 0, 5.0, rng)

    def test_voltage_glitch_produces_pulses(self, mpu_placement, rng):
        tech = VoltageGlitchTechnique(timing=TimingModel(), slowdown=2.0)
        # centre near the deep logic: use the slowest node
        arrival = mpu_placement.netlist.arrival_times()
        centre = int(np.argmax(arrival))
        inj = tech.build_injection(mpu_placement, centre, 10.0, rng)
        assert inj.gate_pulses


def inverter_chain(n_gates):
    """input -> NOT x n_gates -> output; gate ``k`` settles at ``k`` delays."""
    netlist = Netlist(f"chain{n_gates}")
    nid = netlist.add_input("a")
    for _ in range(n_gates):
        nid = netlist.add_gate(GateKind.NOT, nid)
    netlist.mark_output("y", nid)
    return netlist


class TestArrivalTimesFollowTheNetlist:
    def test_alternating_netlists_get_their_own_settle_times(self):
        """Settle times live with their netlist: a netlist built after
        another was freed must not see the freed one's times (a cache
        keyed on ``id()`` hands them over when the address is reused)."""
        delay = CELL_LIBRARY[GateKind.NOT].delay_ps
        timing = TimingModel(clock_period_ps=20 * delay)
        tech = ClockGlitchTechnique(timing=timing, glitch_depth_ps=10.5 * delay)
        rng = np.random.default_rng(0)
        for i in range(200):
            n_gates = 3 if i % 2 else 40
            placement = GridPlacer(pitch_um=1.0).place(inverter_chain(n_gates))
            inj = tech.build_injection(placement, n_gates, 100.0, rng)
            # Gate k (node id k) settles at k * delay >= 9.5 delays.
            assert sorted(inj.gate_pulses) == list(range(10, n_gates + 1))
            del placement, inj
