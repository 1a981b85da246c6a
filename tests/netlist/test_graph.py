"""Structural tests for the Netlist container."""

import pytest

from repro.errors import NetlistError
from repro.netlist.cells import CELL_LIBRARY, GateKind
from repro.netlist.graph import Netlist


def make_counter_bit():
    """1-bit toggle: q' = q ^ 1."""
    nl = Netlist("toggle")
    q = nl.add_dff(name="q[0]", register="q", bit=0)
    one = nl.add_const(1)
    d = nl.add_gate(GateKind.XOR, q, one)
    nl.connect_dff(q, d)
    nl.mark_output("q", q)
    return nl


class TestConstruction:
    def test_basic_build_validates(self):
        nl = make_counter_bit()
        nl.validate()
        assert nl.stats()["dff"] == 1

    def test_duplicate_input_rejected(self):
        nl = Netlist()
        nl.add_input("a")
        with pytest.raises(NetlistError):
            nl.add_input("a")

    def test_wrong_arity_rejected(self):
        nl = Netlist()
        a = nl.add_input("a")
        with pytest.raises(NetlistError):
            nl.add_gate(GateKind.AND, a)
        with pytest.raises(NetlistError):
            nl.add_gate(GateKind.NOT, a, a)

    def test_missing_fanin_rejected(self):
        nl = Netlist()
        with pytest.raises(NetlistError):
            nl.add_gate(GateKind.NOT, 99)

    def test_dff_double_connect_rejected(self):
        nl = Netlist()
        q = nl.add_dff(name="q", register="q", bit=0)
        one = nl.add_const(1)
        nl.connect_dff(q, one)
        with pytest.raises(NetlistError):
            nl.connect_dff(q, one)

    def test_unconnected_dff_fails_validation(self):
        nl = Netlist()
        nl.add_dff(name="q", register="q", bit=0)
        with pytest.raises(NetlistError):
            nl.validate()

    def test_register_bit_bookkeeping(self):
        nl = Netlist()
        nl.add_dff(name="r[1]", register="r", bit=1)
        with pytest.raises(NetlistError):
            nl.validate()  # bit 0 missing
        nl2 = Netlist()
        nl2.add_dff(name="r[0]", register="r", bit=0)
        with pytest.raises(NetlistError):
            nl2.add_dff(name="dup", register="r", bit=0)

    def test_register_dff_lookup(self):
        nl = make_counter_bit()
        assert nl.register_dff("q", 0).register == "q"
        with pytest.raises(NetlistError):
            nl.register_dff("q", 3)
        with pytest.raises(NetlistError):
            nl.register_dff("nope", 0)

    def test_duplicate_output_rejected(self):
        nl = make_counter_bit()
        with pytest.raises(NetlistError):
            nl.mark_output("q", 0)


class TestTopology:
    def test_topo_order_respects_dependencies(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        g1 = nl.add_gate(GateKind.AND, a, b)
        g2 = nl.add_gate(GateKind.OR, g1, a)
        g3 = nl.add_gate(GateKind.NOT, g2)
        order = nl.topo_order()
        assert order.index(g1) < order.index(g2) < order.index(g3)

    def test_sequential_loop_is_not_a_cycle(self):
        make_counter_bit().topo_order()  # must not raise

    def test_combinational_cycle_detected(self):
        nl = Netlist()
        a = nl.add_input("a")
        # Build g1 = AND(a, g2), g2 = OR(g1, a) via manual patching.
        g1 = nl.add_gate(GateKind.AND, a, a)
        g2 = nl.add_gate(GateKind.OR, g1, a)
        nl.nodes[g1].fanins = (a, g2)
        nl._invalidate()
        with pytest.raises(NetlistError):
            nl.topo_order()

    def test_levels_monotone_along_edges(self):
        nl = Netlist()
        a = nl.add_input("a")
        g1 = nl.add_gate(GateKind.NOT, a)
        g2 = nl.add_gate(GateKind.NOT, g1)
        levels = nl.levels()
        assert levels[a] == 0
        assert levels[g1] == 1
        assert levels[g2] == 2

    def test_arrival_times_follow_edits(self):
        nl = Netlist()
        a = nl.add_input("a")
        g1 = nl.add_gate(GateKind.NOT, a)
        delay = CELL_LIBRARY[GateKind.NOT].delay_ps
        assert nl.arrival_times() == [0.0, delay]
        g2 = nl.add_gate(GateKind.NOT, g1)
        assert nl.arrival_times()[g2] == 2 * delay

    def test_fanouts_inverse_of_fanins(self):
        nl = make_counter_bit()
        fanouts = nl.fanouts()
        for node in nl.nodes:
            for f in node.fanins:
                assert node.nid in fanouts[f]


class TestMetrics:
    def test_area_accumulates(self, mpu_netlist):
        assert mpu_netlist.area() > 0

    def test_hardened_area_increases(self, mpu_netlist):
        base = mpu_netlist.area()
        hardened = mpu_netlist.area(hardened={("viol_q", 0): 3.0})
        assert hardened > base
        # exactly one DFF grew by 2x its cell area
        from repro.netlist.cells import CELL_LIBRARY

        delta = CELL_LIBRARY[GateKind.DFF].area_um2 * 2.0
        assert hardened - base == pytest.approx(delta)

    def test_stats_totals(self, mpu_netlist):
        stats = mpu_netlist.stats()
        assert stats["total"] == len(mpu_netlist)
        assert stats["combinational"] + stats["dff"] <= stats["total"]

    def test_register_widths_manifest(self, mpu_netlist):
        widths = mpu_netlist.register_widths()
        assert widths["viol_q"] == 1
        assert widths["req_addr"] == 16
        assert widths["cfg_base0"] == 16

    def test_to_dot_smoke(self):
        dot = make_counter_bit().to_dot()
        assert dot.startswith("digraph")
        assert "->" in dot
