"""The levelized evaluator == the per-node reference loop it replaced.

``LogicEvaluator.evaluate`` runs one truth-table step per logic level,
moves words to and from node values through packed index arrays, and
derives every gate's pin-sensitization mask from the same table rows.
The reference kept here is the evaluator it replaced: sources spread bit
by bit with Python shifts, then one ``if`` chain per node in topological
order, and next state and outputs gathered bit by bit.  Node values,
next state (key order included) and outputs must match it exactly, and
the mask must equal :func:`gate_sensitized` for every (gate, pin).

Random netlists exercise DAG shapes, constants, unbracketed ports and
ports wider than 63 bits with a bit above 63 set; words wider than their
port and negative words check that only the port's bits are read.  The
MPU netlist of every countermeasure variant runs its golden benchmark
trace.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gatesim.logic import LogicEvaluator
from repro.netlist.cells import GateKind, gate_sensitized
from repro.netlist.graph import group_ports
from repro.soc.memmap import DEFAULT_MEMORY_MAP
from repro.soc.mpu import MpuVariant, build_mpu_netlist
from repro.soc.programs import illegal_write_benchmark
from repro.soc.soc import Soc

from tests.strategies import random_netlists, random_word_netlists

VARIANTS = ("none", "parity", "dual", "tmr", "tmr+parity")


def reference_evaluate(netlist, inputs, state):
    """Per-node reference: every gate in topological order."""
    values = np.zeros(len(netlist), dtype=np.int8)
    for base, bits in group_ports(netlist.inputs.keys()).items():
        if base not in inputs:
            raise SimulationError(f"missing input {base!r}")
        word = int(inputs[base])
        for idx, full in bits:
            values[netlist.inputs[full]] = (word >> idx) & 1
    for reg, dff_ids in netlist.registers.items():
        if reg not in state:
            raise SimulationError(f"missing register state {reg!r}")
        word = int(state[reg])
        for bit, nid in enumerate(dff_ids):
            values[nid] = (word >> bit) & 1
    for node in netlist.nodes:
        if node.kind is GateKind.CONST1:
            values[node.nid] = 1
    for nid in netlist.topo_order():
        node = netlist.nodes[nid]
        kind = node.kind
        f = node.fanins
        if kind is GateKind.AND:
            values[nid] = values[f[0]] & values[f[1]]
        elif kind is GateKind.OR:
            values[nid] = values[f[0]] | values[f[1]]
        elif kind is GateKind.XOR:
            values[nid] = values[f[0]] ^ values[f[1]]
        elif kind is GateKind.NOT:
            values[nid] = values[f[0]] ^ 1
        elif kind is GateKind.NAND:
            values[nid] = (values[f[0]] & values[f[1]]) ^ 1
        elif kind is GateKind.NOR:
            values[nid] = (values[f[0]] | values[f[1]]) ^ 1
        elif kind is GateKind.XNOR:
            values[nid] = (values[f[0]] ^ values[f[1]]) ^ 1
        elif kind is GateKind.MUX:
            values[nid] = values[f[2]] if values[f[0]] else values[f[1]]
        elif kind is GateKind.BUF:
            values[nid] = values[f[0]]
        else:
            raise SimulationError(f"cannot evaluate node kind {kind}")
    return values


def reference_next_state(netlist, values):
    """Register next-state words, gathered bit by bit from the D pins."""
    out = {}
    for reg, dff_ids in netlist.registers.items():
        word = 0
        for bit, nid in enumerate(dff_ids):
            d_pin = netlist.node(nid).fanins[0]
            word |= int(values[d_pin]) << bit
        out[reg] = word
    return out


def reference_outputs(netlist, values):
    """Word-level output ports, gathered bit by bit."""
    out = {}
    for base, bits in group_ports(netlist.outputs.keys()).items():
        word = 0
        for idx, full in bits:
            word |= int(values[netlist.outputs[full]]) << idx
        out[base] = word
    return out


@functools.lru_cache(maxsize=None)
def _sensitized(kind, in_vals, pin):
    return gate_sensitized(kind, list(in_vals), pin)


def assert_matches_reference(ev, inputs, state, check_mask=True):
    netlist = ev.netlist
    values = ev.evaluate(inputs, state)
    expected = reference_evaluate(netlist, inputs, state)
    assert values.dtype == expected.dtype
    assert values.tolist() == expected.tolist()
    next_state = ev.next_state(values)
    expected_next = reference_next_state(netlist, expected)
    assert list(next_state.items()) == list(expected_next.items())
    outputs = ev.outputs(values)
    assert list(outputs.items()) == list(reference_outputs(netlist, expected).items())
    assert ev.step(inputs, state) == (outputs, next_state)
    if not check_mask:
        return
    mask = ev.pin_mask(values)
    assert len(mask) == len(netlist)
    for node in netlist.nodes:
        if not node.kind.is_combinational:
            assert mask[node.nid] == 0
            continue
        in_vals = tuple(int(expected[f]) for f in node.fanins)
        for pin in range(len(node.fanins)):
            verdict = bool((mask[node.nid] >> pin) & 1)
            assert verdict == _sensitized(node.kind, in_vals, pin)
        assert mask[node.nid] >> len(node.fanins) == 0


def _draw_words(data, ports, wide):
    """One word per port, sometimes wider than the port or negative;
    ports wider than 64 bits always get bit 64 set."""
    words = {}
    for name, width in ports.items():
        span = 1 << (width + 2 if wide else width)
        word = data.draw(st.integers(-span if wide else 0, span - 1))
        words[name] = word | (1 << 64) if width > 64 else word
    return words


class TestRandomNetlists:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, data):
        nl = data.draw(st.one_of(random_netlists(), random_word_netlists()))
        ev = LogicEvaluator(nl)
        for _ in range(3):
            wide = data.draw(st.booleans())
            inputs = _draw_words(data, ev.input_ports(), wide)
            state = _draw_words(data, nl.register_widths(), wide)
            assert_matches_reference(ev, inputs, state)


@pytest.mark.parametrize("variant", VARIANTS)
def test_mpu_golden_trace(variant):
    """Every cycle of the golden benchmark run, on every MPU variant;
    the per-(gate, pin) mask check runs on every 8th cycle."""
    mpu_variant = MpuVariant.parse(variant)
    ev = LogicEvaluator(build_mpu_netlist(DEFAULT_MEMORY_MAP, mpu_variant))
    soc = Soc(DEFAULT_MEMORY_MAP, mpu_variant)
    soc.load_program(illegal_write_benchmark().program.words)
    soc.reset()
    soc.record_mpu_trace = True
    soc.run_until_halt()
    assert len(soc.mpu_trace) > 100
    for cycle, entry in enumerate(soc.mpu_trace):
        assert_matches_reference(
            ev, entry.inputs, entry.state, check_mask=cycle % 8 == 0
        )
