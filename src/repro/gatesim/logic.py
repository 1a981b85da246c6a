"""Zero-delay logic evaluation of a netlist.

Two entry points:

* :meth:`LogicEvaluator.evaluate` — scalar, one cycle: word-level inputs and
  register state in, every node's logic value out.  This is what the
  transient simulator uses for baseline values and sensitization checks.
* :meth:`LogicEvaluator.evaluate_trace` — bit-parallel over a multi-cycle
  trace: per-cycle source values are packed 64 cycles per ``uint64`` word and
  the whole combinational network is evaluated once, which is the paper's
  "fast bit-parallel calculation" used to derive switching signatures.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.netlist.cells import GateKind, eval_gate_words
from repro.netlist.graph import Netlist, group_ports
from repro.utils.bitvec import BitSequence, pack_bits

NodeValues = np.ndarray  # int8 array indexed by node id


class LogicEvaluator:
    """Evaluates the combinational network of one netlist.

    The netlist is levelized once at construction; each evaluation is a
    single pass over the topological order.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self._topo = netlist.topo_order()
        self._input_groups = group_ports(netlist.inputs.keys())
        self._output_groups = group_ports(netlist.outputs.keys())

    # ------------------------------------------------------------------
    # word-level packing helpers
    # ------------------------------------------------------------------
    def input_ports(self) -> Dict[str, int]:
        """Word-level input ports: base name -> width."""
        return {base: len(bits) for base, bits in self._input_groups.items()}

    def output_ports(self) -> Dict[str, int]:
        return {base: len(bits) for base, bits in self._output_groups.items()}

    def _spread_sources(
        self,
        inputs: Mapping[str, int],
        state: Mapping[str, int],
        values: np.ndarray,
    ) -> None:
        for base, bits in self._input_groups.items():
            if base not in inputs:
                raise SimulationError(f"missing input {base!r}")
            word = int(inputs[base])
            for idx, full in bits:
                values[self.netlist.inputs[full]] = (word >> idx) & 1
        for reg, dff_ids in self.netlist.registers.items():
            if reg not in state:
                raise SimulationError(f"missing register state {reg!r}")
            word = int(state[reg])
            for bit, nid in enumerate(dff_ids):
                values[nid] = (word >> bit) & 1
        for node in self.netlist.nodes:
            if node.kind is GateKind.CONST1:
                values[node.nid] = 1

    # ------------------------------------------------------------------
    # scalar evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, inputs: Mapping[str, int], state: Mapping[str, int]
    ) -> NodeValues:
        """One-cycle evaluation: values for every node, indexed by node id."""
        nodes = self.netlist.nodes
        values = np.zeros(len(nodes), dtype=np.int8)
        self._spread_sources(inputs, state, values)
        for nid in self._topo:
            node = nodes[nid]
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
            else:  # pragma: no cover - validate() keeps this unreachable
                raise SimulationError(f"cannot evaluate node kind {kind}")
        return values

    def next_state(self, values: NodeValues) -> Dict[str, int]:
        """Register next-state words from the DFF D pins."""
        out: Dict[str, int] = {}
        for reg, dff_ids in self.netlist.registers.items():
            word = 0
            for bit, nid in enumerate(dff_ids):
                d_pin = self.netlist.node(nid).fanins[0]
                word |= int(values[d_pin]) << bit
            out[reg] = word
        return out

    def outputs(self, values: NodeValues) -> Dict[str, int]:
        """Word-level output port values."""
        out: Dict[str, int] = {}
        for base, bits in self._output_groups.items():
            word = 0
            for idx, full in bits:
                word |= int(values[self.netlist.outputs[full]]) << idx
            out[base] = word
        return out

    def step(
        self, inputs: Mapping[str, int], state: Mapping[str, int]
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Convenience: one clock cycle -> (outputs, next register state)."""
        values = self.evaluate(inputs, state)
        return self.outputs(values), self.next_state(values)

    # ------------------------------------------------------------------
    # bit-parallel trace evaluation
    # ------------------------------------------------------------------
    def evaluate_trace(
        self,
        input_trace: Mapping[str, Sequence[int]],
        state_trace: Mapping[str, Sequence[int]],
    ) -> Dict[int, BitSequence]:
        """Evaluate the comb network over a whole trace at once.

        ``input_trace``/``state_trace`` hold per-cycle word values; all
        sequences must be equally long.  Returns, for every node id, the
        packed per-cycle logic value sequence (not the switching signature —
        call :meth:`BitSequence.from_values` / use
        :func:`signatures_from_values` for that).
        """
        lengths = {len(v) for v in input_trace.values()}
        lengths |= {len(v) for v in state_trace.values()}
        if len(lengths) != 1:
            raise SimulationError("trace sequences must all have equal length")
        n_cycles = lengths.pop()
        n_words = (n_cycles + 63) // 64

        words: Dict[int, np.ndarray] = {}
        ones = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        zeros = np.zeros(n_words, dtype=np.uint64)

        for base, bits in self._input_groups.items():
            if base not in input_trace:
                raise SimulationError(f"missing input trace {base!r}")
            series = list(input_trace[base])
            for idx, full in bits:
                bitvals = [(int(v) >> idx) & 1 for v in series]
                words[self.netlist.inputs[full]] = pack_bits(bitvals)
        for reg, dff_ids in self.netlist.registers.items():
            if reg not in state_trace:
                raise SimulationError(f"missing register trace {reg!r}")
            series = list(state_trace[reg])
            for bit, nid in enumerate(dff_ids):
                bitvals = [(int(v) >> bit) & 1 for v in series]
                words[nid] = pack_bits(bitvals)
        for node in self.netlist.nodes:
            if node.kind is GateKind.CONST1:
                words[node.nid] = ones.copy()
            elif node.kind is GateKind.CONST0:
                words[node.nid] = zeros.copy()

        for nid in self._topo:
            node = self.netlist.nodes[nid]
            words[nid] = eval_gate_words(
                node.kind, [words[f] for f in node.fanins]
            )

        result: Dict[int, BitSequence] = {}
        for nid, w in words.items():
            # Mask any padding bits beyond n_cycles.
            seq = BitSequence(n_cycles, w[: (n_cycles + 63) // 64])
            result[nid] = seq
        return result


def signatures_from_values(
    value_traces: Mapping[int, BitSequence]
) -> Dict[int, BitSequence]:
    """Turn per-node logic-value traces into switching signatures.

    ``ss_i = value_i XOR value_{i-1}`` with ``ss_0 = 0``: each trace is
    XOR-ed with its own word-level :meth:`BitSequence.shift_right` by one
    cycle, which leaves ``value_0`` itself in bit 0, so bit 0 is cleared.
    """
    out: Dict[int, BitSequence] = {}
    for nid, trace in value_traces.items():
        ss = trace ^ trace.shift_right(1)
        if ss.length:
            ss.set(0, 0)
        out[nid] = ss
    return out
