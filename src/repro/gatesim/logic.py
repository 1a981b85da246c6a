"""Zero-delay logic evaluation of a netlist.

Two entry points:

* :meth:`LogicEvaluator.evaluate` — scalar, one cycle: word-level inputs and
  register state in, every node's logic value out.  Gates of one logic
  level never feed each other, so each level is one numpy step: gather
  the gates' fanin values, form the row ``kind * 8 + 4a + 2b + c`` and
  look it up in 8-entry truth tables generated from :func:`eval_gate`.
  The same row gives each gate's pin-sensitization mask
  (:meth:`LogicEvaluator.pin_mask`), which the transient simulator reads
  for logical masking.
* :meth:`LogicEvaluator.evaluate_trace` — bit-parallel over a multi-cycle
  trace: per-cycle source values are packed 64 cycles per ``uint64`` word and
  the whole combinational network is evaluated once, which is the paper's
  "fast bit-parallel calculation" used to derive switching signatures.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.netlist.cells import CELL_LIBRARY, GateKind, eval_gate, eval_gate_words
from repro.netlist.graph import Netlist, group_ports
from repro.utils.bitvec import BitSequence, pack_bits

NodeValues = np.ndarray  # int8 array indexed by node id

_COMB_KINDS = tuple(kind for kind in GateKind if kind.is_combinational)
#: Weights of a gate's pin values (a, b, c) in its truth-table row.
_PIN_WEIGHTS = np.array([4, 2, 1], dtype=np.int8)


def _truth_tables() -> Tuple[np.ndarray, np.ndarray]:
    """Per-kind 8-row value and sensitization tables.

    Row ``code * 8 + 4a + 2b + c`` holds the gate's output for pin values
    ``(a, b, c)``, ignoring pins beyond its arity.  The sensitization row
    sets bit ``pin`` iff flipping that pin alone flips the output, which
    is :func:`~repro.netlist.cells.gate_sensitized` tabulated.
    """
    lut = np.zeros(8 * len(_COMB_KINDS), dtype=np.int8)
    for code, kind in enumerate(_COMB_KINDS):
        arity = CELL_LIBRARY[kind].n_inputs
        for row in range(8):
            pins = [(row >> 2) & 1, (row >> 1) & 1, row & 1]
            lut[code * 8 + row] = eval_gate(kind, pins[:arity])
    rows = np.arange(len(lut))
    sens = np.zeros(len(lut), dtype=np.uint8)
    for pin in range(3):
        sens |= (lut != lut[rows ^ (4 >> pin)]).astype(np.uint8) << pin
    return lut, sens


_LUT, _SENS = _truth_tables()


class _Layout(NamedTuple):
    """Word-level ports laid side by side in one packed integer."""

    fields: List[Tuple[str, int, int]]  # (port, offset, mask)
    positions: np.ndarray  # per port bit: position in the packed integer
    nids: np.ndarray  # per port bit: its node
    n_bits: int


def _layout(ports: Sequence[Tuple[str, Sequence[Tuple[int, int]]]]) -> _Layout:
    """Lay out ``(port, [(bit index, node id), ...])`` pairs in order.

    Python integers have no width limit, so neither has a port.
    """
    fields: List[Tuple[str, int, int]] = []
    positions: List[int] = []
    nids: List[int] = []
    offset = 0
    for name, bits in ports:
        width = max(idx for idx, _ in bits) + 1
        fields.append((name, offset, (1 << width) - 1))
        for idx, nid in bits:
            positions.append(offset + idx)
            nids.append(nid)
        offset += width
    return _Layout(
        fields,
        np.array(positions, dtype=np.intp),
        np.array(nids, dtype=np.intp),
        offset,
    )


def _words(values: NodeValues, layout: _Layout) -> Dict[str, int]:
    """Read the word of every port in ``layout`` off node ``values``."""
    bits = np.zeros(layout.n_bits, dtype=np.uint8)
    bits[layout.positions] = values[layout.nids]
    packed = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    return {name: (packed >> offset) & mask for name, offset, mask in layout.fields}


class LogicEvaluator:
    """Evaluates the combinational network of one netlist.

    The netlist is levelized once at construction, from the cached
    :meth:`Netlist.levels`; each evaluation is one truth-table step per
    logic level.  Word-level ports move to and from node values through
    precomputed index arrays.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        nodes = netlist.nodes
        self._topo = netlist.topo_order()
        self._input_groups = group_ports(netlist.inputs.keys())
        self._output_groups = group_ports(netlist.outputs.keys())

        # Every gate in level order, with its fanins as 3 pins (1- and
        # 2-input gates repeat pin 0, which their table rows ignore) and
        # the base row of its kind's truth table.
        levels = netlist.levels()
        gates = sorted(self._topo, key=levels.__getitem__)
        self._gates = np.array(gates, dtype=np.intp)
        self._fanins = np.array(
            [(nodes[g].fanins * 3)[:3] for g in gates], dtype=np.intp
        ).reshape(-1, 3).T.copy()
        self._bases = np.array(
            [_COMB_KINDS.index(nodes[g].kind) * 8 for g in gates], dtype=np.intp
        )
        splits = np.flatnonzero(np.diff([levels[g] for g in gates])) + 1
        self._schedule = [
            (g, f.copy(), b)
            for g, f, b in zip(
                np.split(self._gates, splits),
                np.split(self._fanins, splits, axis=1),
                np.split(self._bases, splits),
            )
            if len(g)
        ]

        self._template = np.zeros(len(nodes), dtype=np.int8)
        for node in nodes:
            if node.kind is GateKind.CONST1:
                self._template[node.nid] = 1
        inputs = [
            (base, [(idx, netlist.inputs[full]) for idx, full in bits])
            for base, bits in self._input_groups.items()
        ]
        registers = [
            (reg, list(enumerate(dff_ids)))
            for reg, dff_ids in netlist.registers.items()
        ]
        self._source_layout = _layout(inputs + registers)
        self._next_layout = _layout([
            (reg, [(bit, nodes[nid].fanins[0]) for bit, nid in enumerate(dff_ids)])
            for reg, dff_ids in netlist.registers.items()
        ])
        self._output_layout = _layout([
            (base, [(idx, netlist.outputs[full]) for idx, full in bits])
            for base, bits in self._output_groups.items()
        ])
        self._input_fields = self._source_layout.fields[: len(inputs)]
        self._state_fields = self._source_layout.fields[len(inputs):]

    # ------------------------------------------------------------------
    # word-level packing helpers
    # ------------------------------------------------------------------
    def input_ports(self) -> Dict[str, int]:
        """Word-level input ports: base name -> width."""
        return {base: len(bits) for base, bits in self._input_groups.items()}

    def output_ports(self) -> Dict[str, int]:
        return {base: len(bits) for base, bits in self._output_groups.items()}

    def _pack_sources(
        self, inputs: Mapping[str, int], state: Mapping[str, int]
    ) -> int:
        packed = 0
        for words, what, fields in (
            (inputs, "input", self._input_fields),
            (state, "register state", self._state_fields),
        ):
            for name, offset, mask in fields:
                if name not in words:
                    raise SimulationError(f"missing {what} {name!r}")
                packed |= (int(words[name]) & mask) << offset
        return packed

    # ------------------------------------------------------------------
    # scalar evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, inputs: Mapping[str, int], state: Mapping[str, int]
    ) -> NodeValues:
        """One-cycle evaluation: values for every node, indexed by node id."""
        packed = self._pack_sources(inputs, state)
        raw = packed.to_bytes((self._source_layout.n_bits + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        values = self._template.copy()
        values[self._source_layout.nids] = bits[self._source_layout.positions]
        for gates, fanins, bases in self._schedule:
            values[gates] = _LUT[bases + _PIN_WEIGHTS @ values[fanins]]
        return values

    def pin_mask(self, values: NodeValues) -> bytes:
        """Per-node pin-sensitization mask over evaluated ``values``.

        Bit ``pin`` of byte ``nid`` is set iff a pulse on that pin of that
        gate passes it (:func:`~repro.netlist.cells.gate_sensitized` on
        the fanin values); sources and flip-flops get 0.  One vectorized
        pass over every gate.  Returned as ``bytes`` because the
        transient kernel reads it one node at a time, where indexing
        ``bytes`` is cheapest.
        """
        mask = np.zeros(len(values), dtype=np.uint8)
        mask[self._gates] = _SENS[self._bases + _PIN_WEIGHTS @ values[self._fanins]]
        return mask.tobytes()

    def next_state(self, values: NodeValues) -> Dict[str, int]:
        """Register next-state words from the DFF D pins."""
        return _words(values, self._next_layout)

    def outputs(self, values: NodeValues) -> Dict[str, int]:
        """Word-level output port values."""
        return _words(values, self._output_layout)

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
