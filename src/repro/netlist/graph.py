"""The gate-level netlist container.

A :class:`Netlist` is a DAG of combinational gates between *sources*
(primary inputs, constants, DFF outputs) and *sinks* (primary outputs, DFF
data inputs).  DFF nodes close sequential loops: their fanin is the D pin,
their node value is the Q pin.

Registers carry a ``(register, bit)`` identity so multi-bit RTL registers map
onto per-bit DFFs — this is the cross-level contract the SSF engine uses to
move state between the behavioural RTL model and the gate-level model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NetlistError
from repro.netlist.cells import CELL_LIBRARY, GateKind

_PORT_RE = re.compile(r"^(.*)\[(\d+)\]$")


def group_ports(port_names: Iterable[str]) -> Dict[str, List[Tuple[int, str]]]:
    """Group per-bit port names like ``addr[3]`` into word-level ports.

    Returns ``base -> [(bit_index, full_name), ...]`` sorted by bit index.
    """
    groups: Dict[str, List[Tuple[int, str]]] = {}
    for name in port_names:
        match = _PORT_RE.match(name)
        if match:
            base, idx = match.group(1), int(match.group(2))
        else:
            base, idx = name, 0
        groups.setdefault(base, []).append((idx, name))
    for base in groups:
        groups[base].sort()
    return groups


@dataclass
class Node:
    """One netlist node (gate, source, or flip-flop)."""

    nid: int
    kind: GateKind
    fanins: Tuple[int, ...]
    name: Optional[str] = None
    # For DFF nodes: which RTL register bit this flop implements.
    register: Optional[str] = None
    bit: Optional[int] = None
    init: int = 0

    @property
    def is_dff(self) -> bool:
        return self.kind is GateKind.DFF


class Netlist:
    """A mutable gate-level netlist with structural validation.

    Typical construction goes through :mod:`repro.hdl` elaboration rather
    than by hand, but the API is small enough for direct use in tests:

    >>> nl = Netlist("demo")
    >>> a = nl.add_input("a")
    >>> b = nl.add_input("b")
    >>> g = nl.add_gate(GateKind.AND, a, b, name="g")
    >>> q = nl.add_dff(name="q", register="q", bit=0)
    >>> nl.connect_dff(q, g)
    >>> nl.mark_output("y", q)
    >>> nl.validate()
    """

    def __init__(self, name: str = "netlist"):
        self.name = name
        self.nodes: List[Node] = []
        self.inputs: Dict[str, int] = {}
        self.outputs: Dict[str, int] = {}
        # register name -> list of DFF node ids ordered by bit index
        self.registers: Dict[str, List[int]] = {}
        self._fanouts: Optional[List[List[int]]] = None
        self._topo: Optional[List[int]] = None
        self._levels: Optional[List[int]] = None
        self._arrival: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._fanouts = None
        self._topo = None
        self._levels = None
        self._arrival = None

    def _new_node(self, node: Node) -> int:
        self.nodes.append(node)
        self._invalidate()
        return node.nid

    def add_input(self, name: str) -> int:
        if name in self.inputs:
            raise NetlistError(f"duplicate input port {name!r}")
        nid = len(self.nodes)
        self.inputs[name] = nid
        return self._new_node(Node(nid, GateKind.INPUT, (), name=name))

    def add_const(self, value: int) -> int:
        kind = GateKind.CONST1 if value else GateKind.CONST0
        nid = len(self.nodes)
        return self._new_node(Node(nid, kind, ()))

    def add_gate(self, kind: GateKind, *fanins: int, name: Optional[str] = None) -> int:
        if not kind.is_combinational:
            raise NetlistError(f"add_gate cannot create {kind} nodes")
        expected = CELL_LIBRARY[kind].n_inputs
        if len(fanins) != expected:
            raise NetlistError(
                f"{kind.value} gate takes {expected} inputs, got {len(fanins)}"
            )
        for f in fanins:
            if not 0 <= f < len(self.nodes):
                raise NetlistError(f"fanin id {f} does not exist")
        nid = len(self.nodes)
        return self._new_node(Node(nid, kind, tuple(fanins), name=name))

    def add_dff(
        self,
        d: Optional[int] = None,
        *,
        name: Optional[str] = None,
        register: Optional[str] = None,
        bit: Optional[int] = None,
        init: int = 0,
    ) -> int:
        """Create a flip-flop; the D pin may be connected later (feedback)."""
        nid = len(self.nodes)
        fanins = (d,) if d is not None else ()
        node = Node(
            nid,
            GateKind.DFF,
            tuple(f for f in fanins if f is not None),
            name=name,
            register=register,
            bit=bit,
            init=init & 1,
        )
        if register is not None:
            bits = self.registers.setdefault(register, [])
            if bit is None:
                raise NetlistError("register DFF needs an explicit bit index")
            while len(bits) <= bit:
                bits.append(-1)
            if bits[bit] != -1:
                raise NetlistError(f"register bit {register}[{bit}] already exists")
            bits[bit] = nid
        return self._new_node(node)

    def connect_dff(self, dff_id: int, d_id: int) -> None:
        node = self.nodes[dff_id]
        if not node.is_dff:
            raise NetlistError(f"node {dff_id} is not a DFF")
        if node.fanins:
            raise NetlistError(f"DFF {dff_id} already has a D connection")
        if not 0 <= d_id < len(self.nodes):
            raise NetlistError(f"fanin id {d_id} does not exist")
        node.fanins = (d_id,)
        self._invalidate()

    def mark_output(self, name: str, nid: int) -> None:
        if name in self.outputs:
            raise NetlistError(f"duplicate output port {name!r}")
        if not 0 <= nid < len(self.nodes):
            raise NetlistError(f"node id {nid} does not exist")
        self.outputs[name] = nid

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def dffs(self) -> List[Node]:
        return [n for n in self.nodes if n.is_dff]

    def combinational(self) -> List[Node]:
        return [n for n in self.nodes if n.kind.is_combinational]

    def register_widths(self) -> Dict[str, int]:
        """The register manifest: name -> bit width."""
        return {name: len(bits) for name, bits in self.registers.items()}

    def register_dff(self, register: str, bit: int) -> Node:
        try:
            nid = self.registers[register][bit]
        except (KeyError, IndexError):
            raise NetlistError(f"unknown register bit {register}[{bit}]") from None
        if nid < 0:
            raise NetlistError(f"register bit {register}[{bit}] was never created")
        return self.nodes[nid]

    def fanouts(self) -> List[List[int]]:
        """Fanout adjacency (including DFF D pins as consumers)."""
        if self._fanouts is None:
            fo: List[List[int]] = [[] for _ in self.nodes]
            for node in self.nodes:
                for f in node.fanins:
                    fo[f].append(node.nid)
            self._fanouts = fo
        return self._fanouts

    def topo_order(self) -> List[int]:
        """Combinational nodes in topological order (sources excluded).

        DFF Q pins, inputs and constants are treated as level-0 sources; DFF
        D pins are sinks, so sequential loops do not create cycles.
        """
        if self._topo is not None:
            return self._topo
        indeg = [0] * len(self.nodes)
        for node in self.nodes:
            if node.kind.is_combinational:
                indeg[node.nid] = len(node.fanins)
        fanouts = self.fanouts()
        # Sources seed the frontier: their consumers' in-degrees drop.
        ready = [n.nid for n in self.nodes if n.kind.is_source]
        order: List[int] = []
        frontier = list(ready)
        while frontier:
            nid = frontier.pop()
            for consumer in fanouts[nid]:
                cnode = self.nodes[consumer]
                if not cnode.kind.is_combinational:
                    continue
                indeg[consumer] -= 1
                if indeg[consumer] == 0:
                    order.append(consumer)
                    frontier.append(consumer)
        n_comb = sum(1 for n in self.nodes if n.kind.is_combinational)
        if len(order) != n_comb:
            raise NetlistError(
                "combinational cycle detected: "
                f"ordered {len(order)} of {n_comb} gates"
            )
        self._topo = order
        return order

    def levels(self) -> List[int]:
        """Logic depth per node: sources at 0, gates at 1 + max(fanin)."""
        if self._levels is not None:
            return self._levels
        lv = [0] * len(self.nodes)
        for nid in self.topo_order():
            node = self.nodes[nid]
            lv[nid] = 1 + max(lv[f] for f in node.fanins)
        self._levels = lv
        return lv

    def arrival_times(self) -> List[float]:
        """Static settle time per node (ps), from the cell library delays:
        sources at 0, gates at their delay plus the latest fanin."""
        if self._arrival is not None:
            return self._arrival
        arrival = [0.0] * len(self.nodes)
        for nid in self.topo_order():
            node = self.nodes[nid]
            arrival[nid] = CELL_LIBRARY[node.kind].delay_ps + max(
                arrival[f] for f in node.fanins
            )
        self._arrival = arrival
        return arrival

    # ------------------------------------------------------------------
    # metrics and validation
    # ------------------------------------------------------------------
    def area(self, hardened: Optional[Dict[Tuple[str, int], float]] = None) -> float:
        """Total cell area; ``hardened`` maps register bits to area factors."""
        total = 0.0
        for node in self.nodes:
            cell_area = CELL_LIBRARY[node.kind].area_um2
            if (
                hardened
                and node.is_dff
                and node.register is not None
                and (node.register, node.bit) in hardened
            ):
                cell_area *= hardened[(node.register, node.bit)]
            total += cell_area
        return total

    def stats(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind.value] = counts.get(node.kind.value, 0) + 1
        counts["total"] = len(self.nodes)
        counts["combinational"] = sum(
            1 for n in self.nodes if n.kind.is_combinational
        )
        counts["dff"] = sum(1 for n in self.nodes if n.is_dff)
        return counts

    def validate(self) -> None:
        """Raise :class:`NetlistError` on structural problems."""
        for node in self.nodes:
            if node.kind.is_combinational:
                expected = CELL_LIBRARY[node.kind].n_inputs
                if len(node.fanins) != expected:
                    raise NetlistError(
                        f"node {node.nid} ({node.kind.value}) has "
                        f"{len(node.fanins)} fanins, expected {expected}"
                    )
            if node.is_dff and len(node.fanins) != 1:
                raise NetlistError(f"DFF {node.nid} ({node.name}) has no D connection")
            for f in node.fanins:
                if not 0 <= f < len(self.nodes):
                    raise NetlistError(f"node {node.nid} references missing fanin {f}")
        for name, bits in self.registers.items():
            for i, nid in enumerate(bits):
                if nid < 0:
                    raise NetlistError(f"register {name} is missing bit {i}")
        self.topo_order()  # raises on combinational cycles

    def to_dot(self, max_nodes: int = 500) -> str:
        """GraphViz dump of (a prefix of) the netlist, for debugging."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for node in self.nodes[:max_nodes]:
            label = node.name or f"{node.kind.value}{node.nid}"
            shape = "box" if node.is_dff else "ellipse"
            lines.append(f'  n{node.nid} [label="{label}", shape={shape}];')
            for f in node.fanins:
                if f < max_nodes:
                    lines.append(f"  n{f} -> n{node.nid};")
        lines.append("}")
        return "\n".join(lines)
