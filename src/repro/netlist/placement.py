"""Grid placement of netlist cells.

The radiation attack model (Section 3.2, following [18]) needs physical
coordinates: a radiation event at centre ``g`` with radius ``r`` impacts all
gates within the radiated spot.  Real designs come with placement from the
physical-design flow; here we synthesize a placement that preserves the
property the model relies on — *logically related cells sit near each other*
— by placing cells column-by-column in topological-level order, keeping each
register bank contiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetlistError
from repro.netlist.cells import GateKind
from repro.netlist.graph import Netlist
from repro.utils.rng import SeedLike, as_generator

#: Kinds without a silicon footprint, and kinds that are not gates.
_NON_PHYSICAL = (GateKind.INPUT, GateKind.CONST0, GateKind.CONST1)
_NON_GATE = _NON_PHYSICAL + (GateKind.DFF,)


class Footprint(NamedTuple):
    """The cells one strike hits, as parallel arrays.

    ``nodes`` lists them in :meth:`Placement.within_radius` order,
    ``distances`` holds :meth:`Placement.distance` from the centre, and
    ``dff``/``comb`` flag the flip-flops and combinational gates (a
    non-physical centre is neither).
    """

    nodes: np.ndarray
    distances: np.ndarray
    dff: np.ndarray
    comb: np.ndarray


@dataclass
class Placement:
    """Cell coordinates for one netlist (micrometres)."""

    netlist: Netlist
    x: np.ndarray
    y: np.ndarray
    pitch_um: float
    _footprints: Dict[Tuple[int, float], Footprint] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Read-only: one placement serves every engine on a design.
        self.x.flags.writeable = False
        self.y.flags.writeable = False

    def position(self, nid: int) -> Tuple[float, float]:
        return float(self.x[nid]), float(self.y[nid])

    def within_radius(self, centre: int, radius_um: float) -> List[int]:
        """Node ids whose cells lie within ``radius_um`` of ``centre``.

        Only physical cells are returned (inputs/constants have no silicon
        footprint and are excluded); the centre cell is always included.
        """
        nodes = self.netlist.nodes
        physical = [
            nid
            for nid in self._near(centre, radius_um).tolist()
            if nodes[nid].kind not in _NON_PHYSICAL
        ]
        if centre not in physical:
            physical.append(centre)
        return physical

    def reached_from(self, nid: int, radius_um: float) -> np.ndarray:
        """Node ids whose ``within_radius(., radius_um)`` contains ``nid``.

        The distance test squares coordinate differences, so it is
        symmetric bit for bit: a physical cell is reached from every node
        within the radius, a non-physical one only from itself.
        """
        if self.netlist.nodes[nid].kind in _NON_PHYSICAL:
            return np.array([nid], dtype=np.int64)
        return self._near(nid, radius_um)

    def _near(self, nid: int, radius_um: float) -> np.ndarray:
        """Every node id, of any kind, within ``radius_um`` of ``nid``."""
        cx, cy = self.position(nid)
        d2 = (self.x - cx) ** 2 + (self.y - cy) ** 2
        return np.flatnonzero(d2 <= radius_um * radius_um)

    def footprint(self, centre: int, radius_um: float) -> Footprint:
        """The strike footprint of ``within_radius``, memoized per
        (centre, radius).

        A campaign strikes universe centres at the radius distribution's
        radii, so the memo is bounded by universe × radii.  Every engine
        on a design shares it: an entry is a pure function of its key
        with read-only arrays, so two threads that fill one key at once
        store equal values.
        """
        key = (centre, radius_um)
        found = self._footprints.get(key)
        if found is None:
            nodes = np.array(self.within_radius(centre, radius_um), dtype=np.int64)
            cx, cy = self.position(centre)
            xs, ys = self.x[nodes].tolist(), self.y[nodes].tolist()
            kinds = [self.netlist.nodes[nid].kind for nid in nodes.tolist()]
            dff = GateKind.DFF
            found = Footprint(
                nodes=nodes,
                distances=np.array(
                    [math.hypot(cx - x, cy - y) for x, y in zip(xs, ys)]
                ),
                dff=np.array([kind is dff for kind in kinds], dtype=bool),
                comb=np.array([kind not in _NON_GATE for kind in kinds], dtype=bool),
            )
            for array in found:
                array.flags.writeable = False
            self._footprints[key] = found
        return found

    def distance(self, a: int, b: int) -> float:
        ax, ay = self.position(a)
        bx, by = self.position(b)
        return math.hypot(ax - bx, ay - by)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        return (
            float(self.x.min()),
            float(self.y.min()),
            float(self.x.max()),
            float(self.y.max()),
        )


class GridPlacer:
    """Places cells on a regular grid in levelized order.

    Cells are sorted by (topological level, node id) and written into a
    near-square grid column by column, so combinationally adjacent gates end
    up physically adjacent — the locality the multi-gate radiation model
    needs to produce correlated multi-bit upsets.  Flip-flops are placed at
    the level of their D-pin driver (as a real placer interleaves flops
    with the logic feeding them), not at level 0 where being topological
    sources would otherwise strand them.  Optional jitter breaks exact grid
    symmetry.
    """

    def __init__(self, pitch_um: float = 2.0, jitter: float = 0.0, seed: SeedLike = None):
        if pitch_um <= 0:
            raise NetlistError("placement pitch must be positive")
        if not 0 <= jitter < 0.5:
            raise NetlistError("jitter must lie in [0, 0.5) of a pitch")
        self.pitch_um = pitch_um
        self.jitter = jitter
        self._rng = as_generator(seed)

    def place(self, netlist: Netlist) -> Placement:
        n = len(netlist)
        levels = list(netlist.levels())
        for node in netlist.nodes:
            if node.kind is not None and node.is_dff and node.fanins:
                levels[node.nid] = levels[node.fanins[0]]
        order = sorted(range(n), key=lambda nid: (levels[nid], nid))
        side = max(1, math.ceil(math.sqrt(n)))
        x = np.zeros(n, dtype=float)
        y = np.zeros(n, dtype=float)
        for slot, nid in enumerate(order):
            col, row = divmod(slot, side)
            jx = self._rng.uniform(-self.jitter, self.jitter) if self.jitter else 0.0
            jy = self._rng.uniform(-self.jitter, self.jitter) if self.jitter else 0.0
            x[nid] = (col + jx) * self.pitch_um
            y[nid] = (row + jy) * self.pitch_um
        return Placement(netlist=netlist, x=x, y=y, pitch_um=self.pitch_um)
