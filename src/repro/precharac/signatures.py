"""Step 2 of the pre-characterization: signatures and bit-flip correlation.

The RTL simulation of a synthetic benchmark records, per cycle, the MPU's
input port values and register state (:class:`repro.soc.soc.MpuTraceEntry`).
A single bit-parallel pass of the gate-level evaluator then yields every
node's logic-value trace, the switching signatures follow by a shifted XOR,
and the correlation

    ``Corr_i(g, rs) = |ss(g) & (ss(rs) << shift)| / |ss(g)|``

is evaluated per (node, frame).  ``shift`` aligns the node's toggle with
the responding register's Q toggle: a frame-``i`` combinational toggle
shows at the Q pin ``i + 1`` cycles later, a frame-``i`` register toggle
``i`` cycles later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import CharacterizationError
from repro.gatesim.logic import LogicEvaluator, signatures_from_values
from repro.netlist.cones import UnrolledCones
from repro.netlist.graph import Netlist
from repro.utils.bitvec import _POPCOUNT8, BitSequence


@dataclass
class SignatureAnalysis:
    """Signatures plus per-(node, frame) correlations.

    ``correlations[(nid, frame)]`` is the maximum correlation over the
    responding signals (a node helping *any* responding signal flip is
    interesting to the sampler).
    """

    n_cycles: int
    signatures: Dict[int, BitSequence]
    correlations: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def corr(self, nid: int, frame: int) -> float:
        return self.correlations.get((nid, frame), 0.0)


def compute_signatures(
    netlist: Netlist,
    mpu_trace: Sequence,
    evaluator: LogicEvaluator = None,
) -> Dict[int, BitSequence]:
    """Bit-parallel logic simulation of the recorded trace -> signatures."""
    if not mpu_trace:
        raise CharacterizationError("empty MPU trace; record a synthetic run first")
    evaluator = evaluator or LogicEvaluator(netlist)
    input_trace: Dict[str, List[int]] = {
        base: [entry.inputs[base] for entry in mpu_trace]
        for base in evaluator.input_ports()
    }
    state_trace: Dict[str, List[int]] = {
        reg: [entry.state[reg] for entry in mpu_trace]
        for reg in netlist.registers
    }
    values = evaluator.evaluate_trace(input_trace, state_trace)
    return signatures_from_values(values)


def correlate_cones(
    netlist: Netlist,
    cones: UnrolledCones,
    signatures: Mapping[int, BitSequence],
    responding: Sequence[int],
) -> Dict[Tuple[int, int], float]:
    """``Corr_i`` for every cone node against every responding signal.

    The words of every cone node that ever toggles are stacked into one
    ``uint64`` matrix, once.  Only a few distinct shifts occur (one per
    frame and node kind), so each shift takes one numpy pass: the rows of
    the (node, frame) entries that use it are ANDed with every responding
    signal's ``ss(rs) << shift`` and popcounted together.  ``int64``
    counts over ``int64`` weights divide exactly as Python's ``int / int``
    does at these magnitudes.  Entries keep the cone's (frame, node) order.
    """
    rs_signatures = [signatures[rs] for rs in dict.fromkeys(responding)]
    rows: Dict[int, int] = {}
    words: List[np.ndarray] = []
    weights: List[int] = []
    # One entry per (node, frame) with a toggling node, in cone order.
    nids: List[int] = []
    frames: List[int] = []
    entry_rows: List[int] = []
    entry_shifts: List[int] = []
    for frame, nodes in cones.fanin.items():
        for nid in nodes:
            row = rows.get(nid)
            if row is None:
                sig = signatures.get(nid)
                weight = sig.popcount() if sig is not None else 0
                row = rows[nid] = len(words) if weight else -1
                if weight:
                    words.append(sig.words)
                    weights.append(weight)
            if row < 0:
                continue
            nids.append(nid)
            frames.append(frame)
            entry_rows.append(row)
            entry_shifts.append(frame if netlist.node(nid).is_dff else frame + 1)
    if not nids:
        return {}

    node_words = np.stack(words)
    node_weights = np.array(weights, dtype=np.int64)
    row_index = np.array(entry_rows, dtype=np.intp)
    shift_of = np.array(entry_shifts, dtype=np.int64)
    best = np.empty(len(nids), dtype=np.float64)
    for shift in dict.fromkeys(entry_shifts):
        picked = np.flatnonzero(shift_of == shift)
        picked_rows = row_index[picked]
        aligned = np.stack([sig.shift_left(shift).words for sig in rs_signatures])
        both = node_words[picked_rows, None, :] & aligned[None, :, :]
        counts = _POPCOUNT8[both.view(np.uint8)].reshape(
            len(picked), len(rs_signatures), -1
        ).sum(axis=2, dtype=np.int64)
        best[picked] = (counts / node_weights[picked_rows, None]).max(axis=1)
    kept = best > 0.0
    keys = compress(zip(nids, frames), kept.tolist())
    return dict(zip(keys, best[kept].tolist()))


def analyze_signatures(
    netlist: Netlist,
    cones: UnrolledCones,
    mpu_trace: Sequence,
    responding: Sequence[int],
) -> SignatureAnalysis:
    """Convenience wrapper: signatures + correlations in one call."""
    signatures = compute_signatures(netlist, mpu_trace)
    correlations = correlate_cones(netlist, cones, signatures, responding)
    n_cycles = len(mpu_trace)
    return SignatureAnalysis(
        n_cycles=n_cycles, signatures=signatures, correlations=correlations
    )
