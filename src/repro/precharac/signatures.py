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
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import CharacterizationError
from repro.gatesim.logic import LogicEvaluator, signatures_from_values
from repro.netlist.cones import UnrolledCones
from repro.netlist.graph import Netlist
from repro.utils.bitvec import BitSequence


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

    Only a few distinct shifts occur (one per frame and node kind), so each
    responding signal's ``ss(rs) << shift`` is built once per shift, and
    each node's ``|ss(g)|`` once, however many frames the node sits in.
    """
    out: Dict[Tuple[int, int], float] = {}
    rs_signatures = {rs: signatures[rs] for rs in responding}
    aligned: Dict[int, List[BitSequence]] = {}
    weights: Dict[int, int] = {}
    for frame, nodes in cones.fanin.items():
        for nid in nodes:
            sig = signatures.get(nid)
            if sig is None:
                continue
            weight = weights.get(nid)
            if weight is None:
                weight = weights[nid] = sig.popcount()
            if weight == 0:
                continue
            shift = frame if netlist.node(nid).is_dff else frame + 1
            rs_aligned = aligned.get(shift)
            if rs_aligned is None:
                rs_aligned = aligned[shift] = [
                    rs_sig.shift_left(shift) for rs_sig in rs_signatures.values()
                ]
            best = 0.0
            for rs_sig in rs_aligned:
                best = max(best, (sig & rs_sig).popcount() / weight)
            if best > 0.0:
                out[(nid, frame)] = best
    return out


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
