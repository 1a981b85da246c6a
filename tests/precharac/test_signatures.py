"""Tests for switching signatures and bit-flip correlation extraction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CharacterizationError
from repro.netlist.cones import ConeExtractor, UnrolledCones
from repro.netlist.graph import Netlist
from repro.precharac.characterization import CharacterizationConfig
from repro.precharac.signatures import (
    analyze_signatures,
    compute_signatures,
    correlate_cones,
)
from repro.soc.mpu import default_responding_signals
from repro.soc.programs import reconfig_workload, synthetic_workload
from repro.soc.soc import Soc
from repro.utils.bitvec import BitSequence


def reference_correlate_cones(netlist, cones, signatures, responding):
    """The per-(node, frame, responding signal) loop that ``correlate_cones``
    must reproduce exactly: same keys, floats and insertion order.

    ``Corr_i`` is computed on unpacked bits with a per-bit shift, so no
    word-level code is shared with the implementation under test.  Each
    node's bits are unpacked once to keep the depth-50 case affordable.
    """
    unpacked = {}

    def bits(nid):
        if nid not in unpacked:
            unpacked[nid] = np.array(signatures[nid].to_bits(), dtype=bool)
        return unpacked[nid]

    def correlation(node_bits, rs_bits, shift):
        weight = int(node_bits.sum())
        if weight == 0:
            return 0.0
        pad = np.zeros(min(shift, rs_bits.size), dtype=bool)
        aligned = np.concatenate([rs_bits[shift:], pad])[: rs_bits.size]
        return int(np.count_nonzero(node_bits & aligned)) / weight

    out = {}
    for frame, nodes in cones.fanin.items():
        for nid in nodes:
            node = netlist.node(nid)
            if signatures.get(nid) is None or not bits(nid).any():
                continue
            shift = frame if node.is_dff else frame + 1
            best = 0.0
            for rs in responding:
                best = max(best, correlation(bits(nid), bits(rs), shift))
            if best > 0.0:
                out[(nid, frame)] = best
    return out


def assert_same_correlations(actual, expected):
    assert list(actual) == list(expected)
    for key, value in expected.items():
        assert type(actual[key]) is float
        assert actual[key] == value, key


@pytest.fixture(scope="module")
def synthetic_trace():
    bench = synthetic_workload(seed=11)
    soc = Soc()
    soc.load_program(bench.program.words)
    soc.reset()
    soc.record_mpu_trace = True
    soc.run_until_halt()
    return list(soc.mpu_trace)


@pytest.fixture(scope="module")
def reconfig_trace():
    bench = reconfig_workload(seed=12)
    soc = Soc()
    soc.load_program(bench.program.words)
    soc.reset()
    soc.record_mpu_trace = True
    soc.run_until_halt()
    return list(soc.mpu_trace)


class TestComputeSignatures:
    def test_every_node_has_a_signature(self, mpu_netlist, synthetic_trace):
        sigs = compute_signatures(mpu_netlist, synthetic_trace)
        assert len(sigs) == len(mpu_netlist)
        n_cycles = len(synthetic_trace)
        assert all(sig.length == n_cycles for sig in sigs.values())

    def test_constants_never_switch(self, mpu_netlist, synthetic_trace):
        sigs = compute_signatures(mpu_netlist, synthetic_trace)
        for node in mpu_netlist.nodes:
            if node.kind.value in ("const0", "const1"):
                assert sigs[node.nid].popcount() == 0

    def test_live_request_registers_switch(self, mpu_netlist, synthetic_trace):
        sigs = compute_signatures(mpu_netlist, synthetic_trace)
        req0 = mpu_netlist.register_dff("req_addr", 0).nid
        assert sigs[req0].popcount() > 0

    def test_static_cfg_bits_do_not_switch(self, mpu_netlist, synthetic_trace):
        """In the static workload the configuration is written once at boot
        and never toggled again afterwards."""
        sigs = compute_signatures(mpu_netlist, synthetic_trace)
        cfg = mpu_netlist.register_dff("cfg_top0", 12).nid
        assert sigs[cfg].popcount() <= 1  # at most the boot write

    def test_empty_trace_rejected(self, mpu_netlist):
        with pytest.raises(CharacterizationError):
            compute_signatures(mpu_netlist, [])


class TestCorrelation:
    def test_decision_cone_correlates(self, mpu_netlist, synthetic_trace):
        responding = default_responding_signals(mpu_netlist)
        cones = ConeExtractor(mpu_netlist).extract_many(
            responding, max_fanin_depth=4
        )
        analysis = analyze_signatures(
            mpu_netlist, cones, synthetic_trace, responding
        )
        # the gate driving viol_q's D pin must be strongly correlated
        viol_d = mpu_netlist.node(
            mpu_netlist.register_dff("viol_q", 0).nid
        ).fanins[0]
        assert analysis.corr(viol_d, 0) > 0.5

    def test_correlations_bounded(self, mpu_netlist, synthetic_trace):
        responding = default_responding_signals(mpu_netlist)
        cones = ConeExtractor(mpu_netlist).extract_many(
            responding, max_fanin_depth=4
        )
        analysis = analyze_signatures(
            mpu_netlist, cones, synthetic_trace, responding
        )
        assert analysis.correlations
        for value in analysis.correlations.values():
            assert 0.0 <= value <= 1.0

    def test_reconfig_excites_critical_cfg_bits(
        self, mpu_netlist, reconfig_trace
    ):
        """The excitation workload must give the decision-critical
        configuration bits non-zero correlation at some frame, while bits
        the layouts never change stay at zero."""
        responding = default_responding_signals(mpu_netlist)
        cones = ConeExtractor(mpu_netlist).extract_many(
            responding, max_fanin_depth=12
        )
        analysis = analyze_signatures(
            mpu_netlist, cones, reconfig_trace, responding
        )
        critical = mpu_netlist.register_dff("cfg_top0", 12).nid
        assert any(
            analysis.corr(critical, f) > 0.0 for f in range(1, 13)
        )
        neutral = mpu_netlist.register_dff("cfg_base3", 7).nid
        assert all(
            analysis.corr(neutral, f) == 0.0 for f in range(0, 13)
        )

    def test_silent_nodes_have_no_entry(self, mpu_netlist, synthetic_trace):
        responding = default_responding_signals(mpu_netlist)
        cones = ConeExtractor(mpu_netlist).extract_many(
            responding, max_fanin_depth=3
        )
        sigs = compute_signatures(mpu_netlist, synthetic_trace)
        corr = correlate_cones(mpu_netlist, cones, sigs, responding)
        for (nid, _frame) in corr:
            assert sigs[nid].popcount() > 0


class TestCorrelateConesMatchesReference:
    def test_reconfig_trace_at_production_depth(
        self, mpu_netlist, reconfig_trace
    ):
        config = CharacterizationConfig()
        responding = default_responding_signals(mpu_netlist)
        cones = ConeExtractor(mpu_netlist).extract_many(
            responding,
            max_fanin_depth=config.max_frame,
            max_fanout_depth=config.max_fanout_frame,
        )
        sigs = compute_signatures(mpu_netlist, reconfig_trace)
        actual = correlate_cones(mpu_netlist, cones, sigs, responding)
        expected = reference_correlate_cones(
            mpu_netlist, cones, sigs, responding
        )
        assert max(cones.fanin) == config.max_frame
        assert len(expected) > 1000
        assert_same_correlations(actual, expected)

    @given(st.data())
    def test_generated_signatures(self, data):
        # Lengths are never a whole number of words, so the tail word is
        # always partial; frames reach past the end of the sequence.
        length = 64 * data.draw(st.integers(0, 4)) + data.draw(
            st.integers(1, 63)
        )
        netlist = Netlist("corr")
        signatures = {}
        n_nodes = data.draw(st.integers(1, 10))
        for i in range(n_nodes):
            if data.draw(st.booleans()):
                nid = netlist.add_dff(name=f"r{i}[0]", register=f"r{i}", bit=0)
            else:
                nid = netlist.add_input(f"in{i}")
            kind = data.draw(st.sampled_from(("missing", "silent", "bits")))
            if kind == "silent":
                signatures[nid] = BitSequence(length)
            elif kind == "bits":
                raw = data.draw(
                    st.binary(min_size=(length + 7) // 8, max_size=(length + 7) // 8)
                )
                bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
                signatures[nid] = BitSequence.from_bits(bits[:length].tolist())
        if not signatures:
            signatures[0] = BitSequence(length)
        # Duplicate responding ids are allowed and must not matter.
        responding = data.draw(
            st.lists(st.sampled_from(sorted(signatures)), min_size=1, max_size=4)
        )
        frames = data.draw(
            st.lists(
                st.one_of(
                    st.integers(0, length + 70),
                    st.sampled_from((63, 64, 127, 128)),
                ),
                min_size=1,
                max_size=6,
                unique=True,
            )
        )
        cones = UnrolledCones(
            responding=responding[0],
            fanin={
                frame: data.draw(
                    st.sets(st.integers(0, n_nodes - 1), min_size=1)
                )
                for frame in frames
            },
        )
        actual = correlate_cones(netlist, cones, signatures, responding)
        expected = reference_correlate_cones(
            netlist, cones, signatures, responding
        )
        assert_same_correlations(actual, expected)
