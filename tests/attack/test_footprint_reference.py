"""Reference oracle for memoized strike footprints.

The radiation and glitch techniques read ``Placement.footprint``: the
cells ``within_radius`` returns, in order, with distance and kind,
memoized per (centre, radius).  The references below are the loops they
replace, over ``within_radius``/``distance`` with settle times computed
afresh.  Each memoized injection must equal its reference, ``gate_pulses``
key order included, with the generator left in the same state, on the
memo's first use and on a hit.
"""

from functools import lru_cache
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import default_attack_spec
from repro.attack.techniques import (
    ClockGlitchTechnique,
    RadiationTechnique,
    VoltageGlitchTechnique,
)
from repro.gatesim.timing import TimingModel
from repro.gatesim.transient import TransientInjection
from repro.netlist.cells import CELL_LIBRARY, GateKind
from repro.netlist.placement import Placement

from tests.strategies import placed_netlists


@lru_cache(maxsize=8)  # holds its netlists, so no stale entry
def reference_arrival(netlist) -> List[float]:
    arrival = [0.0] * len(netlist)
    for nid in netlist.topo_order():
        node = netlist.node(nid)
        delay = CELL_LIBRARY[node.kind].delay_ps
        arrival[nid] = delay + max(arrival[f] for f in node.fanins)
    return arrival


def reference_radiation(tech, placement, centre, radius_um, rng):
    hit = placement.within_radius(centre, radius_um)
    strike_time = float(rng.uniform(0.0, tech.timing.clock_period_ps))
    gate_pulses: Dict[int, float] = {}
    struck_dffs: List[int] = []
    for nid in hit:
        node = placement.netlist.node(nid)
        distance = placement.distance(centre, nid)
        if node.kind is GateKind.DFF:
            if tech.target_filter == "comb_only":
                continue
            if distance <= tech.dff_upset_fraction * radius_um:
                struck_dffs.append(nid)
        elif node.kind.is_combinational:
            if tech.target_filter == "seq_only":
                continue
            width = tech.peak_width_ps * max(0.0, 1.0 - distance / radius_um)
            if width > 0:
                gate_pulses[nid] = width
    return TransientInjection(
        gate_pulses=gate_pulses,
        struck_dffs=struck_dffs,
        strike_time_ps=strike_time,
    )


def reference_clock_glitch(tech, placement, centre, radius_um, rng):
    hit = placement.within_radius(centre, radius_um)
    threshold = tech.timing.clock_period_ps - tech.glitch_depth_ps
    arrival = reference_arrival(placement.netlist)
    gate_pulses: Dict[int, float] = {}
    for nid in hit:
        if not placement.netlist.node(nid).kind.is_combinational:
            continue
        if arrival[nid] >= threshold:
            gate_pulses[nid] = tech.glitch_depth_ps
    return TransientInjection(
        gate_pulses=gate_pulses,
        strike_time_ps=tech.timing.clock_period_ps - tech.glitch_depth_ps,
    )


def reference_voltage_glitch(tech, placement, centre, radius_um, rng):
    hit = placement.within_radius(centre, radius_um)
    arrival = reference_arrival(placement.netlist)
    lo, _hi = tech.timing.latch_window
    gate_pulses: Dict[int, float] = {}
    for nid in hit:
        if not placement.netlist.node(nid).kind.is_combinational:
            continue
        if arrival[nid] * tech.slowdown >= lo:
            gate_pulses[nid] = tech.width_ps
    return TransientInjection(
        gate_pulses=gate_pulses,
        strike_time_ps=float(rng.uniform(0.0, tech.timing.clock_period_ps)),
    )


REFERENCES = {
    RadiationTechnique: reference_radiation,
    ClockGlitchTechnique: reference_clock_glitch,
    VoltageGlitchTechnique: reference_voltage_glitch,
}


def assert_same_injection(actual, expected):
    assert list(actual.gate_pulses) == list(expected.gate_pulses)
    assert actual.gate_pulses == expected.gate_pulses
    assert actual.struck_dffs == expected.struck_dffs
    assert all(type(nid) is int for nid in actual.struck_dffs)
    assert all(type(nid) is int for nid in actual.gate_pulses)
    assert all(type(w) is float for w in actual.gate_pulses.values())
    assert actual.strike_time_ps == expected.strike_time_ps


def assert_matches_reference(tech, placement, centre, radius_um, seed):
    rng = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    reference = REFERENCES[type(tech)]
    for _ in range(2):  # the memo's first use, then a hit
        actual = tech.build_injection(placement, centre, radius_um, rng)
        expected = reference(tech, placement, centre, radius_um, rng_ref)
        assert_same_injection(actual, expected)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def fresh_placement(placement):
    """A copy with an empty footprint memo."""
    return Placement(
        netlist=placement.netlist,
        x=placement.x,
        y=placement.y,
        pitch_um=placement.pitch_um,
    )


def techniques(timing):
    return [
        RadiationTechnique(timing=timing),
        RadiationTechnique(timing=timing, target_filter="comb_only"),
        RadiationTechnique(timing=timing, target_filter="seq_only"),
        ClockGlitchTechnique(timing=timing, glitch_depth_ps=300.0),
        VoltageGlitchTechnique(timing=timing, slowdown=2.0),
    ]


class TestMpuPlacement:
    @pytest.mark.parametrize(
        "index", range(5), ids=["all", "comb_only", "seq_only", "clock", "voltage"]
    )
    def test_every_universe_centre_and_radius(self, small_context, index):
        spec = default_attack_spec(small_context, window=10)
        tech = techniques(small_context.timing)[index]
        placement = fresh_placement(small_context.placement)
        universe = spec.spatial.universe
        radii = spec.radius.radii_um
        for k, centre in enumerate(universe):
            for radius in radii:
                assert_matches_reference(tech, placement, centre, radius, seed=k)
        assert len(placement._footprints) == len(universe) * len(radii)

    def test_footprint_is_within_radius_with_distance_and_kind(self, small_context):
        placement = fresh_placement(small_context.placement)
        netlist = placement.netlist
        centre = default_attack_spec(small_context).spatial.universe[0]
        fp = placement.footprint(centre, 7.0)
        assert placement.footprint(centre, 7.0) is fp
        assert fp.nodes.tolist() == placement.within_radius(centre, 7.0)
        assert fp.distances.tolist() == [
            placement.distance(centre, nid) for nid in fp.nodes.tolist()
        ]
        kinds = [netlist.node(nid).kind for nid in fp.nodes.tolist()]
        assert fp.dff.tolist() == [k is GateKind.DFF for k in kinds]
        assert fp.comb.tolist() == [k.is_combinational for k in kinds]


class TestRandomPlacements:
    @given(
        placed=placed_netlists(),
        # Grid-aligned radii put cells exactly on the rim when unjittered.
        radius=st.sampled_from((0.5, 1.0, 2.0, 3.0, 4.0, 4.5, 9.0)),
        index=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference(self, placed, radius, index, seed):
        netlist, placement = placed
        tech = techniques(TimingModel(clock_period_ps=400.0))[index]
        for centre in range(len(netlist)):  # inputs and constants too
            assert_matches_reference(tech, placement, centre, radius, seed)
