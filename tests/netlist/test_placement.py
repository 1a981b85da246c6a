"""Tests for grid placement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.netlist.placement import GridPlacer
from repro.soc.mpu import build_mpu_netlist

from tests.strategies import placed_netlists


class TestGridPlacer:
    def test_deterministic_given_seed(self, mpu_netlist):
        a = GridPlacer(seed=3, jitter=0.2).place(mpu_netlist)
        b = GridPlacer(seed=3, jitter=0.2).place(mpu_netlist)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_all_cells_placed_distinctly(self, mpu_placement):
        coords = set(zip(mpu_placement.x.round(3), mpu_placement.y.round(3)))
        # jitter < 0.5 pitch keeps grid slots distinct
        assert len(coords) == len(mpu_placement.netlist)

    def test_bounding_box_scales_with_pitch(self, mpu_netlist):
        small = GridPlacer(pitch_um=1.0).place(mpu_netlist)
        large = GridPlacer(pitch_um=4.0).place(mpu_netlist)
        assert large.bounding_box()[2] > small.bounding_box()[2]

    def test_invalid_parameters(self):
        with pytest.raises(NetlistError):
            GridPlacer(pitch_um=0.0)
        with pytest.raises(NetlistError):
            GridPlacer(jitter=0.7)


class TestRadiusQueries:
    def test_within_radius_includes_centre(self, mpu_placement):
        centre = mpu_placement.netlist.register_dff("viol_q", 0).nid
        hit = mpu_placement.within_radius(centre, 0.1)
        assert centre in hit

    def test_within_radius_monotone(self, mpu_placement):
        centre = mpu_placement.netlist.register_dff("viol_q", 0).nid
        small = set(mpu_placement.within_radius(centre, 3.0))
        large = set(mpu_placement.within_radius(centre, 9.0))
        assert small <= large
        assert len(large) > len(small)

    def test_within_radius_excludes_virtual_cells(self, mpu_placement):
        centre = mpu_placement.netlist.register_dff("viol_q", 0).nid
        for nid in mpu_placement.within_radius(centre, 50.0):
            kind = mpu_placement.netlist.node(nid).kind.value
            assert kind not in ("input", "const0", "const1")

    def test_distance_symmetric(self, mpu_placement):
        nl = mpu_placement.netlist
        a = nl.register_dff("viol_q", 0).nid
        b = nl.register_dff("grant_q", 0).nid
        assert mpu_placement.distance(a, b) == pytest.approx(
            mpu_placement.distance(b, a)
        )

    def test_locality_of_adjacent_register_bits(self, mpu_placement):
        """Levelized placement keeps a register bank physically together:
        the multi-bit upsets of the radiation model depend on this."""
        nl = mpu_placement.netlist
        bits = [nl.register_dff("cfg_base0", i).nid for i in range(16)]
        dists = [
            mpu_placement.distance(bits[i], bits[i + 1]) for i in range(15)
        ]
        assert np.median(dists) <= 3 * mpu_placement.pitch_um


class TestReachedFrom:
    @given(
        placed=placed_netlists(),
        radius=st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0, 4.5)),
    )
    def test_inverse_of_within_radius(self, placed, radius):
        """``reached_from`` is ``within_radius`` transposed, exactly."""
        netlist, placement = placed
        hits = {
            h: set(placement.within_radius(h, radius)) for h in range(len(netlist))
        }
        for nid in range(len(netlist)):
            expected = sorted(h for h, hit in hits.items() if nid in hit)
            assert placement.reached_from(nid, radius).tolist() == expected
