"""Unit tests for SweepSpec validation, expansion, and serialization."""

import json

import pytest

from repro.errors import SweepError
from repro.sweep import (
    SweepSpec,
    VALID_AXES,
    load_sweep_spec,
)

BASE = {
    "benchmark": "write",
    "sampler": "random",
    "chunk_size": 20,
    "stopping": {"mode": "fixed", "n_samples": 40},
}


#: Every campaign field spelled out, as perfbench's ``base_fields`` does
#: (it also carries the retired fields).
FULL_BASE = {
    "benchmark": "write",
    "variant": "none",
    "sampler": "importance",
    "window": 50,
    "subblock_fraction": 0.125,
    "impact_cycles": 1,
    "seed": 7,
    "chunk_size": 20,
    "charac_cache": None,
    "trace": False,
    "telemetry": True,
    "baseline_store": None,
    "stopping": {"mode": "fixed", "n_samples": 40},
}


def make_spec(**kwargs):
    kwargs.setdefault("base", dict(BASE))
    kwargs.setdefault("axes", {"variant": ("none", "parity")})
    return SweepSpec(**kwargs)


class TestValidation:
    def test_unknown_axis_names_the_valid_ones(self):
        with pytest.raises(SweepError) as excinfo:
            make_spec(axes={"windw": (1, 2)})
        message = str(excinfo.value)
        assert "unknown sweep axis 'windw'" in message
        for name in ("variant", "window", "stopping.n_samples"):
            assert name in message

    def test_non_semantic_axis_is_rejected(self):
        # trace/telemetry/... are excluded from the spec hash, so an axis
        # over them would collapse to one cached point.
        with pytest.raises(SweepError, match="excluded from the spec hash"):
            make_spec(axes={"trace": (True, False)})

    def test_empty_axis_is_rejected(self):
        with pytest.raises(SweepError, match="non-empty list"):
            make_spec(axes={"window": ()})

    def test_no_axes_is_rejected(self):
        with pytest.raises(SweepError, match="at least one axis"):
            make_spec(axes={})

    def test_unknown_base_field_names_the_valid_ones(self):
        with pytest.raises(SweepError) as excinfo:
            make_spec(base={"benchmrk": "write"})
        message = str(excinfo.value)
        assert "unknown campaign field 'benchmrk'" in message
        assert "benchmark" in message

    def test_unknown_document_field_is_rejected(self):
        with pytest.raises(SweepError, match="unknown sweep field 'axis'"):
            SweepSpec.from_dict(
                {"axes": {"window": [1]}, "axis": {"window": [1]}}
            )

    def test_invalid_point_error_names_the_point(self):
        spec = make_spec(axes={"sampler": ("random", "bogus")})
        with pytest.raises(
            SweepError, match=r"sweep point \(sampler=bogus\)"
        ):
            spec.expand()

    def test_negative_regression_margin_rejected(self):
        with pytest.raises(SweepError, match="regression_margin"):
            make_spec(regression_margin=-0.1)

    def test_non_semantic_fields_allowed_in_base(self):
        # They configure execution without forking points.
        spec = make_spec(base={**BASE, "batch": False, "trace": True})
        assert spec.expand().points

    @pytest.mark.parametrize(
        "base,retired",
        [
            (BASE, {"batch": True}),
            (
                FULL_BASE,
                {
                    "engine": "exact",
                    "fidelity": "single",
                    "calibration": None,
                    "batch": True,
                },
            ),
        ],
        ids=["batch", "full-base"],
    )
    def test_legacy_keys_in_base_are_dropped(self, base, retired):
        """Sweep documents written while campaigns had these fields
        still expand, onto the same points and spec hashes."""
        axes = {"impact_cycles": (2, 3), "seed": (7, 8)}
        legacy = make_spec(base={**base, **retired}, axes=axes).expand()
        current = make_spec(base=base, axes=axes).expand()
        assert len(current.points) == 4
        assert [p.digest for p in legacy.points] == [
            p.digest for p in current.points
        ]
        assert [p.spec for p in legacy.points] == [
            p.spec for p in current.points
        ]

    def test_surrogate_engine_in_base_names_the_point(self):
        spec = make_spec(base={**BASE, "engine": "surrogate"})
        with pytest.raises(SweepError, match=r"sweep point .*surrogate"):
            spec.expand()


class TestExpansion:
    def test_cartesian_order_last_axis_fastest(self):
        spec = make_spec(
            axes={"variant": ("none", "parity"), "window": (10, 20)}
        )
        labels = [point.label for point in spec.expand().points]
        assert labels == [
            "variant=none,window=10",
            "variant=none,window=20",
            "variant=parity,window=10",
            "variant=parity,window=20",
        ]

    def test_overrides_reach_the_campaign_spec(self):
        spec = make_spec(
            axes={"window": (17,), "stopping.n_samples": (60,)}
        )
        (point,) = spec.expand().points
        assert point.spec.window == 17
        assert point.spec.stopping.n_samples == 60
        assert point.spec.stopping.mode == "fixed"  # base preserved
        assert point.spec.chunk_size == 20

    def test_indexes_are_contiguous(self):
        spec = make_spec(axes={"seed": (1, 2, 3)})
        assert [p.index for p in spec.expand().points] == [0, 1, 2]

    def test_variant_aliases_collapse_to_one_point(self):
        # "dual+parity" and "parity+dual" normalize to one variant, so
        # they share a spec hash and expansion keeps the first.
        spec = make_spec(axes={"variant": ("dual+parity", "parity+dual")})
        plan = spec.expand()
        assert len(plan.points) == 1
        assert plan.n_raw == 2
        assert plan.n_duplicates == 1
        assert plan.points[0].label == "variant=dual+parity"

    def test_valid_axes_cover_stopping_fields(self):
        assert "stopping.n_samples" in VALID_AXES
        assert "stopping.epsilon" in VALID_AXES


class TestSweepHash:
    def test_axis_declaration_order_does_not_matter(self):
        a = make_spec(
            axes={"variant": ("none", "parity"), "window": (10, 20)}
        )
        b = make_spec(
            axes={"window": (10, 20), "variant": ("none", "parity")}
        )
        assert a.sweep_hash() == b.sweep_hash()

    def test_different_values_change_the_hash(self):
        a = make_spec(axes={"window": (10, 20)})
        b = make_spec(axes={"window": (10, 30)})
        assert a.sweep_hash() != b.sweep_hash()


class TestSerialization:
    def test_file_round_trip(self, tmp_path):
        spec = make_spec(
            axes={"variant": ("none", "parity"), "seed": (1, 2)},
            baseline_report="base.json",
            regression_margin=0.01,
        )
        path = tmp_path / "sweep.json"
        path.write_text(spec.to_json())
        loaded = load_sweep_spec(path)
        assert loaded.to_dict() == spec.to_dict()
        assert loaded.sweep_hash() == spec.sweep_hash()

    def test_missing_file_raises_sweep_error(self, tmp_path):
        with pytest.raises(SweepError, match="cannot load sweep spec"):
            load_sweep_spec(tmp_path / "nope.json")

    def test_corrupt_file_raises_sweep_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SweepError, match="cannot load sweep spec"):
            load_sweep_spec(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(SweepError, match="JSON object"):
            load_sweep_spec(path)
