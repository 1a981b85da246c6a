"""Spec-hash stability: the cache key must change iff the semantics do.

The golden hashes pin the canonicalization scheme itself — if one of
these tests fails after an intentional scheme change, bump
``HASH_SCHEMA_VERSION`` (which is the point: every cached result is
invalidated together).
"""

import json

import pytest

from repro.campaign import CampaignSpec, StoppingConfig
from repro.campaign.spec_hash import (
    HASH_SCHEMA_VERSION,
    canonical_spec_dict,
    canonical_spec_json,
    code_version_salt,
    spec_hash,
)

GOLDEN_DEFAULT = (
    "1d9037c1f3adb77540b549547cf8cf624843c0281a189182c257885b3d26c1df"
)
GOLDEN_TMR_CONE_RISK = (
    "ad36b731ef15c3f2edf4e42aea732e2bb2931d1b0c6cb267f82b8c2e3102d62f"
)


def _version():
    import repro

    return repro.__version__


class TestGoldenHashes:
    """Golden values computed for repro 1.0.0, schema v2.

    A version bump intentionally changes every hash (cache-wide
    invalidation); these pins then need recomputing, which the skipif
    makes explicit rather than a silent red suite.
    """

    pytestmark = pytest.mark.skipif(
        "_version() != '1.0.0' or HASH_SCHEMA_VERSION != 2",
        reason="golden hashes pinned for repro 1.0.0 / schema v2",
    )

    def test_default_spec_hash_pinned(self):
        assert spec_hash(CampaignSpec()) == GOLDEN_DEFAULT

    def test_variant_spec_hash_pinned(self):
        spec = CampaignSpec(
            variant="tmr+parity",
            sampler="cone",
            stopping=StoppingConfig(mode="risk", epsilon=0.01),
        )
        assert spec_hash(spec) == GOLDEN_TMR_CONE_RISK

    def test_salt_carries_version_and_schema(self):
        import repro

        salt = code_version_salt()
        assert repro.__version__ in salt
        assert f"v{HASH_SCHEMA_VERSION}" in salt


class TestDefaultVsExplicit:
    def test_explicit_defaults_hash_identically(self):
        assert spec_hash(
            CampaignSpec(benchmark="write", sampler="importance", seed=2024)
        ) == spec_hash(CampaignSpec())

    def test_from_dict_roundtrip_preserves_hash(self):
        spec = CampaignSpec(variant="dual", window=30)
        clone = CampaignSpec.from_dict(json.loads(spec.to_json()))
        assert spec_hash(clone) == spec_hash(spec)

    def test_sparse_dict_equals_full_dict(self):
        # A submission carrying only non-default fields hashes like one
        # spelling out every default.
        sparse = CampaignSpec.from_dict({"window": 30})
        full = CampaignSpec.from_dict(CampaignSpec(window=30).to_dict())
        assert spec_hash(sparse) == spec_hash(full)

    def test_field_order_is_irrelevant(self):
        data = CampaignSpec().to_dict()
        reordered = dict(reversed(list(data.items())))
        assert spec_hash(CampaignSpec.from_dict(reordered)) == spec_hash(
            CampaignSpec.from_dict(data)
        )


class TestVariantNormalization:
    @pytest.mark.parametrize(
        "alias", ["tmr+parity", "TMR+PARITY", "parity+tmr", "Parity+TMR"]
    )
    def test_variant_aliases_hash_identically(self, alias):
        reference = spec_hash(CampaignSpec(variant="tmr+parity"))
        assert spec_hash(CampaignSpec(variant=alias)) == reference

    def test_none_aliases(self):
        assert spec_hash(CampaignSpec(variant="NONE")) == spec_hash(
            CampaignSpec(variant="none")
        )

    def test_different_variants_hash_differently(self):
        hashes = {
            spec_hash(CampaignSpec(variant=v))
            for v in ("none", "parity", "dual", "dual+parity", "tmr")
        }
        assert len(hashes) == 5


class TestSemanticFields:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("benchmark", "read"),
            ("sampler", "random"),
            ("window", 25),
            ("subblock_fraction", 0.25),
            ("impact_cycles", 2),
            ("seed", 1),
            # chunk_size selects the per-chunk seed streams, so it is
            # part of the identity even though it looks operational.
            ("chunk_size", 25),
        ],
    )
    def test_semantic_change_changes_hash(self, field, value):
        assert spec_hash(
            CampaignSpec(**{field: value})
        ) != spec_hash(CampaignSpec())

    def test_stopping_rule_is_semantic(self):
        risk = CampaignSpec(stopping=StoppingConfig(mode="risk"))
        assert spec_hash(risk) != spec_hash(CampaignSpec())

    def test_trace_is_not_semantic(self):
        assert spec_hash(CampaignSpec(trace=True)) == spec_hash(
            CampaignSpec(trace=False)
        )

    def test_charac_cache_is_not_semantic(self):
        assert spec_hash(
            CampaignSpec(charac_cache="/tmp/c.json")
        ) == spec_hash(CampaignSpec())

    def test_batch_is_not_semantic(self):
        """The retired ``batch`` key (batched or scalar engine loop, with
        bit-identical records) is dropped on load, whatever its value."""
        data = CampaignSpec().to_dict()
        assert spec_hash(
            CampaignSpec.from_dict({**data, "batch": False})
        ) == spec_hash(CampaignSpec.from_dict({**data, "batch": True}))

    def test_batch_off_still_matches_the_golden_pin(self):
        # Old run directories, job stores and sweep documents carry
        # ``"batch": false``; they must resolve to their old cache entry.
        data = {**CampaignSpec().to_dict(), "batch": False}
        assert spec_hash(CampaignSpec.from_dict(data)) == GOLDEN_DEFAULT

    def test_retired_surrogate_fields_still_match_the_golden_pin(self):
        # Documents written while the SEU surrogate existed spell out the
        # exact engine's ``engine``/``fidelity`` values and may name a
        # calibration artifact; they must resolve to their old entry.
        data = {
            **CampaignSpec().to_dict(),
            "engine": "exact",
            "fidelity": "single",
            "calibration": "/x/cal.json",
            "batch": True,
        }
        assert spec_hash(CampaignSpec.from_dict(data)) == GOLDEN_DEFAULT

    def test_telemetry_is_not_semantic(self):
        """The retired ``telemetry`` field (fleet shipping, now the
        worker's ``--no-telemetry`` alone) loads at either value and
        never splits the result cache."""
        base = CampaignSpec().to_dict()
        assert spec_hash(
            CampaignSpec.from_dict({**base, "telemetry": False})
        ) == spec_hash(CampaignSpec.from_dict({**base, "telemetry": True}))

    def test_telemetry_off_still_matches_the_golden_pin(self):
        # ``telemetry`` came and went without a schema bump: documents
        # from before, during and after the field must keep resolving.
        data = {**CampaignSpec().to_dict(), "telemetry": False}
        assert spec_hash(CampaignSpec.from_dict(data)) == GOLDEN_DEFAULT

    def test_canonical_dict_drops_non_semantic_fields(self):
        data = canonical_spec_dict(CampaignSpec(trace=True))
        assert "trace" not in data
        assert "charac_cache" not in data
        assert "calibration" not in data
        assert "batch" not in data
        assert "telemetry" not in data
        assert data["engine"] == "exact"
        assert data["fidelity"] == "single"

    def test_canonical_json_is_minified_and_sorted(self):
        text = canonical_spec_json(CampaignSpec())
        assert ": " not in text
        keys = list(json.loads(text))
        assert keys == sorted(keys)
