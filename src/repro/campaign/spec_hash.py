"""Canonical, content-addressed hashing of campaign specs.

Two campaigns with the same hash are guaranteed to produce the same
final estimate (for a fixed code version), so the hash is usable as a
cache key: the evaluation service deduplicates submissions and serves a
finished run's SSF/CI instantly when an identical spec arrives again.

Canonicalization rules (pinned by golden-hash tests):

* every field is serialized explicitly with its effective value, so a
  spec built from defaults hashes identically to one that spells the
  defaults out, and field order never matters (``sort_keys``);
* the MPU ``variant`` string is normalized through
  :meth:`~repro.soc.mpu.MpuVariant.parse` — ``"TMR+PARITY"``,
  ``"tmr+parity"`` and ``"parity+tmr"`` are one variant, and they hash
  as one;
* pure observability/performance knobs that cannot change the estimate
  are *excluded*: ``trace`` (span recording), ``charac_cache`` (a
  memoized pre-characterization is derived deterministically from the
  benchmark + variant, the path only skips recomputation), and
  ``baseline_store`` (a loaded cycle baseline is bit-identical to a
  recomputed one — the store only skips golden re-simulation, and stale
  entries are rejected by fingerprint);
* the retired ``batch``, ``calibration`` and ``telemetry`` fields were
  excluded too, and :meth:`~repro.campaign.spec.CampaignSpec.from_dict`
  drops them on load, so a spec that still carries them hashes as it
  always did;
* the retired backend selectors ``engine`` and ``fidelity`` were part of
  the identity (they swapped the exact engine for the SEU surrogate).
  Only the exact engine is left, so the canonical form writes them as
  the constants ``"exact"`` and ``"single"``: every hash computed while
  they were fields keeps matching, and result caches, job stores and
  sweep hashes need no re-pinning;
* everything else — including ``seed`` and ``chunk_size``, both of which
  select the per-chunk seed streams and therefore the exact sample
  sequence — is part of the identity.

The digest is salted with the package version plus a schema version, so
a code upgrade that could change results invalidates every cached entry
instead of silently serving stale estimates.
"""

from __future__ import annotations

import hashlib
import json

from repro.campaign.spec import RETIRED_VALUES, CampaignSpec

#: Bump when canonicalization rules change (invalidates all cached hashes).
#: v2: ``engine``/``fidelity`` joined the semantic set; ``calibration``
#: joined the excluded set.  Their removal kept v2: the canonical form
#: still carries ``engine``/``fidelity`` at their exact-engine values.
HASH_SCHEMA_VERSION = 2

#: Spec fields that cannot affect the campaign's estimate.
NON_SEMANTIC_FIELDS = (
    "trace",
    "charac_cache",
    "baseline_store",
)


def code_version_salt() -> str:
    """Salt folding the code version into every spec hash."""
    import repro

    return f"repro/{repro.__version__}/spec-hash/v{HASH_SCHEMA_VERSION}"


def canonical_spec_dict(spec: CampaignSpec) -> dict:
    """The semantic content of ``spec`` as a plain dict.

    Fields listed in :data:`NON_SEMANTIC_FIELDS` are dropped and the
    countermeasure variant is normalized, so semantically identical
    specs canonicalize identically.
    """
    from repro.soc.mpu import MpuVariant

    data = spec.to_dict()
    for field in NON_SEMANTIC_FIELDS:
        data.pop(field, None)
    data["variant"] = MpuVariant.parse(data["variant"]).name
    # The retired ``engine``/``fidelity`` selectors stay in the hashed
    # form as constants (the exact engine's values), so no hash written
    # while they were fields moves.
    data.update(RETIRED_VALUES)
    return data


def canonical_spec_json(spec: CampaignSpec) -> str:
    """Minified, key-sorted JSON of the canonical spec dict."""
    return json.dumps(
        canonical_spec_dict(spec), sort_keys=True, separators=(",", ":")
    )


def spec_hash(spec: CampaignSpec) -> str:
    """Hex SHA-256 of the salted canonical spec JSON."""
    payload = code_version_salt() + "\n" + canonical_spec_json(spec)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
