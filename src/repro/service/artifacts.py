"""Content-addressed cache for derived precomputation artifacts.

Campaigns pay a startup cost for work that is a pure function of the
*(design, workload)* pair, independent of the campaign's sampling
parameters: the pre-characterization (switching signatures, lifetimes,
cones) and the golden per-cycle baselines.  The spec hash deliberately
excludes the artifact *paths* (``charac_cache`` / ``baseline_store``),
so two campaigns differing only in seed or stopping rule are distinct
cache entries for the result cache but share this precomputation.

:class:`ArtifactStore` addresses artifacts by a SHA-256 over the
artifact kind plus its canonical key fields, salted with
:func:`~repro.campaign.spec_hash.code_version_salt` (the package version
and the spec-hash schema), so a release that bumps either starts a fresh
store.  Within one version an artifact is re-keyed only by its own key
fields: the cycle baselines key on the netlist fingerprint and the
precharacterization and baseline format versions.  Writes go through
:mod:`repro.utils.durable` (a unique temporary moved into place), so a
crashed builder never leaves a truncated artifact to poison later runs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Callable, Tuple, Union

from repro.utils.durable import atomic_path, atomic_write

#: Pre-characterization JSON (``repro.precharac.persistence``).
KIND_PRECHARAC = "precharac"
#: Per-cycle golden baseline JSON (``CycleBaselineStore``).
KIND_BASELINE = "baseline"

#: Payload schema of one persisted cycle baseline.  It is part of the
#: address (the code-version salt moves only with the package version),
#: so bump it whenever the payload changes: a file in another schema is
#: then never found, rather than found and rejected on every load.
BASELINE_FORMAT_VERSION = 2

#: ``builder(path)`` materializes the artifact at ``path``.
ArtifactBuilder = Callable[[pathlib.Path], None]


class ArtifactStore:
    """Content-addressed artifact directory (``<root>/<kind>/<key>.json``)."""

    def __init__(self, root: Union[str, pathlib.Path]):
        self.root = pathlib.Path(root)

    def key(self, kind: str, **fields) -> str:
        """Hex digest addressing one artifact."""
        from repro.campaign.spec_hash import code_version_salt

        payload = "\n".join(
            (
                code_version_salt(),
                kind,
                json.dumps(fields, sort_keys=True, separators=(",", ":")),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, kind: str, **fields) -> pathlib.Path:
        return self.root / kind / f"{self.key(kind, **fields)}.json"

    def ensure(
        self, kind: str, builder: ArtifactBuilder, **fields
    ) -> Tuple[pathlib.Path, bool]:
        """Return ``(path, cache_hit)``, building the artifact on a miss.

        The builder writes to a temporary path of its own that is
        atomically moved into place, so concurrent builders race benignly
        (last move wins with identical content) and crashes leave no
        partial file.
        """
        path = self.path_for(kind, **fields)
        if path.exists():
            return path, True
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_path(path) as tmp:
            builder(tmp)
        return path, False


def ensure_precharac(
    store: ArtifactStore,
    benchmark: str,
    variant: str,
    builder: ArtifactBuilder = None,
) -> Tuple[pathlib.Path, bool]:
    """Cached pre-characterization for ``(benchmark, variant)``.

    The default builder runs the full characterization campaign once
    and persists it; tests inject a counting stub via ``builder``.
    """
    from repro.soc.mpu import MpuVariant

    name = MpuVariant.parse(variant).name
    if builder is None:

        def builder(path: pathlib.Path) -> None:
            from repro.campaign.spec import CampaignSpec
            from repro.precharac.persistence import save_characterization

            context = CampaignSpec(
                benchmark=benchmark, variant=variant
            ).build_context()
            save_characterization(context.characterization, path)

    return store.ensure(
        KIND_PRECHARAC, builder, benchmark=benchmark, variant=name
    )


def resolve_artifacts(spec, store: ArtifactStore):
    """``spec`` with its unset artifact paths taken from ``store``.

    The service and fleet workers both build through this: the
    pre-characterization of the spec's (benchmark, variant) is computed
    once per store (:func:`ensure_precharac`) and loaded by every later
    build, and cycle baselines persist in the same store.  Both paths
    are non-semantic, so the spec hash — and with it result caching,
    dedup and resume identity — is unchanged.
    """
    import dataclasses

    charac_cache, baseline_store = spec.charac_cache, spec.baseline_store
    if charac_cache is None:
        path, _ = ensure_precharac(store, spec.benchmark, spec.variant)
        charac_cache = str(path)
    if baseline_store is None:
        baseline_store = str(store.root)
    return dataclasses.replace(
        spec, charac_cache=charac_cache, baseline_store=baseline_store
    )


def netlist_fingerprint(netlist) -> dict:
    """Cheap structural identity of a netlist for artifact validation.

    Node count plus the register manifest.  Any countermeasure /
    elaboration change shifts at least one of them, and with it every
    baseline key.
    """
    return {
        "n_nodes": len(netlist),
        "registers": dict(netlist.register_widths()),
    }


class CycleBaselineStore:
    """Persistent per-cycle golden baselines for one (design, workload).

    The second cache tier behind :class:`~repro.core.engine.
    CrossLevelEngine`'s in-memory cache: each entry is one cycle's
    gate-level :class:`~repro.gatesim.transient.CycleBaseline` (its node
    values and fault-free next state), addressed content-wise by
    (benchmark, variant, netlist fingerprint, precharacterization
    version, format version, cycle) under the service's
    :class:`ArtifactStore` (which salts every key with the code
    version).  A campaign on a design whose netlist changed in any way
    therefore *misses* — never loads stale golden state — and the
    payload additionally embeds the fingerprint so a tampered or
    hand-moved artifact is rejected on load rather than trusted.

    Everything persisted is integers (int8 node values, register
    words), so a JSON round-trip is exact and a loaded baseline is
    bit-identical to a recomputed one.
    """

    def __init__(
        self,
        store: ArtifactStore,
        benchmark: str,
        variant: str,
        fingerprint: dict,
        precharac_version: int,
    ):
        self.store = store
        self.benchmark = benchmark
        self.variant = variant
        self.fingerprint = fingerprint
        self.precharac_version = precharac_version
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.writes = 0

    def _path(self, cycle: int) -> pathlib.Path:
        return self.store.path_for(
            KIND_BASELINE,
            benchmark=self.benchmark,
            variant=self.variant,
            fingerprint=self.fingerprint,
            precharac_version=self.precharac_version,
            format_version=BASELINE_FORMAT_VERSION,
            cycle=cycle,
        )

    def load(self, cycle: int):
        """Return the cycle's ``CycleBaseline``, or None (a miss).

        The engine calls this on a cache miss, so every call is demand.
        An artifact whose embedded fingerprint, precharacterization
        version or format version disagrees with this store's is
        rejected (counted, and a miss), so a stale baseline can only
        ever cost a recompute, never a wrong SSF.  The pin mask is not
        persisted: the gate level derives it on first use.
        """
        import numpy as np

        from repro.gatesim.transient import CycleBaseline

        try:
            payload = json.loads(self._path(cycle).read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            payload.get("version") != BASELINE_FORMAT_VERSION
            or payload.get("fingerprint") != self.fingerprint
            or payload.get("precharac_version") != self.precharac_version
        ):
            self.rejected += 1
            self.misses += 1
            return None
        baseline = CycleBaseline(
            values=np.asarray(payload["values"], dtype=np.int8),
            golden_next=dict(payload["golden_next"]),
        )
        self.hits += 1
        return baseline

    def save(self, cycle: int, baseline) -> None:
        """Write one cycle's baseline through to disk (atomic, idempotent)."""
        path = self._path(cycle)
        if path.exists():
            return
        payload = {
            "version": BASELINE_FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "precharac_version": self.precharac_version,
            "cycle": cycle,
            "values": [int(v) for v in baseline.values],
            "golden_next": dict(baseline.golden_next),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, json.dumps(payload))
        self.writes += 1


def baseline_store_for(
    store: ArtifactStore, benchmark: str, variant: str, netlist
) -> CycleBaselineStore:
    """A baseline store scoped to one (benchmark, variant, netlist)."""
    from repro.precharac.persistence import FORMAT_VERSION
    from repro.soc.mpu import MpuVariant

    return CycleBaselineStore(
        store,
        benchmark=benchmark,
        variant=MpuVariant.parse(variant).name,
        fingerprint=netlist_fingerprint(netlist),
        precharac_version=FORMAT_VERSION,
    )
