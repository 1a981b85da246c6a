"""Declarative hardening-sweep specification and design-space expansion.

A :class:`SweepSpec` describes a *campaign of campaigns*: a shared
``base`` campaign document plus ``axes`` — an ordered mapping from
campaign field to the list of values to sweep.  Expansion takes the
cartesian product of the axes in declaration order and materializes one
:class:`~repro.campaign.spec.CampaignSpec` per point, so an 2×2×2 sweep
over ``variant`` × ``window`` × ``seed`` yields eight campaigns.

Expansion is deterministic and order-stable (same spec → same points in
the same order), and every point carries its content-addressed
``spec_hash`` — semantically duplicate points (e.g. ``"dual+parity"``
and ``"parity+dual"``, which normalize to one variant) collapse to a
single job before anything reaches the service queue.

Only *semantic* campaign fields may be swept: the fields listed in
:data:`~repro.campaign.spec_hash.NON_SEMANTIC_FIELDS` are excluded from
the spec hash, so two points differing only there would dedupe into one
cache entry — an axis that cannot differentiate points is a spec error,
not a silent 1-point sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.campaign.spec import LEGACY_FIELDS, CampaignSpec, StoppingConfig
from repro.campaign.spec_hash import (
    NON_SEMANTIC_FIELDS,
    code_version_salt,
    spec_hash,
)
from repro.errors import ReproError, SweepError

#: Campaign fields a sweep axis may range over (semantic top-level
#: fields; stopping-rule fields are addressed as ``stopping.<field>``).
SWEEPABLE_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(CampaignSpec)
    if f.name not in NON_SEMANTIC_FIELDS and f.name != "stopping"
)

#: Stopping-rule fields, addressed from an axis as ``stopping.<field>``.
STOPPING_FIELDS = tuple(f.name for f in dataclasses.fields(StoppingConfig))

#: Every legal axis name, in a stable order (for error messages).
VALID_AXES = SWEEPABLE_FIELDS + tuple(
    f"stopping.{name}" for name in STOPPING_FIELDS
)

#: Every legal ``base`` key: any campaign field (non-semantic knobs are
#: fine in the base — they configure execution without forking points),
#: plus the retired fields campaign specs still accept and drop.
VALID_BASE_FIELDS = tuple(
    f.name for f in dataclasses.fields(CampaignSpec)
) + LEGACY_FIELDS


@dataclass(frozen=True)
class SweepPoint:
    """One expanded design point: overrides + the campaign they select."""

    index: int                     # position in expansion order
    label: str                     # "variant=none,window=50"
    overrides: Mapping[str, object]
    spec: CampaignSpec
    digest: str                    # content-addressed spec hash


@dataclass(frozen=True)
class SweepPlan:
    """The expansion of one :class:`SweepSpec`.

    ``points`` holds the deduplicated design points in expansion order;
    ``n_raw`` counts cartesian-product combinations before semantic
    dedup, so ``n_raw - len(points)`` combinations collapsed onto an
    earlier point's spec hash.
    """

    points: Tuple[SweepPoint, ...]
    n_raw: int

    @property
    def n_duplicates(self) -> int:
        return self.n_raw - len(self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Full declarative description of one hardening sweep."""

    name: str = "sweep"
    base: Mapping[str, object] = field(default_factory=dict)
    axes: Mapping[str, Tuple[object, ...]] = field(default_factory=dict)
    baseline_report: Optional[str] = None  # pinned report to regress against
    regression_margin: float = 0.0         # CI slack before "regressed"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SweepError("sweep name must be a non-empty string")
        for key in self.base:
            if key not in VALID_BASE_FIELDS:
                raise SweepError(
                    f"unknown campaign field {key!r} in sweep base: "
                    f"valid fields are {', '.join(VALID_BASE_FIELDS)}"
                )
        if not self.axes:
            raise SweepError("sweep needs at least one axis")
        for name, values in self.axes.items():
            if name in NON_SEMANTIC_FIELDS:
                raise SweepError(
                    f"axis {name!r} cannot differentiate sweep points: it "
                    f"is excluded from the spec hash (non-semantic), so "
                    f"every value would dedupe onto one cached campaign; "
                    f"set it in the sweep base instead"
                )
            if name not in VALID_AXES:
                raise SweepError(
                    f"unknown sweep axis {name!r}: valid axes are "
                    f"{', '.join(VALID_AXES)}"
                )
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise SweepError(
                    f"axis {name!r} needs a non-empty list of values"
                )
        if self.regression_margin < 0:
            raise SweepError("regression_margin must be >= 0")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": dict(self.base),
            "axes": {name: list(vals) for name, vals in self.axes.items()},
            "baseline_report": self.baseline_report,
            "regression_margin": self.regression_margin,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        if not isinstance(data, Mapping):
            raise SweepError("sweep spec must be a JSON object")
        known = {"name", "base", "axes", "baseline_report",
                 "regression_margin"}
        for key in data:
            if key not in known:
                raise SweepError(
                    f"unknown sweep field {key!r}: valid fields are "
                    f"{', '.join(sorted(known))}"
                )
        axes = data.get("axes", {})
        if not isinstance(axes, Mapping):
            raise SweepError("sweep axes must be an object of lists")
        return cls(
            name=data.get("name", "sweep"),
            base=dict(data.get("base", {})),
            axes={name: tuple(vals) if isinstance(vals, (list, tuple))
                  else vals for name, vals in axes.items()},
            baseline_report=data.get("baseline_report"),
            regression_margin=float(data.get("regression_margin", 0.0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def expand(self) -> SweepPlan:
        """Materialize the design space (deterministic, order-stable).

        Axes iterate in declaration order, the last axis fastest — the
        cartesian product order of :func:`itertools.product`.  Points
        whose campaign hashes onto an already-expanded point are
        dropped (first occurrence wins).
        """
        names = list(self.axes)
        points: List[SweepPoint] = []
        seen: Dict[str, int] = {}
        n_raw = 0
        for combo in itertools.product(
            *(self.axes[name] for name in names)
        ):
            overrides = dict(zip(names, combo))
            label = ",".join(
                f"{name}={value}" for name, value in overrides.items()
            )
            spec = self._point_spec(label, overrides)
            digest = spec_hash(spec)
            n_raw += 1
            if digest in seen:
                continue
            seen[digest] = len(points)
            points.append(
                SweepPoint(
                    index=len(points),
                    label=label,
                    overrides=overrides,
                    spec=spec,
                    digest=digest,
                )
            )
        return SweepPlan(points=tuple(points), n_raw=n_raw)

    def _point_spec(
        self, label: str, overrides: Mapping[str, object]
    ) -> CampaignSpec:
        data = dict(self.base)
        stopping = dict(data.get("stopping", {}))
        for name, value in overrides.items():
            if name.startswith("stopping."):
                stopping[name.split(".", 1)[1]] = value
            else:
                data[name] = value
        if stopping:
            data["stopping"] = stopping
        try:
            return CampaignSpec.from_dict(data)
        except (ReproError, TypeError, ValueError) as exc:
            # EvaluationError from campaign validation, TypeError from an
            # unknown stopping field — either way, name the point.
            raise SweepError(
                f"sweep point ({label}) is not a valid campaign: {exc}"
            ) from exc

    def sweep_hash(self) -> str:
        """Content address of the *expanded* design space.

        Hashes the sorted set of member spec hashes (salted with the
        code version), so two sweeps whose axes spell out the same set
        of campaigns — in any axis order — share an identity, and a
        code upgrade that invalidates campaign hashes invalidates sweep
        hashes with it.
        """
        plan = self.expand()
        payload = code_version_salt() + "\n" + json.dumps(
            sorted(point.digest for point in plan.points)
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_sweep_spec(path: Union[str, pathlib.Path]) -> SweepSpec:
    """Read a :class:`SweepSpec` from a JSON file.

    Missing or corrupt files raise :class:`SweepError` naming the path,
    mirroring :func:`repro.campaign.spec.load_spec`.
    """
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SweepError(f"cannot load sweep spec {path}: {exc}") from exc
    return SweepSpec.from_dict(data)
