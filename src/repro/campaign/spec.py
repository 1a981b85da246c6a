"""Declarative campaign specification.

A :class:`CampaignSpec` captures *everything* needed to (re)run an SSF
campaign — benchmark, countermeasure variant, sampling strategy, attack
window, seed policy, sharding granularity, and stopping rule — as plain
data, serializable to JSON.  The durable run store persists the spec next
to the sample log, so ``campaign resume`` can rebuild the exact runtime
(engine + sampler) of an interrupted run on a fresh process.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.errors import EvaluationError

#: Stopping modes understood by :func:`repro.campaign.stopping.build_stopping_rule`.
STOPPING_MODES = ("fixed", "risk", "ci")

#: Retired spec fields that :meth:`CampaignSpec.from_dict` still accepts
#: and drops, so run directories, job stores and sweep documents written
#: before their removal keep loading.  ``batch`` selected the batched or
#: the scalar engine loop, which gave bit-identical records; one loop is
#: left.  ``engine``, ``fidelity`` and ``calibration`` selected and fed
#: the SEU surrogate, which is gone: ``engine`` and ``fidelity`` load only
#: at their exact-engine values (:data:`RETIRED_VALUES`), and any
#: ``calibration`` path is dropped, since the exact engine never read it.
LEGACY_FIELDS = ("batch", "engine", "fidelity", "calibration")

#: The one value each retired backend selector may still carry.
RETIRED_VALUES = {"engine": "exact", "fidelity": "single"}


@dataclass(frozen=True)
class StoppingConfig:
    """Serializable description of a stopping rule.

    ``mode`` selects the rule: ``fixed`` (run exactly ``n_samples``),
    ``risk`` (Chebyshev (ε, δ) target), or ``ci`` (Wilson CI width target).
    ``max_samples`` is a hard cap for the adaptive modes.
    """

    mode: str = "fixed"
    n_samples: int = 1000            # fixed mode budget
    epsilon: float = 0.02            # risk mode: absolute error target
    delta: float = 0.05              # risk mode: failure probability
    ci_width: float = 0.05           # ci mode: Wilson interval width
    z: float = 1.96                  # ci mode: normal quantile
    min_samples: int = 200           # adaptive modes: variance warm-up
    max_samples: int = 100_000       # adaptive modes: hard cap

    def __post_init__(self) -> None:
        if self.mode not in STOPPING_MODES:
            raise EvaluationError(
                f"stopping mode must be one of {STOPPING_MODES}, "
                f"got {self.mode!r}"
            )
        if self.mode == "fixed" and self.n_samples <= 0:
            raise EvaluationError("n_samples must be positive")
        if self.max_samples <= 0:
            raise EvaluationError("max_samples must be positive")

    @property
    def sample_cap(self) -> int:
        """Upper bound on samples any campaign under this config consumes."""
        return self.n_samples if self.mode == "fixed" else self.max_samples

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "StoppingConfig":
        return cls(**data)


@dataclass(frozen=True)
class CampaignSpec:
    """Full declarative description of one SSF campaign."""

    benchmark: str = "write"          # key into the benchmark registry
    variant: str = "none"             # MPU countermeasure variant string
    sampler: str = "importance"       # random | cone | importance
    window: int = 50                  # temporal attack window (cycles)
    subblock_fraction: float = 0.125  # spatial range (fraction of the MPU)
    impact_cycles: int = 1            # consecutive disturbed cycles
    seed: int = 2024                  # root seed of the per-chunk seed tree
    chunk_size: int = 50              # samples per work-stealing chunk
    charac_cache: Optional[str] = None  # pre-characterization JSON to reuse
    trace: bool = False               # record spans → runs/<id>/trace.json
    telemetry: bool = True            # fleet workers ship spans/metrics/logs
    baseline_store: Optional[str] = None  # ArtifactStore root for cycle baselines
    stopping: StoppingConfig = field(default_factory=StoppingConfig)

    def __post_init__(self) -> None:
        from repro.sampling import SAMPLERS
        from repro.soc.mpu import MpuVariant
        from repro.soc.programs import BENCHMARKS

        # Checked where a spec enters (CLI flags, a service request, a
        # sweep point), so a value the runtime would reject, or would
        # clamp while hashing it apart, is refused before it reaches a
        # queue.
        if self.benchmark not in BENCHMARKS:
            raise EvaluationError(f"unknown benchmark {self.benchmark!r}")
        if not isinstance(self.variant, str):
            raise EvaluationError(
                f"variant must be a name, got {self.variant!r}"
            )
        MpuVariant.parse(self.variant)
        if self.sampler not in SAMPLERS:
            raise EvaluationError(f"unknown sampler {self.sampler!r}")
        if self.window < 1:
            raise EvaluationError("window must be at least 1 cycle")
        if self.impact_cycles < 1:
            raise EvaluationError("impact_cycles must be at least 1")
        if not 0 < self.subblock_fraction <= 1:
            raise EvaluationError("subblock_fraction must be in (0, 1]")
        if self.chunk_size <= 0:
            raise EvaluationError("chunk_size must be positive")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["stopping"] = self.stopping.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        data = dict(data)
        for key, value in RETIRED_VALUES.items():
            if data.get(key, value) != value:
                raise EvaluationError(
                    f"{key} {data[key]!r} is not supported: the SEU "
                    f"surrogate engine was removed and only the exact "
                    f"engine is left (drop the {key!r} field)"
                )
        for key in LEGACY_FIELDS:
            data.pop(key, None)
        stopping = data.pop("stopping", {})
        return cls(stopping=StoppingConfig.from_dict(stopping), **data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # chunk plan (the unit of work stealing and of durable logging)
    # ------------------------------------------------------------------
    def chunk_sizes(self) -> Tuple[int, ...]:
        """Sample count per chunk index, covering the sample cap exactly.

        The plan is a pure function of the spec, so an interrupted run and
        its resume agree on every chunk's size and seed.
        """
        total = self.stopping.sample_cap
        full, rest = divmod(total, self.chunk_size)
        sizes = [self.chunk_size] * full
        if rest:
            sizes.append(rest)
        return tuple(sizes)

    # ------------------------------------------------------------------
    # runtime construction
    # ------------------------------------------------------------------
    def build_context(self):
        """The evaluation context of this spec's benchmark and variant.

        With ``charac_cache`` unset the pre-characterization runs in
        process; otherwise it is loaded from that file (written by
        ``repro characterize`` or the artifact store).  A path that does
        not exist raises :class:`EvaluationError` naming it, before any
        build work: a mistyped path must not turn into a silent
        re-characterization.

        Imports here and in :meth:`build_runtime` are local: the spec
        itself stays cheap to import for tooling that only inspects run
        metadata.
        """
        from repro.core.context import build_context
        from repro.soc.mpu import MpuVariant
        from repro.soc.programs import BENCHMARKS

        benchmark = BENCHMARKS[self.benchmark]()
        variant = MpuVariant.parse(self.variant)
        if not self.charac_cache:
            return build_context(benchmark, mpu_variant=variant)
        path = pathlib.Path(self.charac_cache)
        if not path.exists():
            raise EvaluationError(
                f"pre-characterization cache {str(path)!r} does not exist "
                f"(write it with `repro characterize --out {path}`)"
            )
        from repro.precharac.persistence import load_characterization

        context = build_context(
            benchmark, characterize=False, mpu_variant=variant
        )
        context.characterization = load_characterization(path, context.netlist)
        return context

    def build_runtime(self):
        """Build the (engine, sampler) pair this spec describes.

        This is the one place a spec's names and artifact paths become a
        runtime: the CLI verbs, the service, fleet workers and replay
        build through it (``repro characterize`` through
        :meth:`build_context` alone).
        """
        from repro import default_attack_spec
        from repro.core.engine import CrossLevelEngine
        from repro.sampling import make_sampler

        context = self.build_context()
        attack = default_attack_spec(
            context,
            window=self.window,
            subblock_fraction=self.subblock_fraction,
        )
        attack.technique.impact_cycles = self.impact_cycles
        engine = CrossLevelEngine(
            context,
            attack,
            baseline_store=self._build_baseline_store(context),
        )
        return engine, make_sampler(self.sampler, attack, context)

    def _build_baseline_store(self, context):
        """The persistent cycle-baseline store, or None when unset.

        ``baseline_store`` names an :class:`~repro.service.artifacts.
        ArtifactStore` root (the service injects its own ``runs/
        artifacts`` directory; the CLI exposes ``--baseline-store``).
        The store key binds the netlist fingerprint and
        precharacterization version, so campaigns against a changed
        design recompute instead of loading stale golden state.
        """
        if not self.baseline_store:
            return None
        from repro.service.artifacts import ArtifactStore, baseline_store_for

        return baseline_store_for(
            ArtifactStore(self.baseline_store),
            benchmark=self.benchmark,
            variant=self.variant,
            netlist=context.netlist,
        )


def load_spec(path: Union[str, pathlib.Path]) -> CampaignSpec:
    """Read a :class:`CampaignSpec` from a JSON file.

    A missing, corrupt or invalid file (one selecting the removed
    surrogate engine, say) raises :class:`EvaluationError` naming the
    path, so CLI and service callers surface an actionable message
    instead of a raw traceback.
    """
    path = pathlib.Path(path)
    try:
        return CampaignSpec.from_json(path.read_text())
    except (OSError, json.JSONDecodeError, TypeError, EvaluationError) as exc:
        raise EvaluationError(
            f"cannot load campaign spec {path}: {exc}"
        ) from exc
