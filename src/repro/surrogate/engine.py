"""Engines that evaluate samples from the calibrated SEU model.

:class:`SurrogateEngine` replaces the gate-level transient simulation —
the dominant per-sample cost of the exact engine — with a draw from the
fitted per-(cone, cycle-class) SEU-pattern distribution, then injects
the drawn pattern straight into the RTL register state via the existing
:class:`~repro.rtl.checkpoint.Checkpoint` machinery and resumes to the
end of the benchmark.  Samples landing in uncovered cells fall back to
the exact engine, so the surrogate never extrapolates.

:class:`TwoStageEngine` is the multi-fidelity screen: the surrogate
classifies every sample and only surrogate-positive hits are confirmed
by the exact engine; the confirmed weight is divided by ``1 - fnr``
(the screen false-negative rate measured on the calibration holdout) to
keep the estimator unbiased.  The correction is baked into the
*persisted* sample weight, so the chunk log replays bit-identically on
resume and the standard estimator consumes the records unchanged.

Both engines implement the scheduler contract —
``evaluate(sampler, n, seed)`` with the SeedSequence-per-sample policy
plus ``run_sample`` for deterministic replay — so campaign, fleet, and
service layers run them unmodified.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from typing import Callable, FrozenSet, Optional, Tuple

import numpy as np

from repro.attack.spec import AttackSample
from repro.core.engine import CrossLevelEngine
from repro.core.results import CampaignResult, OutcomeCategory, SampleRecord
from repro.errors import EvaluationError
from repro.obs.engine_metrics import metrics_from_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.surrogate_metrics import (
    observe_stage,
    set_surrogate_gauges,
)
from repro.obs.tracing import NULL_CLOCK
from repro.rtl.checkpoint import Checkpoint
from repro.sampling.base import Sampler
from repro.sampling.estimator import SsfEstimator
from repro.surrogate.model import SurrogateModel, register_footprints
from repro.utils.rng import SeedLike, as_generator, sample_seed_sequence

#: Stage labels attached to per-sample counters.
STAGE_SCREEN = "screen"      # surrogate draw answered the sample
STAGE_CONFIRM = "confirm"    # exact engine confirmed a surrogate hit
STAGE_FALLBACK = "fallback"  # uncovered cell: exact engine answered


class SurrogateEngine:
    """Single-fidelity surrogate evaluation over a calibrated model."""

    def __init__(
        self,
        exact: CrossLevelEngine,
        model: SurrogateModel,
        observe: bool = True,
    ):
        if getattr(exact.spec.technique, "impact_cycles", 1) != 1:
            raise EvaluationError(
                "the surrogate engine models single-cycle injections; "
                "impact_cycles must be 1"
            )
        self.exact = exact
        self.model = model
        self.observe = observe
        self.context = exact.context
        self.spec = exact.spec
        self.config = exact.config
        self._footprints = register_footprints(exact.context.netlist)
        # Post-injection-cycle RTL snapshots, shared across samples of a
        # cycle (the surrogate's analogue of the exact engine's baseline
        # cache, minus the gate-level golden evaluation).
        self._post_step: "OrderedDict[int, Checkpoint]" = OrderedDict()
        #: Exact-engine run_sample calls made on behalf of this engine —
        #: the denominator of the multi-fidelity speedup claim.
        self.exact_invocations = 0
        #: Stage of the most recent run_sample (calibration introspection).
        self.last_stage = STAGE_SCREEN

    # ------------------------------------------------------------------
    # single-sample flow
    # ------------------------------------------------------------------
    def run_sample(
        self, sample: AttackSample, rng: np.random.Generator, clock=NULL_CLOCK
    ) -> SampleRecord:
        context = self.context
        injection_cycle = context.target_cycle - sample.t
        if injection_cycle < 0 or injection_cycle >= context.n_cycles:
            self.last_stage = STAGE_SCREEN
            return SampleRecord(
                sample=sample,
                e=0,
                category=OutcomeCategory.OUT_OF_RANGE,
                flipped_bits=frozenset(),
                injection_cycle=injection_cycle,
            )
        footprint = self._footprints[sample.centre]
        cell = self.model.cell_for(footprint, injection_cycle)
        if cell is None:
            self.last_stage = STAGE_FALLBACK
            self.exact_invocations += 1
            return self.exact.run_sample(sample, rng, clock=clock)

        self.last_stage = STAGE_SCREEN
        pattern = cell.draw(float(rng.random()), float(rng.random()))
        clock.lap("draw_pattern")
        if not pattern:
            return SampleRecord(
                sample=sample,
                e=0,
                category=OutcomeCategory.MASKED,
                flipped_bits=frozenset(),
                injection_cycle=injection_cycle,
            )
        flipped: FrozenSet[Tuple[str, int]] = frozenset(pattern)
        memory_only = self.exact._all_memory_type(flipped)
        clock.lap("classify")
        category = (
            OutcomeCategory.MEMORY_ONLY
            if memory_only
            else OutcomeCategory.NEEDS_RTL
        )
        if (
            memory_only
            and self.config.analytical_memory_eval
            and self.exact._analytical is not None
        ):
            e = self.exact._analytical.evaluate(flipped, injection_cycle)
            clock.lap("analytical")
            return SampleRecord(
                sample=sample,
                e=e,
                category=category,
                flipped_bits=flipped,
                injection_cycle=injection_cycle,
                n_pulses_latched=len(flipped),
                analytical=True,
            )

        # SEU writeback: restore the shared post-step snapshot, flip the
        # drawn bits in RTL register state, and resume to the end.
        simulator = context.simulator
        post_step = self._post_step_checkpoint(injection_cycle)
        post_step.restore(context.soc)
        simulator.cycle = post_step.cycle
        self.exact._write_back(flipped)
        clock.lap("writeback")
        simulator.run_to(context.n_cycles)
        clock.lap("rtl_resume")
        e = 1 if context.benchmark.attack_succeeded(context.soc) else 0
        clock.lap("compare")
        return SampleRecord(
            sample=sample,
            e=e,
            category=category,
            flipped_bits=flipped,
            injection_cycle=injection_cycle,
            n_pulses_latched=len(flipped),
        )

    def _post_step_checkpoint(self, injection_cycle: int) -> Checkpoint:
        cached = self._post_step.get(injection_cycle)
        if cached is not None:
            self._post_step.move_to_end(injection_cycle)
            return cached
        context = self.context
        simulator = context.simulator
        simulator.restart_from(context.golden, injection_cycle)
        simulator.step()
        snapshot = Checkpoint.capture(context.soc, simulator.cycle)
        self._post_step[injection_cycle] = snapshot
        while len(self._post_step) > self.config.baseline_cache_size:
            self._post_step.popitem(last=False)
        return snapshot

    # ------------------------------------------------------------------
    # campaigns (scheduler contract)
    # ------------------------------------------------------------------
    def evaluate(
        self,
        sampler: Sampler,
        n_samples: int,
        seed: SeedLike = None,
        progress: Optional[Callable[[int, SsfEstimator], None]] = None,
    ) -> CampaignResult:
        return _evaluate_loop(self, sampler, n_samples, seed, progress)


class TwoStageEngine:
    """Multi-fidelity screen-then-confirm evaluation.

    Wraps one surrogate engine (the screen) and its exact engine (the
    confirmer).  Exposes the same contract as both, so the campaign
    scheduler, the fleet, and ``repro replay`` drive it unchanged.
    """

    def __init__(self, surrogate: SurrogateEngine):
        self.surrogate = surrogate
        self.exact = surrogate.exact
        self.context = surrogate.context
        self.spec = surrogate.spec
        self.config = surrogate.config
        self.observe = surrogate.observe
        self.model = surrogate.model
        self.last_stage = STAGE_SCREEN

    @property
    def exact_invocations(self) -> int:
        """Exact-engine samples spent (fallbacks + confirmations)."""
        return self.surrogate.exact_invocations

    def run_sample(
        self, sample: AttackSample, rng: np.random.Generator, clock=NULL_CLOCK
    ) -> SampleRecord:
        screen = self.surrogate.run_sample(sample, rng, clock=clock)
        if self.surrogate.last_stage == STAGE_FALLBACK:
            # Uncovered cell: the answer is already exact; no screening
            # error was possible, so no correction applies.
            self.last_stage = STAGE_FALLBACK
            return screen
        if screen.e == 0:
            self.last_stage = STAGE_SCREEN
            return screen
        # Surrogate-positive: confirm at full fidelity.  The confirmed
        # weight is inflated by 1/(1 - fnr) so the estimator stays
        # unbiased despite the screen dropping a known fraction of true
        # hits; persisting the corrected weight in the record makes
        # resume and replay bit-identical for free.
        self.last_stage = STAGE_CONFIRM
        self.surrogate.exact_invocations += 1
        confirmed = self.exact.run_sample(sample, rng, clock=clock)
        corrected = dataclasses.replace(
            sample, weight=sample.weight / (1.0 - self.model.fnr)
        )
        return dataclasses.replace(confirmed, sample=corrected)

    def evaluate(
        self,
        sampler: Sampler,
        n_samples: int,
        seed: SeedLike = None,
        progress: Optional[Callable[[int, SsfEstimator], None]] = None,
    ) -> CampaignResult:
        return _evaluate_loop(self, sampler, n_samples, seed, progress)


def build_surrogate_engine(
    exact: CrossLevelEngine,
    sampler: Sampler,
    fidelity: str = "single",
    calibration=None,
    seed: int = 11,
    observe: bool = True,
):
    """Load-or-fit a model and wrap ``exact`` per ``fidelity``.

    ``calibration`` names an artifact: an existing file is loaded
    (skipping the fit entirely); a missing path is a request to persist
    the fresh fit there.  ``seed`` roots the calibration seed tree when
    fitting in-process.  This is the single construction path shared by
    ``CampaignSpec.build_runtime`` and the CLI.
    """
    import pathlib

    from repro.surrogate.calibrate import CalibrationConfig, calibrate
    from repro.surrogate.persistence import (
        load_surrogate_model,
        save_surrogate_model,
    )

    model = None
    if calibration and pathlib.Path(calibration).exists():
        model = load_surrogate_model(calibration, exact.context.netlist)
    if model is None:
        model, report = calibrate(
            exact, sampler, CalibrationConfig(seed=seed)
        )
        if calibration:
            target = pathlib.Path(calibration)
            target.parent.mkdir(parents=True, exist_ok=True)
            save_surrogate_model(
                model, exact.context.netlist, target, report=report
            )
    surrogate = SurrogateEngine(exact, model, observe=observe)
    if fidelity == "two_stage":
        return TwoStageEngine(surrogate)
    return surrogate


def _evaluate_loop(
    engine,
    sampler: Sampler,
    n_samples: int,
    seed: SeedLike,
    progress: Optional[Callable[[int, SsfEstimator], None]],
) -> CampaignResult:
    """Shared campaign body for the surrogate-family engines.

    Mirrors the exact engine's ``evaluate`` seed policy: a
    ``SeedSequence`` derives one independent child stream per sample
    (the campaign/fleet path, replayable in isolation); an int /
    ``Generator`` / ``None`` keeps a single shared stream.  The
    estimator consumes ``record.sample`` — not the raw draw — so the
    two-stage weight correction flows through it unchanged.
    """
    if n_samples <= 0:
        raise EvaluationError("n_samples must be positive")
    base = seed if isinstance(seed, np.random.SeedSequence) else None
    rng = None if base is not None else as_generator(seed)
    estimator = SsfEstimator(record_history=True)
    registry = MetricsRegistry() if engine.observe else None
    records = []
    stage_counts = {STAGE_SCREEN: 0, STAGE_CONFIRM: 0, STAGE_FALLBACK: 0}
    n_hits = 0
    start = time.perf_counter()
    for i in range(n_samples):
        if base is not None:
            rng = as_generator(sample_seed_sequence(base, i))
        sample = sampler.sample(rng)
        record = engine.run_sample(sample, rng)
        stage_counts[engine.last_stage] += 1
        n_hits += 1 if record.e else 0
        if registry is not None:
            metrics_from_records((record,), registry)
            observe_stage(registry, engine.last_stage)
        estimator.push(record.sample, record.e)
        records.append(record)
        if progress is not None:
            progress(i, estimator)
    if registry is not None:
        set_surrogate_gauges(registry, n_hits, len(records))
    wall = time.perf_counter() - start
    return CampaignResult(
        strategy=sampler.name,
        records=records,
        estimator=estimator,
        wall_time_s=wall,
        metrics=registry.snapshot() if registry is not None else None,
    )
