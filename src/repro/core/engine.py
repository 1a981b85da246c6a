"""The cross-level Monte Carlo engine (Fig. 5 of the paper).

Per sample:

1. draw ``(t, p)`` from the active sampling strategy (with its importance
   weight);
2. restart the RTL simulation from the nearest golden checkpoint and run to
   the injection cycle ``Te = Tt - t``;
3. switch to gate level for the injection cycle: generate the technique's
   voltage transients / direct flops upsets, propagate, and collect the
   register bits latched wrong;
4. if nothing latched — masked, done.  If only memory-type registers are
   hit — analytical evaluation.  Otherwise write the bit errors back into
   the RTL state and resume simulation to the end of the benchmark;
5. the success indicator compares the final state against the golden
   outcome (malicious operation committed *and* undetected).

One kernel runs this flow: :meth:`CrossLevelEngine.run_batch`.  Samples
sharing an injection cycle share that cycle's RTL restart and golden
gate-level baseline; a sample whose flips latch continues on its own
faulty trajectory.  ``evaluate`` draws every sample and injection up front
and makes one ``run_batch`` call; ``run_sample`` is a batch of one.

Observability: with ``observe=True`` (the default) each ``evaluate`` call
records stage wall times (one lap per stage of the batch), outcome
counters, and the masking funnel into a fresh
:class:`~repro.obs.metrics.MetricsRegistry`, snapshotted onto the returned
:class:`CampaignResult` — the unit the campaign scheduler serializes per
chunk and merges deterministically.  A recording
:class:`~repro.obs.tracing.Tracer` additionally captures one span per
stage lap.  With ``observe=False`` and the default
:data:`~repro.obs.tracing.NULL_TRACER`, the flow runs uninstrumented (no
clocks, no registry) — the baseline the
``benchmarks/test_obs_overhead.py`` guard compares against.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.spec import AttackSample, AttackSpec
from repro.core.analytical import AnalyticalEvaluator
from repro.core.context import EvaluationContext
from repro.core.results import CampaignResult, OutcomeCategory, SampleRecord
from repro.errors import EvaluationError
from repro.gatesim.transient import TransientSimulator
from repro.obs.engine_metrics import (
    metrics_from_records,
    observe_baseline_store,
    observe_batch,
    observe_batch_timing,
    observe_slowest_samples,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_CLOCK, NULL_TRACER, StageClock
from repro.rtl.checkpoint import Checkpoint
from repro.sampling.base import Sampler
from repro.sampling.estimator import SsfEstimator
from repro.utils.rng import SeedLike, as_generator, sample_seed_sequence


@dataclass
class EngineConfig:
    """Engine behaviour knobs."""

    # Use the analytical evaluator when all faulty bits are memory-type.
    analytical_memory_eval: bool = True
    # Max (injection cycle -> baseline/checkpoint) entries kept per engine.
    baseline_cache_size: int = 128
    # Max memoized classification outcomes (see _finish_diverged): the
    # post-divergence verdict is a pure function of (restored cycle,
    # flipped bits), so batches with few distinct flip patterns pay one
    # RTL resume / analytical call per pattern instead of per sample.
    outcome_cache_size: int = 4096


class CrossLevelEngine:
    """Runs fault-attack campaigns against one evaluation context."""

    def __init__(
        self,
        context: EvaluationContext,
        spec: AttackSpec,
        config: Optional[EngineConfig] = None,
        tracer=None,
        observe: bool = True,
        baseline_store=None,
    ):
        self.context = context
        self.spec = spec
        self.config = config or EngineConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.observe = observe
        self.transient_sim = TransientSimulator(context.netlist, context.timing)
        # Per-(injection cycle) baseline cache for the batched kernel: the
        # post-step RTL snapshot, the recorded MPU trace entry, and the
        # shared gate-level CycleBaseline.  LRU-bounded; persists across
        # evaluate calls (one engine lives per scheduler worker, so the
        # cache also spans chunks).
        self._cycle_cache: "OrderedDict[int, tuple]" = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        # Optional persistent tier behind the LRU (duck-typed; see
        # repro.service.artifacts.CycleBaselineStore): consulted on an LRU
        # miss before recomputing, written through on every compute, so
        # repeat campaigns on the same (design, workload) skip golden
        # simulation even across processes.
        self.baseline_store = baseline_store
        self._store_reported = (0, 0, 0, 0)
        # Memoized post-divergence outcomes, keyed on
        # (restored cycle, flipped bits, impact_cycles); LRU-bounded.
        self._outcome_cache: "OrderedDict[tuple, int]" = OrderedDict()
        self._analytical: Optional[AnalyticalEvaluator] = None
        if context.characterization is not None:
            self._analytical = AnalyticalEvaluator(
                context.benchmark,
                context.mpu_trace,
                context.memmap.n_mpu_regions,
                memmap=context.memmap,
                variant=context.mpu_variant,
            )

    # ------------------------------------------------------------------
    # single-sample flow
    # ------------------------------------------------------------------
    def run_sample(
        self, sample: AttackSample, rng: np.random.Generator, clock=NULL_CLOCK
    ) -> SampleRecord:
        """Evaluate one attack sample: a batch of one.

        ``rng`` is consumed as :meth:`evaluate` consumes a sample's
        stream after the draw (one injection per executed impact cycle),
        so a logged sample replays from its seed lineage alone.
        ``clock`` marks stage boundaries (see
        :data:`repro.obs.engine_metrics.STAGES`).
        """
        return self.run_batch([sample], rngs=[rng], clock=clock)[0]

    def _all_memory_type(self, flipped: FrozenSet[Tuple[str, int]]) -> bool:
        characterization = self.context.characterization
        if characterization is None:
            return False
        return all(characterization.is_memory_type(reg, bit) for reg, bit in flipped)

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    @property
    def baseline_cache_stats(self) -> Tuple[int, int]:
        """(hits, misses) of the per-cycle baseline cache so far."""
        return self._cache_hits, self._cache_misses

    def run_batch(
        self,
        samples: Sequence[AttackSample],
        rngs: Optional[Sequence[np.random.Generator]] = None,
        registry: Optional[MetricsRegistry] = None,
        clock=NULL_CLOCK,
        injections: Optional[Sequence[List]] = None,
    ) -> List[SampleRecord]:
        """Evaluate a batch of samples, one record per sample, in order.

        Samples sharing an injection cycle are packed into gate-level
        :meth:`~repro.gatesim.transient.TransientSimulator.
        simulate_cycle_batch` calls over the cached cycle baselines, so
        the RTL restart/step and the golden logic evaluation happen once
        per distinct cycle instead of once per sample.  Multi-cycle
        techniques stay batched while every sample's RTL trajectory is
        still golden — each impact cycle of a group shares that cycle's
        baseline — and a sample whose first flips latch at step ``s``
        diverges to a per-sample continuation over its remaining cycles
        (per-sample writeback makes the state diverge from there, so
        there is nothing left to share).

        ``rngs`` must hold one generator per sample; all of a sample's
        per-cycle injections are drawn from it up front (see
        :meth:`_draw_injections`).  Omitted, every sample gets a fresh
        independent stream.  Alternatively, ``injections`` supplies the
        pre-drawn per-cycle injection list of every sample (empty for
        out-of-range samples) and no RNG is touched.  Records are
        bit-identical to the per-sample flow run on each sample alone
        (the test-only reference in ``tests/core/scalar_reference.py``).
        """
        context = self.context
        impact_cycles = getattr(self.spec.technique, "impact_cycles", 1)
        n = len(samples)
        records: List[Optional[SampleRecord]] = [None] * n
        cycles: List[int] = []
        for i, sample in enumerate(samples):
            injection_cycle = context.target_cycle - sample.t
            cycles.append(injection_cycle)
            if injection_cycle < 0 or injection_cycle >= context.n_cycles:
                records[i] = SampleRecord(
                    sample=sample,
                    e=0,
                    category=OutcomeCategory.OUT_OF_RANGE,
                    flipped_bits=frozenset(),
                    injection_cycle=injection_cycle,
                )
        if injections is None:
            if rngs is None:
                rngs = [as_generator(None) for _ in samples]
            if len(rngs) != n:
                raise EvaluationError("run_batch needs one rng per sample")
            injections = [
                self._draw_injections(sample, rng)
                for sample, rng in zip(samples, rngs)
            ]
        elif len(injections) != n:
            raise EvaluationError("run_batch needs one injection list per sample")

        hits_before, misses_before = self._cache_hits, self._cache_misses
        groups: "OrderedDict[int, List[int]]" = OrderedDict()
        for i in range(n):
            if records[i] is None:
                groups.setdefault(cycles[i], []).append(i)

        batch_sizes: List[int] = []
        # (tail seconds, record) of every diverged sample, when observed.
        tail_seconds: List[Tuple[float, SampleRecord]] = []
        for injection_cycle, indices in groups.items():
            n_exec = min(impact_cycles, context.n_cycles - injection_cycle)
            active = list(indices)
            n_injected = dict.fromkeys(indices, 0)
            n_latched = dict.fromkeys(indices, 0)
            for step in range(n_exec):
                entry, post_step, baseline = self._cycle_state(
                    injection_cycle + step, registry
                )
                clock.lap("restart")
                results = self.transient_sim.simulate_cycle_batch(
                    entry.inputs,
                    entry.state,
                    [injections[i][step] for i in active],
                    baseline=baseline,
                )
                batch_sizes.append(len(active))
                clock.lap("transient")
                still_golden: List[int] = []
                for i, result in zip(active, results):
                    n_injected[i] += result.n_pulses_injected
                    n_latched[i] += result.n_pulses_latched
                    if not result.flipped_bits:
                        still_golden.append(i)
                        continue
                    start = time.perf_counter() if registry is not None else 0.0
                    records[i] = self._finish_diverged(
                        samples[i],
                        cycles[i],
                        frozenset(result.flipped_bits),
                        post_step,
                        injections[i][step + 1 :],
                        n_injected[i],
                        n_latched[i],
                        impact_cycles,
                        clock,
                    )
                    if registry is not None:
                        tail_seconds.append(
                            (time.perf_counter() - start, records[i])
                        )
                active = still_golden
                if not active:
                    break
            for i in active:
                records[i] = SampleRecord(
                    sample=samples[i],
                    e=0,
                    category=OutcomeCategory.MASKED,
                    flipped_bits=frozenset(),
                    injection_cycle=cycles[i],
                    n_pulses_injected=n_injected[i],
                    n_pulses_latched=n_latched[i],
                )
        if registry is not None:
            observe_slowest_samples(registry, tail_seconds)
            observe_batch(
                registry,
                batch_sizes,
                self._cache_hits - hits_before,
                self._cache_misses - misses_before,
            )
            self._report_store_traffic(registry)
        return records  # type: ignore[return-value]

    def _draw_injections(self, sample: AttackSample, rng) -> List:
        """Pre-draw one sample's per-impact-cycle injections, in order.

        The per-sample flow interleaves (RTL step, build_injection,
        simulate) per cycle, but only ``build_injection`` touches the
        RNG, so drawing all of a sample's injections back to back is the
        same stream consumption.  An out-of-range sample draws none.
        """
        context = self.context
        injection_cycle = context.target_cycle - sample.t
        if injection_cycle < 0 or injection_cycle >= context.n_cycles:
            return []
        n_exec = min(
            getattr(self.spec.technique, "impact_cycles", 1),
            context.n_cycles - injection_cycle,
        )
        return [
            self.spec.build_injection(context.placement, sample, rng)
            for _ in range(n_exec)
        ]

    def _cycle_state(
        self, injection_cycle: int, registry: Optional[MetricsRegistry]
    ):
        """The shared per-cycle state: trace entry, snapshot, baseline.

        An LRU miss consults the persistent baseline store (when
        configured) before recomputing: a store hit means the RTL
        restart/step and golden gate evaluation of this cycle were paid
        by an earlier campaign, possibly in another process.  A full
        miss restarts the RTL from the nearest golden checkpoint, steps
        through the injection cycle recording the MPU trace, snapshots
        the post-step state (so faulty samples can resume without
        repeating the restart), evaluates the golden gate-level
        baseline — and writes the result through to the store.
        """
        cached = self._cycle_cache.get(injection_cycle)
        if cached is not None:
            self._cycle_cache.move_to_end(injection_cycle)
            self._cache_hits += 1
            return cached
        self._cache_misses += 1
        if self.baseline_store is not None:
            state = self.baseline_store.load(injection_cycle)
            if state is not None:
                self._insert_cycle_state(injection_cycle, state)
                return state
        context = self.context
        simulator = context.simulator
        soc = context.soc
        simulator.restart_from(context.golden, injection_cycle)
        soc.record_mpu_trace = True
        soc.mpu_trace = []
        simulator.step()
        soc.record_mpu_trace = False
        entry = soc.mpu_trace[-1]
        post_step = Checkpoint.capture(soc, simulator.cycle)
        baseline = self.transient_sim.make_baseline(entry.inputs, entry.state)
        state = (entry, post_step, baseline)
        self._insert_cycle_state(injection_cycle, state)
        if self.baseline_store is not None:
            self.baseline_store.save(injection_cycle, *state)
        return state

    def _insert_cycle_state(self, injection_cycle: int, state: tuple) -> None:
        self._cycle_cache[injection_cycle] = state
        while len(self._cycle_cache) > self.config.baseline_cache_size:
            self._cycle_cache.popitem(last=False)

    @property
    def baseline_store_stats(self) -> Tuple[int, int]:
        """(hits, misses) of the persistent baseline store so far."""
        if self.baseline_store is None:
            return (0, 0)
        return (self.baseline_store.hits, self.baseline_store.misses)

    def _report_store_traffic(self, registry: MetricsRegistry) -> None:
        """Forward baseline-store counter deltas into ``registry``."""
        store = self.baseline_store
        if store is None:
            return
        current = (store.hits, store.misses, store.rejected, store.writes)
        delta = tuple(c - p for c, p in zip(current, self._store_reported))
        self._store_reported = current
        observe_baseline_store(registry, *delta)

    def _write_back(self, flipped: FrozenSet[Tuple[str, int]]) -> None:
        """Inject latched-wrong bits into the live RTL state."""
        masks: Dict[str, int] = {}
        for register, bit in flipped:
            masks[register] = masks.get(register, 0) | (1 << bit)
        self.context.simulator.inject_bit_errors(masks)

    def _finish_diverged(
        self,
        sample: AttackSample,
        injection_cycle: int,
        flipped: FrozenSet[Tuple[str, int]],
        post_step: Checkpoint,
        remaining: List,
        n_injected: int,
        n_latched: int,
        impact_cycles: int,
        clock=NULL_CLOCK,
    ) -> SampleRecord:
        """Per-sample continuation of one batched sample after its first flips.

        ``remaining`` holds the sample's pre-drawn injections for impact
        cycles after the one that flipped.  With none left, the verdict
        is a pure function of (restored cycle, flipped bits) — the RTL
        resume starts from a canonical checkpoint and the analytical
        evaluator is deterministic — so it is memoized across the batch
        (and the engine's lifetime) in ``_outcome_cache``.  With cycles
        left, the sample runs them one by one: per-cycle RTL step, gate
        simulation, and writeback on a now per-sample faulty trajectory
        (including flips cancelling back to a masked outcome via the
        symmetric difference).
        """
        context = self.context
        simulator = context.simulator
        soc = context.soc
        if remaining:
            post_step.restore(soc)
            simulator.cycle = post_step.cycle
            self._write_back(flipped)
            clock.lap("writeback")
            for injection in remaining:
                if simulator.cycle >= context.n_cycles:
                    break
                soc.record_mpu_trace = True
                soc.mpu_trace = []
                simulator.step()
                soc.record_mpu_trace = False
                entry = soc.mpu_trace[-1]
                clock.lap("rtl_step")
                result = self.transient_sim.simulate_cycle(
                    entry.inputs, entry.state, injection
                )
                n_injected += result.n_pulses_injected
                n_latched += result.n_pulses_latched
                clock.lap("transient")
                if result.flipped_bits:
                    self._write_back(frozenset(result.flipped_bits))
                    flipped = flipped ^ frozenset(result.flipped_bits)
                    clock.lap("writeback")
            if not flipped:
                return SampleRecord(
                    sample=sample,
                    e=0,
                    category=OutcomeCategory.MASKED,
                    flipped_bits=flipped,
                    injection_cycle=injection_cycle,
                    n_pulses_injected=n_injected,
                    n_pulses_latched=n_latched,
                )
            memory_only = self._all_memory_type(flipped)
            clock.lap("classify")
            category = (
                OutcomeCategory.MEMORY_ONLY
                if memory_only
                else OutcomeCategory.NEEDS_RTL
            )
            # impact_cycles > 1 here, so the analytical gate is closed
            # (it requires impact_cycles == 1); resume in place.
            simulator.run_to(context.n_cycles)
            clock.lap("rtl_resume")
            e = 1 if context.benchmark.attack_succeeded(soc) else 0
            clock.lap("compare")
            return SampleRecord(
                sample=sample,
                e=e,
                category=category,
                flipped_bits=flipped,
                injection_cycle=injection_cycle,
                n_pulses_injected=n_injected,
                n_pulses_latched=n_latched,
            )

        memory_only = self._all_memory_type(flipped)
        clock.lap("classify")
        category = (
            OutcomeCategory.MEMORY_ONLY if memory_only else OutcomeCategory.NEEDS_RTL
        )
        analytical = (
            memory_only
            and impact_cycles == 1
            and self.config.analytical_memory_eval
            and self._analytical is not None
        )
        key = (post_step.cycle, flipped, impact_cycles)
        e = self._outcome_cache.get(key)
        if e is not None:
            self._outcome_cache.move_to_end(key)
        else:
            if analytical:
                e = self._analytical.evaluate(flipped, injection_cycle)
                clock.lap("analytical")
            else:
                # Resume from the shared post-step snapshot: equivalent to
                # a fresh restart+step (the snapshot is complete).
                post_step.restore(soc)
                simulator.cycle = post_step.cycle
                self._write_back(flipped)
                clock.lap("writeback")
                simulator.run_to(context.n_cycles)
                clock.lap("rtl_resume")
                e = 1 if context.benchmark.attack_succeeded(soc) else 0
                clock.lap("compare")
            self._outcome_cache[key] = e
            while len(self._outcome_cache) > self.config.outcome_cache_size:
                self._outcome_cache.popitem(last=False)
        return SampleRecord(
            sample=sample,
            e=e,
            category=category,
            flipped_bits=flipped,
            injection_cycle=injection_cycle,
            n_pulses_injected=n_injected,
            n_pulses_latched=n_latched,
            analytical=analytical,
        )

    # ------------------------------------------------------------------
    # campaigns
    # ------------------------------------------------------------------
    def evaluate(
        self,
        sampler: Sampler,
        n_samples: int,
        seed: SeedLike = None,
        progress: Optional[Callable[[int, SsfEstimator], None]] = None,
    ) -> CampaignResult:
        """Run a Monte Carlo campaign with the given strategy.

        Draws every sample and its injections, then evaluates them in one
        :meth:`run_batch` call.

        Seed policy: a ``SeedSequence`` seed (the campaign path — the
        scheduler passes each chunk's spawned child) derives one
        *independent* child stream per sample via
        :func:`~repro.utils.rng.sample_seed_sequence`, so the draw and the
        injection of sample ``i`` never share RNG state with sample
        ``i±1`` and any sample is replayable in isolation.  An int /
        ``Generator`` / ``None`` seed keeps the legacy single shared
        stream, consumed in the per-sample order: sample ``i``'s draw,
        then all of sample ``i``'s per-cycle injections, then sample
        ``i+1``'s draw (stable for callers that pin integer seeds).

        The estimator consumes outcomes in sample order (Welford updates
        are order-sensitive in float), calling ``progress(i, estimator)``
        after each.
        """
        if n_samples <= 0:
            raise EvaluationError("n_samples must be positive")
        estimator = SsfEstimator(record_history=True)
        registry = MetricsRegistry() if self.observe else None
        tracer = self.tracer
        observing = registry is not None or tracer.enabled
        start = time.perf_counter()
        clock = StageClock() if observing else NULL_CLOCK
        if isinstance(seed, np.random.SeedSequence):
            rngs = [
                as_generator(sample_seed_sequence(seed, i))
                for i in range(n_samples)
            ]
        else:
            shared = as_generator(seed)
            rngs = [shared] * n_samples
        samples: List[AttackSample] = []
        injections: List[List] = []
        for rng in rngs:
            sample = sampler.sample(rng)
            samples.append(sample)
            injections.append(self._draw_injections(sample, rng))
        clock.lap("draw")
        records = self.run_batch(
            samples, registry=registry, clock=clock, injections=injections
        )
        if registry is not None:
            observe_batch_timing(
                registry, clock.stage_totals(), clock.total_seconds(), n_samples
            )
            metrics_from_records(records, registry)
        if tracer.enabled:
            tracer.add_laps(clock.laps, sample=0)
        for i, record in enumerate(records):
            estimator.push(samples[i], record.e)
            if progress is not None:
                progress(i, estimator)
        wall = time.perf_counter() - start
        return CampaignResult(
            strategy=sampler.name,
            records=records,
            estimator=estimator,
            wall_time_s=wall,
            metrics=registry.snapshot() if registry is not None else None,
        )

    # ------------------------------------------------------------------
    # outcome oracle (necessity analysis for attribution / hardening)
    # ------------------------------------------------------------------
    def outcome_oracle(self):
        """A callable ``(record, flips) -> e`` re-judging a record with an
        altered flip set.

        Memory-type-only flip sets are judged analytically (microseconds);
        anything else falls back to a deterministic RTL probe.  Used by
        :func:`repro.core.hardening.attribute_ssf` to find the bits that
        were *necessary* for each successful attack.
        """
        cache: Dict[Tuple[int, FrozenSet[Tuple[str, int]]], int] = {}

        def oracle(record, flips) -> int:
            flips = frozenset(flips)
            if not flips:
                return 0
            key = (record.injection_cycle, flips)
            if key not in cache:
                if self._analytical is not None and self._all_memory_type(flips):
                    cache[key] = self._analytical.evaluate(
                        flips, record.injection_cycle
                    )
                else:
                    cache[key] = self.probe_register_flips(
                        flips, record.injection_cycle
                    )
            return cache[key]

        return oracle

    # ------------------------------------------------------------------
    # deterministic single-fault probe (used by tests and hardening)
    # ------------------------------------------------------------------
    def probe_register_flips(
        self,
        flips: FrozenSet[Tuple[str, int]],
        injection_cycle: int,
    ) -> int:
        """Ground-truth RTL outcome of flipping exact bits at a cycle.

        Bypasses the gate level entirely: restart, step through the
        injection cycle, apply the flips, resume, and judge.  Used to
        validate the analytical evaluator and to attribute SSF.
        """
        context = self.context
        simulator = context.simulator
        simulator.restart_from(context.golden, injection_cycle)
        simulator.step()
        self._write_back(flips)
        simulator.run_to(context.n_cycles)
        return 1 if context.benchmark.attack_succeeded(context.soc) else 0
