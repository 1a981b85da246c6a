"""Test-only scalar reference for the cross-level engine.

The Fig. 5 flow one sample at a time, as the engine ran it before every
campaign went through ``CrossLevelEngine.run_batch``: restart the RTL
from the nearest golden checkpoint, step each impact cycle and simulate
it at gate level (drawing that cycle's injection just before), write
latched errors back, then judge analytically or resume the RTL to the
end.  Nothing is shared across samples — no cycle-baseline cache, no
outcome memo, no pre-drawn injections — so the equivalence matrix, the
conformance harness and the replay tests compare the production kernel
against an independent oracle.

:class:`ScalarReference` wraps an engine (for its context, attack spec,
configuration and simulators) and offers the engine contract
(``run_sample``, ``evaluate``), so it drops into ``replay_sample`` or
the differential harness in place of the engine.  Give it its own engine
instance: the reference then shares no cache and no gate-level simulator
with the engine under test.
"""

import time

import numpy as np

from repro.core.results import CampaignResult, OutcomeCategory, SampleRecord
from repro.errors import EvaluationError
from repro.obs.engine_metrics import metrics_from_records
from repro.sampling.estimator import SsfEstimator
from repro.utils.rng import as_generator, sample_seed_sequence


class ScalarReference:
    """The per-sample engine flow over ``engine``'s context and spec."""

    def __init__(self, engine):
        self.engine = engine
        self.context = engine.context
        self.spec = engine.spec
        self.config = engine.config

    def run_sample(self, sample, rng, clock=None) -> SampleRecord:
        engine = self.engine
        context = self.context
        injection_cycle = context.target_cycle - sample.t
        if injection_cycle < 0 or injection_cycle >= context.n_cycles:
            return SampleRecord(
                sample=sample,
                e=0,
                category=OutcomeCategory.OUT_OF_RANGE,
                flipped_bits=frozenset(),
                injection_cycle=injection_cycle,
            )

        simulator = context.simulator
        soc = context.soc
        simulator.restart_from(context.golden, injection_cycle)
        impact_cycles = getattr(self.spec.technique, "impact_cycles", 1)
        flipped = frozenset()
        n_injected = n_latched = 0
        for _ in range(impact_cycles):
            if simulator.cycle >= context.n_cycles:
                break
            soc.record_mpu_trace = True
            soc.mpu_trace = []
            simulator.step()
            soc.record_mpu_trace = False
            entry = soc.mpu_trace[-1]
            injection = self.spec.build_injection(context.placement, sample, rng)
            result = engine.transient_sim.simulate_cycle(
                entry.inputs, entry.state, injection
            )
            n_injected += result.n_pulses_injected
            n_latched += result.n_pulses_latched
            if result.flipped_bits:
                masks = {}
                for register, bit in result.flipped_bits:
                    masks[register] = masks.get(register, 0) | (1 << bit)
                simulator.inject_bit_errors(masks)
                # A bit flipped twice is back to fault-free.
                flipped = flipped ^ frozenset(result.flipped_bits)

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
        memory_only = engine._all_memory_type(flipped)
        category = (
            OutcomeCategory.MEMORY_ONLY if memory_only else OutcomeCategory.NEEDS_RTL
        )
        if (
            memory_only
            and impact_cycles == 1
            and self.config.analytical_memory_eval
            and engine._analytical is not None
        ):
            return SampleRecord(
                sample=sample,
                e=engine._analytical.evaluate(flipped, injection_cycle),
                category=category,
                flipped_bits=flipped,
                injection_cycle=injection_cycle,
                n_pulses_injected=n_injected,
                n_pulses_latched=n_latched,
                analytical=True,
            )
        simulator.run_to(context.n_cycles)
        return SampleRecord(
            sample=sample,
            e=1 if context.benchmark.attack_succeeded(soc) else 0,
            category=category,
            flipped_bits=flipped,
            injection_cycle=injection_cycle,
            n_pulses_injected=n_injected,
            n_pulses_latched=n_latched,
        )

    def evaluate(self, sampler, n_samples, seed=None, progress=None):
        """The per-sample campaign loop, with the engine's seed policy.

        A ``SeedSequence`` gives each sample its own child stream; any
        other seed is one stream shared by every draw and injection, in
        sample order.  Deterministic metrics are rebuilt from the
        records.
        """
        if n_samples <= 0:
            raise EvaluationError("n_samples must be positive")
        per_sample = seed if isinstance(seed, np.random.SeedSequence) else None
        rng = None if per_sample is not None else as_generator(seed)
        estimator = SsfEstimator(record_history=True)
        records = []
        start = time.perf_counter()
        for i in range(n_samples):
            if per_sample is not None:
                rng = as_generator(sample_seed_sequence(per_sample, i))
            sample = sampler.sample(rng)
            record = self.run_sample(sample, rng)
            estimator.push(sample, record.e)
            records.append(record)
            if progress is not None:
                progress(i, estimator)
        return CampaignResult(
            strategy=sampler.name,
            records=records,
            estimator=estimator,
            wall_time_s=time.perf_counter() - start,
            metrics=metrics_from_records(records).snapshot(),
        )
