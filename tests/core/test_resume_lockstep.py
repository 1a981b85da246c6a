"""Engine resumes in MPU lockstep against the whole-SoC oracles.

After a sample's flips latch, ``CrossLevelEngine`` resumes the faulty run
by stepping its own MPU on golden's inputs
(:class:`repro.soc.mpu.MpuLockstep`), and runs the whole SoC only from
the first cycle whose MPU outputs differ from golden's.  Compared here:

* a resume from any cycle of the run, up to the last, with MPU flips of
  every family, against ``probe_register_flips`` (restart, step, flip,
  step the whole SoC to the end): the verdicts and the whole final SoC
  state are equal;
* ``run_batch`` with ``impact_cycles`` 1-3 and the analytical path on
  and off, against ``tests/core/scalar_reference.py``: the records are
  equal, and so is the final SoC state of every sample that resumed;
* the RTL work of a resume: no SoC step for one that never escapes,
  one restart for one that does;
* the shared baseline of every injection cycle, which the engine builds
  from golden's recorded MPU trace without running the RTL, against the
  baseline of the entry a whole-SoC restart and step records.

Tier-1 draws the ``none`` and ``parity`` variants; the full conformance
tier (``REPRO_CONFORMANCE=full``) draws all six.
"""

import functools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_attack_spec
from repro.attack.distributions import (
    RadiusDistribution,
    SpatialDistribution,
    TemporalDistribution,
)
from repro.attack.spec import AttackSpec
from repro.attack.techniques import PinpointUpsetTechnique
from repro.core.context import EvaluationContext, build_context
from repro.core.engine import CrossLevelEngine, EngineConfig
from repro.rtl.simulator import RtlSimulator
from repro.sampling import RandomSampler
from repro.soc.mpu import MpuVariant, mpu_register_specs
from repro.soc.programs import illegal_write_benchmark
from repro.utils.rng import as_generator, sample_seed_sequence

from tests.conftest import SMALL_CHARAC
from tests.core.scalar_reference import ScalarReference

FULL = os.environ.get("REPRO_CONFORMANCE") == "full"
ALL_VARIANTS = ("none", "parity", "dual", "tmr", "dual+parity", "tmr+parity")
#: Chosen at collection time, so tier-1 skips nothing.
VARIANTS = ALL_VARIANTS if FULL else ("none", "parity")

#: MPU register families, each reaching the outputs another way.
FAMILIES = {
    "configuration": lambda name: (
        name.startswith("cfg_") and not name.endswith("_par")
    ),
    "parity": lambda name: name.endswith("_par"),
    "request": lambda name: name.startswith("req_"),
    "decision": lambda name: name.startswith(("viol_q", "grant_q")),
    "sticky_flag": lambda name: name == "sticky_flag",
    "viol_addr": lambda name: name == "viol_addr",
}


@functools.lru_cache(maxsize=None)
def design(variant):
    """The write benchmark on ``variant``, with a small characterization."""
    return build_context(
        illegal_write_benchmark(),
        mpu_variant=MpuVariant.parse(variant),
        charac_config=SMALL_CHARAC,
    ).design


TECHNIQUES = ("transient", "pinpoint")


def engine_on(variant, impact=1, analytical=True, technique="transient"):
    """An engine with a SoC of its own on ``variant``'s design.

    ``transient`` strikes radiation at the default spec's sub-block;
    ``pinpoint`` upsets one of the MPU's flip-flops on every impact
    cycle, so every sample latches and most resume.
    """
    context = EvaluationContext.for_design(design(variant))
    if technique == "transient":
        spec = default_attack_spec(context, window=10, subblock_fraction=0.25)
    else:
        spec = AttackSpec(
            technique=PinpointUpsetTechnique(timing=context.timing),
            temporal=TemporalDistribution(40),
            spatial=SpatialDistribution(
                sorted(node.nid for node in context.netlist.nodes if node.is_dff)
            ),
            radius=RadiusDistribution((1.0,)),
        )
    spec.technique.impact_cycles = impact
    return CrossLevelEngine(
        context, spec, EngineConfig(analytical_memory_eval=analytical)
    )


def final_state(context):
    """Everything a verdict could read: cycle, registers and RAM."""
    soc = context.soc
    return context.simulator.cycle, soc.get_registers(), soc.get_arrays()


def resume(engine, flips, injection_cycle):
    """The engine's verdict on ``flips`` latched at ``injection_cycle``,
    through its RTL resume (never the analytical path or the memo)."""
    engine._outcome_cache.clear()
    record = engine._finish_diverged(
        None, injection_cycle, frozenset(flips), injection_cycle + 1, [], 0,
        0, 1,
    )
    return record.e


@pytest.fixture
def rtl_calls(monkeypatch):
    """Counts of the ``RtlSimulator`` calls that run the SoC."""
    calls = {"step": 0, "restart_from": 0, "run_to": 0}
    for name in calls:
        method = getattr(RtlSimulator, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(RtlSimulator, name, counted)
    return calls


@st.composite
def mpu_flips(draw, variant):
    """One bit from each of one to three drawn register families."""
    widths = {
        name: spec.width
        for name, spec in mpu_register_specs(
            variant=MpuVariant.parse(variant)
        ).items()
    }
    families = draw(
        st.lists(
            st.sampled_from(sorted(FAMILIES)), min_size=1, max_size=3,
            unique=True,
        )
    )
    flips = set()
    for family in families:
        names = sorted(name for name in widths if FAMILIES[family](name))
        if not names:  # no parity bits on this variant
            continue
        name = draw(st.sampled_from(names))
        flips.add((name, draw(st.integers(0, widths[name] - 1))))
    return frozenset(flips)


class TestResumeAgainstProbe:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_verdict_and_final_state_match_probe(self, data):
        variant = data.draw(st.sampled_from(VARIANTS), label="variant")
        flips = data.draw(mpu_flips(variant), label="flips")
        n_cycles = design(variant).n_cycles
        # The last injection cycle leaves no cycle to step.
        cycle = data.draw(st.integers(0, n_cycles - 1), label="cycle")
        engine = engine_on(variant, analytical=False)
        oracle = engine_on(variant)
        e = resume(engine, flips, cycle)
        assert e == oracle.probe_register_flips(flips, cycle)
        assert final_state(engine.context) == final_state(oracle.context)


class TestBatchAgainstReference:
    @settings(max_examples=12, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS),
        impact=st.integers(1, 3),
        analytical=st.booleans(),
        technique=st.sampled_from(TECHNIQUES),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
    )
    def test_records_match_reference(
        self, variant, impact, analytical, technique, seed, n
    ):
        case = (variant, impact, analytical, technique)
        engine = engine_on(*case)
        reference = ScalarReference(engine_on(*case))
        sampler = RandomSampler(engine.spec)
        batched = engine.evaluate(sampler, n, seed=np.random.SeedSequence(seed))
        scalar = reference.evaluate(
            sampler, n, seed=np.random.SeedSequence(seed)
        )
        assert batched.records == scalar.records

    @settings(max_examples=12, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS),
        impact=st.integers(1, 3),
        analytical=st.booleans(),
        technique=st.sampled_from(TECHNIQUES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_resumed_samples_end_in_the_reference_state(
        self, variant, impact, analytical, technique, seed
    ):
        case = (variant, impact, analytical, technique)
        engine = engine_on(*case)
        reference = ScalarReference(engine_on(*case))
        sampler = RandomSampler(engine.spec)
        for i in range(8):
            seeds = [
                sample_seed_sequence(np.random.SeedSequence(seed), i)
                for _ in range(2)
            ]
            rng, twin = (as_generator(s) for s in seeds)
            sample = sampler.sample(rng)
            assert sampler.sample(twin) == sample
            engine._outcome_cache.clear()
            record = engine.run_sample(sample, rng)
            assert record == reference.run_sample(sample, twin)
            if record.flipped_bits and not record.analytical:
                assert final_state(engine.context) == final_state(
                    reference.context
                )


class TestResumeWork:
    def test_a_resume_that_never_escapes_steps_no_soc(self, rtl_calls):
        # Region 5 is disabled: its bounds never decide an access.
        flips = {("cfg_base5", 3)}
        engine = engine_on("none", analytical=False)
        cycle = design("none").target_cycle - 40
        rtl_calls.update(dict.fromkeys(rtl_calls, 0))  # after the build
        e = resume(engine, flips, cycle)
        assert rtl_calls == {"step": 0, "restart_from": 0, "run_to": 0}
        expected = engine_on("none").probe_register_flips(flips, cycle)
        assert e == expected

    def test_a_resume_that_escapes_restarts_once(self, rtl_calls):
        # A decision-register flip reaches the outputs at once.
        engine = engine_on("none", analytical=False)
        cycle = design("none").target_cycle - 5
        rtl_calls.update(dict.fromkeys(rtl_calls, 0))
        resume(engine, {("viol_q", 0)}, cycle)
        assert rtl_calls["restart_from"] == 1


class TestCycleState:
    def test_a_cold_cycle_state_runs_no_rtl(self, rtl_calls):
        engine = engine_on("none")
        context = engine.context
        rtl_calls.update(dict.fromkeys(rtl_calls, 0))  # after the build
        for cycle in (0, context.target_cycle, context.n_cycles - 1):
            engine._cycle_state(cycle)
        assert engine.baseline_cache_stats == (0, 3)
        assert rtl_calls == {"step": 0, "restart_from": 0, "run_to": 0}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_cycle_matches_a_whole_soc_step(self, variant):
        """The baseline of every injection cycle equals the one built on
        the trace entry of a whole-SoC restart from golden and one
        recorded step: the injection cycle's stimulus and MPU state."""
        engine = engine_on(variant)
        context = engine.context
        simulator, soc = context.simulator, context.soc
        for cycle in range(context.n_cycles):
            simulator.restart_from(context.golden, cycle)
            soc.record_mpu_trace = True
            soc.mpu_trace = []
            simulator.step()
            soc.record_mpu_trace = False
            (entry,) = soc.mpu_trace
            assert entry == context.mpu_trace[cycle]
            expected = engine.transient_sim.make_baseline(
                entry.inputs, entry.state
            )
            baseline = engine._cycle_state(cycle)
            assert baseline.values.dtype == expected.values.dtype
            assert np.array_equal(baseline.values, expected.values)
            assert baseline.golden_next == expected.golden_next
            assert baseline.pin_mask == expected.pin_mask
