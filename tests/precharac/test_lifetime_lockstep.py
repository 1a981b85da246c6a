"""The lockstep lifetime campaign against the full-SoC reference loop.

``run_lifetime_campaign`` steps a standalone MPU on the golden inputs
until the error reaches the MPU's outputs, then escapes to the whole
SoC.  Its ``results`` must equal the reference's
(``tests/precharac/lifetime_reference.py``) in values and key order.

Tier-1 compares the baseline and the parity variant at production
depth; the full conformance tier (``REPRO_CONFORMANCE=full``) compares
every MPU variant.  The Hypothesis cases use short horizons and force
every escape path: flipped output registers, parity-protected
configuration bits, non-MPU registers (which start escaped) and trials
that run into the end of the run.  They run on two programs: the
synthetic workload, which issues a request every few cycles, and the
write benchmark, whose golden run idles for tens of cycles at a time,
so its trials fast-forward far.
"""

import functools
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.precharac.characterization as characterization
from repro.core.context import build_context
from repro.errors import CharacterizationError
from repro.precharac.lifetime import run_lifetime_campaign
from repro.rtl.simulator import RtlSimulator
from repro.soc.mpu import MpuBehavioral, MpuVariant
from repro.soc.programs import illegal_write_benchmark, synthetic_workload
from repro.soc.soc import Soc

from tests.precharac.lifetime_reference import reference_lifetime_campaign
from tests.rtl.test_simulator import CounterDevice

FULL = os.environ.get("REPRO_CONFORMANCE") == "full"
ALL_VARIANTS = ("none", "parity", "dual", "tmr", "dual+parity", "tmr+parity")
#: Chosen at collection time, so tier-1 skips nothing.
PRODUCTION_VARIANTS = ALL_VARIANTS if FULL else ("none", "parity")


def assert_same_campaign(actual, expected):
    assert actual.horizon == expected.horizon
    assert list(actual.results) == list(expected.results)
    assert actual.results == expected.results


class _Captured(Exception):
    """Stops the context build once the lifetime arguments are known."""


def production_arguments(variant):
    """The device and arguments ``precharacterize`` hands the campaign
    when it characterizes ``variant`` for a context build."""
    captured = {}

    def capture(device, **kwargs):
        captured.update(kwargs, device=device)
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(characterization, "run_lifetime_campaign", capture)
        with pytest.raises(_Captured):
            build_context(
                illegal_write_benchmark(),
                mpu_variant=MpuVariant.parse(variant),
            )
    return captured.pop("device"), captured


class TestProductionDepth:
    @pytest.mark.parametrize("variant", PRODUCTION_VARIANTS)
    def test_results_match_reference(self, variant):
        device, kwargs = production_arguments(variant)
        assert kwargs["horizon"] == 150 and len(kwargs["target_bits"]) > 300
        actual = run_lifetime_campaign(device, **kwargs)
        expected = reference_lifetime_campaign(device, **kwargs)
        assert_same_campaign(actual, expected)


#: Program -> (benchmark, cycles run past the halt).
PROGRAMS = {
    "synthetic": (functools.partial(synthetic_workload, seed=11), 10),
    "write": (illegal_write_benchmark, illegal_write_benchmark().cycle_slack),
}


@functools.lru_cache(maxsize=None)
def program_run(variant, program="synthetic"):
    """(register widths, cycle count) of a program's run."""
    soc = make_soc(variant, program)
    return {
        name: spec.width for name, spec in soc.register_specs().items()
    }, soc.run_until_halt() + PROGRAMS[program][1]


def make_soc(variant, program="synthetic"):
    soc = Soc(mpu_variant=MpuVariant.parse(variant))
    soc.load_program(PROGRAMS[program][0]().program.words)
    soc.reset()
    return soc


#: Register families, each forcing a different path through the trial.
FAMILIES = {
    "outputs": ("viol_q", "grant_q", "sticky_flag", "viol_addr"),
    "config": ("cfg_",),
    "request": ("req_",),
    "outside": ("core_", "bus_", "dma_"),
}


@st.composite
def campaigns(draw):
    variant = draw(st.sampled_from(ALL_VARIANTS))
    program = draw(st.sampled_from(sorted(PROGRAMS)))
    widths, n_cycles = program_run(variant, program)
    horizon = draw(st.integers(1, 40))
    families = draw(
        st.lists(st.sampled_from(sorted(FAMILIES)), min_size=1, max_size=4)
    )
    bits = []
    for family in families:
        names = [
            name for name in widths if name.startswith(FAMILIES[family])
        ]
        name = draw(st.sampled_from(names))
        bits.append((name, draw(st.integers(0, widths[name] - 1))))
    window = draw(
        st.one_of(
            st.none(),
            # Late windows run trials into the end of the run.
            st.integers(n_cycles - 2 * horizon, n_cycles - 1).map(
                lambda lo: (lo, n_cycles)
            ),
            st.tuples(
                st.integers(0, n_cycles - 1), st.integers(1, 50)
            ).map(lambda t: (t[0], min(t[0] + t[1], n_cycles))),
        )
    )
    return (variant, program), dict(
        n_cycles=n_cycles,
        target_bits=bits,
        horizon=horizon,
        n_trials=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
        checkpoint_interval=draw(st.sampled_from((7, 25))),
        injection_window=window,
    )


#: (variant, flipped bit) cases, each forcing one path through a trial.
NAMED_PATHS = (
    ("none", ("viol_q", 0)),          # output flip: escapes at once
    ("tmr", ("viol_q_b", 0)),         # outvoted rail: stays in lockstep
    ("parity", ("cfg_top0_par", 0)),  # parity error at next access
    ("none", ("core_gpr3", 5)),       # outside the MPU: starts escaped
)


def outcome(campaign, soc_args, kwargs):
    """The campaign, or the ``ValueError`` of an upset that left the
    core in a state the SoC model rejects (``core_state`` 5-7)."""
    try:
        return campaign(make_soc(*soc_args), **kwargs)
    except ValueError as exc:
        return str(exc)


class TestEscapePaths:
    @given(campaigns())
    def test_short_horizons_match_reference(self, case):
        soc_args, kwargs = case
        actual = outcome(run_lifetime_campaign, soc_args, kwargs)
        expected = outcome(reference_lifetime_campaign, soc_args, kwargs)
        if isinstance(expected, str):
            assert actual == expected
        else:
            assert_same_campaign(actual, expected)

    @pytest.mark.parametrize(
        "variant,bit,program",
        [
            # The synthetic workload's cases keep their original ids.
            pytest.param(
                variant, bit, program,
                id=f"{variant}-bit{i}" + (
                    "" if program == "synthetic" else f"-{program}"
                ),
            )
            for program in ("synthetic", "write")
            for i, (variant, bit) in enumerate(NAMED_PATHS)
        ],
    )
    def test_named_paths_match_reference(self, variant, bit, program):
        _widths, n_cycles = program_run(variant, program)
        kwargs = dict(
            n_cycles=n_cycles, target_bits=[bit], horizon=60, n_trials=3,
            seed=5,
        )
        actual = run_lifetime_campaign(make_soc(variant, program), **kwargs)
        expected = reference_lifetime_campaign(
            make_soc(variant, program), **kwargs
        )
        assert_same_campaign(actual, expected)

    def test_idle_stretches_fast_forward(self, monkeypatch):
        """A configuration error that never reaches the outputs lives
        the whole horizon, in fewer standalone MPU steps than that: the
        write benchmark's golden run idles for tens of cycles at a time."""
        standalone = []
        step = MpuBehavioral.step
        monkeypatch.setattr(
            MpuBehavioral,
            "step",
            lambda mpu, inputs: (
                standalone.append(mpu) if mpu is not soc.mpu else None,
                step(mpu, inputs),
            ),
        )
        soc = make_soc("none", "write")
        _widths, n_cycles = program_run("none", "write")
        kwargs = dict(
            n_cycles=n_cycles, target_bits=[("cfg_base5", 3)], horizon=150,
            n_trials=1, seed=3, injection_window=(50, 90),
        )
        campaign = run_lifetime_campaign(soc, **kwargs)
        assert campaign.results[("cfg_base5", 3)].lifetime == 150
        assert 0 < len(standalone) < 150
        expected = reference_lifetime_campaign(make_soc("none", "write"), **kwargs)
        assert_same_campaign(campaign, expected)

    def test_device_without_an_mpu_starts_escaped(self):
        # A one-register device: the state tuples still hold one value.
        kwargs = dict(
            n_cycles=60, target_bits=[("count", 0), ("count", 7)],
            horizon=20, n_trials=2, seed=9, injection_window=(0, 50),
        )
        actual = run_lifetime_campaign(CounterDevice(), **kwargs)
        expected = reference_lifetime_campaign(CounterDevice(), **kwargs)
        assert_same_campaign(actual, expected)

    def test_configuration_errors_stay_at_the_mpu_level(self, monkeypatch):
        """A static configuration error never reaches the outputs here,
        so the whole campaign costs the one golden run of the SoC."""
        steps = []
        step = RtlSimulator.step
        monkeypatch.setattr(
            RtlSimulator,
            "step",
            lambda sim, traces=None: (steps.append(1), step(sim, traces)),
        )
        _widths, n_cycles = program_run("none")
        campaign = run_lifetime_campaign(
            make_soc("none"), n_cycles, [("cfg_base5", 3)], horizon=60,
            n_trials=2, seed=3,
        )
        assert campaign.results[("cfg_base5", 3)].lifetime == 60
        assert len(steps) == n_cycles


class TestErrors:
    @pytest.mark.parametrize(
        "bits,error",
        [
            ([("no_such_reg", 0)], KeyError),
            ([("viol_q", 1)], ValueError),       # MPU register, bit too high
            ([("cfg_base0", 16)], ValueError),
            ([("core_pc", -1)], ValueError),
        ],
    )
    def test_same_errors_as_reference(self, bits, error):
        _widths, n_cycles = program_run("none")
        for campaign in (run_lifetime_campaign, reference_lifetime_campaign):
            with pytest.raises(error):
                campaign(make_soc("none"), n_cycles, bits, horizon=20)

    def test_empty_window_and_short_run(self):
        _widths, n_cycles = program_run("none")
        for campaign in (run_lifetime_campaign, reference_lifetime_campaign):
            with pytest.raises(CharacterizationError, match="empty"):
                campaign(
                    make_soc("none"), n_cycles, [("viol_q", 0)], horizon=20,
                    injection_window=(50, 50),
                )
            with pytest.raises(CharacterizationError, match="too short"):
                campaign(make_soc("none"), 30, [("viol_q", 0)], horizon=20)
