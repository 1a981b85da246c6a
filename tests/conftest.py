"""Shared fixtures.

The expensive artifacts (elaborated MPU netlist, evaluation context with a
reduced pre-characterization) are session-scoped: they are deterministic,
read-only for most tests, and building them once keeps the suite fast.
Tests that mutate SoC state build their own instances.

The process-wide design memo behind ``CampaignSpec.build_context`` is
cleared around every test (:func:`fresh_design_memo`), so each test's
spec-based builds start from no memoized design, as in a new process.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.campaign.spec import clear_design_memo
from repro.core.context import build_context
from repro.gatesim.logic import LogicEvaluator
from repro.netlist.placement import GridPlacer
from repro.precharac.characterization import CharacterizationConfig
from repro.soc.memmap import DEFAULT_MEMORY_MAP
from repro.soc.mpu import build_mpu_netlist
from repro.soc.programs import illegal_write_benchmark
from repro.soc.soc import Soc


# ----------------------------------------------------------------------
# Hypothesis profiles — select with HYPOTHESIS_PROFILE=ci|dev.
# ``ci`` is derandomized so the conformance job is reproducible run to
# run (a property failure in CI replays identically on a laptop).
# ----------------------------------------------------------------------
settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def fresh_design_memo():
    """No memoized design leaks into or out of a test."""
    clear_design_memo()
    yield
    clear_design_memo()


@pytest.fixture(scope="session")
def mpu_netlist():
    return build_mpu_netlist(DEFAULT_MEMORY_MAP)


@pytest.fixture(scope="session")
def mpu_evaluator(mpu_netlist):
    return LogicEvaluator(mpu_netlist)


@pytest.fixture(scope="session")
def mpu_placement(mpu_netlist):
    return GridPlacer(pitch_um=2.0, jitter=0.25, seed=7).place(mpu_netlist)


@pytest.fixture()
def soc_write_bench():
    """A fresh SoC loaded with the illegal-write benchmark."""
    bench = illegal_write_benchmark()
    soc = Soc()
    soc.load_program(bench.program.words)
    soc.reset()
    return soc, bench


SMALL_CHARAC = CharacterizationConfig(
    max_frame=12,
    lifetime_horizon=60,
    lifetime_trials=1,
    seed=5,
)


@pytest.fixture(scope="session")
def small_context():
    """Full evaluation context with a reduced (fast) characterization."""
    return build_context(
        illegal_write_benchmark(),
        charac_config=SMALL_CHARAC,
    )
