"""End-to-end tests of the benchmark in quick mode (tiny budgets).

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
The first run in a checkout also builds the warm state (about a minute).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from spans import LAYERS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_quick(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *args],
        capture_output=True, text=True, cwd=HERE.parent, timeout=900,
    )


@pytest.fixture(scope="module")
def quick_all():
    proc = run_quick("--workload", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_printed_with_unit(quick_all):
    stdout, result = quick_all
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * (1 + 1 + 4)
    report = stdout.strip().rsplit("\n", 1)[0]
    sections = report.split("== ")[1:]
    assert [s.split("\n", 1)[0] for s in sections] == list(WORKLOADS) * 2
    for workload, section in zip(list(WORKLOADS) * 2, sections):
        expected = END_TO_END if "verdict_s" in section else LAYER_METRICS
        for name, unit in expected.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
            line = next(l for l in section.splitlines()
                        if l.split()[:1] == [name])
            assert line.split()[-1] == unit
        assert "failed_frac" in section and "work counts:" in section


def test_layer_totals_reconcile_with_wall_time(quick_all):
    _, result = quick_all
    for workload in WORKLOADS:
        metric = lambda name: result["metrics"][f"{workload}.{name}"]["value"]
        layers = [metric(f"{layer}.self_s") for layer in LAYERS]
        wall = metric("trace.wall_s")
        unaccounted = metric("trace.unaccounted_s")
        assert min(layers) >= 0.0
        assert 0.0 <= unaccounted < 0.5 * wall
        assert sum(layers) + unaccounted == pytest.approx(wall, abs=1e-6)


def test_wrong_pinned_digest_fails_the_campaign(tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())
    pin = pins["quick"]["warm-batch"]["campaign"]
    pin["digest"] = "0" * len(pin["digest"])
    wrong = tmp_path / "pins.json"
    wrong.write_text(json.dumps(pins))
    proc = run_quick("--workload", "warm-batch", "--pins", str(wrong))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 1, 1)
    assert "failed_frac" in proc.stdout and "digest" in proc.stdout
    frac = next(l for l in proc.stdout.splitlines()
                if l.split()[:1] == ["failed_frac"])
    assert float(frac.split()[1]) == 1.0
