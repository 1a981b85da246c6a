"""Trajectory pins of the behavioural SoC.

Everything the rest of the framework reads from a :class:`Soc` run is
folded into one SHA-256 digest per (program, MPU variant) scenario:

* the golden run, with the MPU trace on: the register state before every
  cycle as an ordered list of items (the key order of ``get_registers()``
  is observable — checkpoints, baseline-store payloads and trace entries
  record it), every trace entry, and every golden checkpoint with its RAM;
* one seeded single-bit flip into every register of core, MPU, bus and
  DMA, each restarted from the golden checkpoints and followed for up to
  ``HORIZON`` cycles: the ordered register state per cycle, the MPU
  trace entries, the final RAM and any exception a step raises (a
  ``core_state`` of 5-7 is not a state and raises ``ValueError``).

A faulty run's trace entries are digested without their ``cycle`` field:
that field counts steps since the last ``reset()`` or checkpoint restore,
which is the golden run's business, not the trajectory's.

The digests live in ``tests/golden/soc_trajectories.json``.  When a change
is *meant* to alter a trajectory, regenerate them with
``REPRO_REGEN_GOLDEN=1 pytest tests/soc/test_trajectory_pins.py`` and
explain the diff.
"""

import hashlib
import json
import os
import pathlib
import zlib
from array import array

import numpy as np
import pytest

from repro.rtl.simulator import RtlSimulator
from repro.soc.mpu import MpuVariant
from repro.soc.programs import (
    dma_exfiltration_benchmark,
    illegal_read_benchmark,
    illegal_write_benchmark,
    reconfig_workload,
    synthetic_workload,
)
from repro.soc.soc import Soc

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "golden" / "soc_trajectories.json"
)
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

PROGRAMS = {
    "write": illegal_write_benchmark,
    "read": illegal_read_benchmark,
    "dma": dma_exfiltration_benchmark,
    "synthetic": lambda: synthetic_workload(seed=11),
    "reconfig": lambda: reconfig_workload(seed=12),
}
VARIANTS = ("none", "parity", "dual+parity", "tmr")

#: Cycles followed after each flip.
HORIZON = 60
#: Cycles run past the halt, so the golden run also covers a halted core.
TAIL = 10
CHECKPOINT_INTERVAL = 10


class _Digest:
    """SHA-256 over a stream of register states, arrays and events.

    A register state goes in as its key order (only when that order
    changes) plus its values as 64-bit words, which pins both exactly at
    a fraction of the cost of hashing ``repr(list(items))``.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self._keys = None

    def event(self, *items):
        self._hash.update(repr(items).encode() + b"\n")

    def registers(self, registers):
        keys = tuple(registers)
        if keys != self._keys:
            self._keys = keys
            self.event("keys", keys)
        self._hash.update(array("Q", registers.values()).tobytes())

    def words(self, words):
        self._hash.update(array("Q", words).tobytes())

    def hexdigest(self):
        return self._hash.hexdigest()


def trajectory_digest(program: str, variant: str) -> str:
    bench = PROGRAMS[program]()
    soc = Soc(mpu_variant=MpuVariant.parse(variant))
    soc.load_program(bench.program.words)
    soc.reset()
    n_cycles = soc.run_until_halt() + TAIL
    digest = _Digest()

    # Golden run: per-cycle state, trace entries and checkpoints.
    sim = RtlSimulator(soc)
    sim.add_probe(
        "registers", lambda device, cycle: digest.registers(device.get_registers())
    )
    soc.record_mpu_trace = True
    golden = sim.golden_run(n_cycles, CHECKPOINT_INTERVAL)
    soc.record_mpu_trace = False
    sim.remove_probe("registers")
    digest.event("golden", n_cycles)
    for entry in soc.mpu_trace:
        digest.event("trace", entry.cycle)
        digest.registers(entry.inputs)
        digest.registers(entry.state)
    for cycle in golden.checkpoints.cycles():
        checkpoint = golden.checkpoints.at(cycle)
        digest.event("checkpoint", cycle, sorted(checkpoint.arrays))
        digest.registers(checkpoint.registers)
        digest.words(checkpoint.arrays["ram"])

    # One seeded flip into every register, followed for HORIZON cycles.
    rng = np.random.default_rng(zlib.crc32(f"{program}/{variant}".encode()))
    for name, spec in soc.register_specs().items():
        bit = int(rng.integers(spec.width))
        cycle = int(rng.integers(n_cycles))
        sim.restart_from(golden, cycle)
        soc.flip_register_bit(name, bit)
        soc.mpu_trace = []
        soc.record_mpu_trace = True
        digest.event("flip", name, bit, cycle)
        for offset in range(HORIZON):
            digest.registers(soc.get_registers())
            try:
                soc.step()
            except ValueError as exc:
                digest.event("raised", offset, type(exc).__name__)
                break
        soc.record_mpu_trace = False
        digest.registers(soc.get_registers())
        digest.words(soc.memory.snapshot())
        for entry in soc.mpu_trace:
            digest.registers(entry.inputs)
            digest.registers(entry.state)
    return digest.hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_trajectory_pinned(program, variant):
    key = f"{program}/{variant}"
    observed = trajectory_digest(program, variant)
    if REGEN:
        data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        data[key] = observed
        GOLDEN_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN_PATH.read_text())
    assert key in golden, f"no pinned trajectory for {key!r} — regenerate"
    assert observed == golden[key], (
        f"{key}: the SoC trajectory drifted from "
        f"tests/golden/soc_trajectories.json (set REPRO_REGEN_GOLDEN=1 to accept)"
    )
