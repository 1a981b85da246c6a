"""Step 3 of the pre-characterization: error lifetime and contamination.

For every register bit in the responding signals' cones, bit errors are
injected during an RTL run of the synthetic benchmark and the architectural
state diff against the golden run is tracked forward:

* **error lifetime** — cycles until the diff vanishes entirely (the error
  was masked / overwritten), capped at a horizon for errors that never die;
* **error contamination number** — how many *other* registers ever diverge
  from golden while the error lives.

Memory-type registers (long lifetime, ~0 contamination) get the analytical
evaluation path; computation-type registers stay on Monte Carlo but with a
small effective ``T`` range (paper, Observation 3).

A trial that flips an MPU bit follows the paper's cross-level rule
(Fig. 5) at the MPU's boundary: the faulty MPU steps alone beside the
golden run (:class:`~repro.soc.mpu.MpuLockstep`), fast-forwarding over
golden's idle stretches, and the whole SoC steps only from the first
cycle whose MPU outputs differ from golden's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CharacterizationError
from repro.rtl.simulator import RtlSimulator
from repro.soc.mpu import MpuBehavioral, MpuLockstep
from repro.soc.soc import Soc
from repro.utils.rng import SeedLike, as_generator


@dataclass
class RegisterCharacter:
    """Characterization of one register bit."""

    register: str
    bit: int
    lifetime: float             # mean over trials, cycles (capped at horizon)
    contamination: float        # mean number of other registers touched
    ever_masked: bool           # did the error die in at least one trial
    trials: int = 0


@dataclass
class LifetimeCampaign:
    """Results of the full injection campaign."""

    horizon: int
    results: Dict[Tuple[str, int], RegisterCharacter] = field(default_factory=dict)

    def lifetime_of(self, register: str, bit: int) -> float:
        char = self.results.get((register, bit))
        return char.lifetime if char else 0.0

    def register_means(self) -> Dict[str, Tuple[float, float]]:
        """Per-register (mean lifetime, mean contamination) over its bits."""
        acc: Dict[str, List[Tuple[float, float]]] = {}
        for (reg, _bit), char in self.results.items():
            acc.setdefault(reg, []).append((char.lifetime, char.contamination))
        return {
            reg: (
                float(np.mean([v[0] for v in vals])),
                float(np.mean([v[1] for v in vals])),
            )
            for reg, vals in acc.items()
        }

    def histogram(self, what: str = "lifetime", bins: Sequence[float] = ()) -> Dict[str, List[float]]:
        """Raw values for plotting Fig. 4-style distributions."""
        if what == "lifetime":
            values = [c.lifetime for c in self.results.values()]
        elif what == "contamination":
            values = [c.contamination for c in self.results.values()]
        else:
            raise CharacterizationError(f"unknown quantity {what!r}")
        return {"values": values}


def run_lifetime_campaign(
    device,
    n_cycles: int,
    target_bits: Sequence[Tuple[str, int]],
    horizon: int = 150,
    n_trials: int = 3,
    seed: SeedLike = 0,
    checkpoint_interval: int = 25,
    injection_window: Optional[Tuple[int, int]] = None,
) -> LifetimeCampaign:
    """Inject a flip into each (register, bit) and measure its character.

    ``device`` must already have its program loaded.  ``injection_window``
    bounds the injection cycles (defaults to the middle half of the run, so
    boot configuration is done and the horizon fits).

    One golden run records the checkpoints, every register value per
    cycle and, on an :class:`~repro.soc.soc.Soc`, the MPU trace.  A trial
    that flips an MPU bit then runs in lockstep
    (:class:`~repro.soc.mpu.MpuLockstep`): a standalone
    :class:`~repro.soc.mpu.MpuBehavioral` steps on the golden inputs, and
    only the MPU registers are diffed.  This is exact: the MPU reaches
    the core, bus and DMA only through its outputs, so while those equal
    golden's every other register and the RAM stay golden, and so do the
    MPU's inputs.  Where golden idles, a step that leaves the faulty
    registers as they were fast-forwards to the end of the idle stretch:
    every skipped step would repeat it, so the death check and the
    ``touched`` set are the same across the skip.  On the first cycle
    whose outputs differ the trial escapes to the whole SoC: restart
    there from the golden checkpoint, write the faulty MPU registers back
    and diff every register from then on.  Any other trial starts
    escaped.
    """
    if n_cycles <= horizon + 10:
        raise CharacterizationError("run too short for the requested horizon")
    sim = RtlSimulator(device)
    is_soc = isinstance(device, Soc)
    mpu_names: Tuple[str, ...] = ()
    if is_soc:
        mpu_names = tuple(device.mpu_register_names())
        recording = device.record_mpu_trace
        device.record_mpu_trace = True
    specs = device.register_specs()
    mpu_widths = {name: specs[name].width for name in mpu_names}
    # MPU registers first, so an MPU state is a prefix of a device state.
    names = mpu_names + tuple(name for name in specs if name not in mpu_names)
    state_of = _values_getter(names)
    sim.add_probe("state", lambda dev, _cycle: state_of(dev.get_registers()))
    golden = sim.golden_run(n_cycles, checkpoint_interval)
    # Golden register values per cycle, as tuples in ``names`` order.
    history = golden.traces["state"] + [state_of(golden.final.registers)]
    if is_soc:
        device.record_mpu_trace = recording
        lockstep = MpuLockstep.from_trace(
            device.mpu_trace,
            golden.final.registers,
            device.memmap,
            device.mpu_variant,
        )
        device.mpu_trace = []
        faulty = MpuBehavioral(device.memmap, device.mpu_variant)

    rng = as_generator(seed)
    lo, hi = injection_window or (n_cycles // 4, max(n_cycles // 4 + 1, n_cycles - horizon - 5))
    if lo >= hi:
        raise CharacterizationError("empty injection window")

    campaign = LifetimeCampaign(horizon=horizon)
    for register, bit in target_bits:
        in_mpu = 0 <= bit < mpu_widths.get(register, 0)
        lifetimes: List[float] = []
        contaminations: List[float] = []
        masked_any = False
        for _trial in range(n_trials):
            inject_cycle = int(rng.integers(lo, hi))
            stop = min(inject_cycle + horizon, n_cycles)
            touched: set = set()
            died_at: Optional[int] = None
            cycle = inject_cycle
            if in_mpu and 0 <= inject_cycle <= n_cycles:
                faulty.regs = dict(zip(mpu_names, lockstep.states[cycle]))
                faulty.regs[register] ^= 1 << bit
                for cycle, current in lockstep.steps(faulty, cycle, stop):
                    reference = lockstep.states[cycle]
                    if current == reference:
                        died_at = cycle
                        break
                    touched.update(compress(
                        mpu_names, map(operator.ne, current, reference)
                    ))
                if died_at is None and cycle < stop:  # escaped
                    sim.restart_from(golden, cycle)
                    device.set_registers(faulty.regs)
            else:
                sim.restart_from(golden, inject_cycle)
                device.flip_register_bit(register, bit)
            while died_at is None and cycle < stop:
                sim.step()
                cycle += 1
                current = state_of(device.get_registers())
                reference = history[cycle]
                if current == reference:
                    died_at = cycle
                    break
                touched.update(
                    compress(names, map(operator.ne, current, reference))
                )
            touched.discard(register)
            if died_at is None:
                lifetimes.append(float(horizon))
            else:
                lifetimes.append(float(died_at - inject_cycle))
                masked_any = True
            contaminations.append(float(len(touched)))
        campaign.results[(register, bit)] = RegisterCharacter(
            register=register,
            bit=bit,
            lifetime=float(np.mean(lifetimes)),
            contamination=float(np.mean(contaminations)),
            ever_masked=masked_any,
            trials=n_trials,
        )
    return campaign


def _values_getter(names: Sequence[str]) -> Callable[[Dict[str, int]], tuple]:
    """``regs -> tuple`` of the values of ``names``, in that order."""
    if len(names) == 1:
        (name,) = names
        return lambda regs: (regs[name],)
    return operator.itemgetter(*names)
