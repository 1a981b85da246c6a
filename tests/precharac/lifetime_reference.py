"""Test-only reference for the lifetime campaign.

Every trial restarts the whole SoC from the golden checkpoint, flips the
target bit and steps the full device for the whole horizon, diffing
every register against a second golden replay at every cycle.  The
production :func:`repro.precharac.lifetime.run_lifetime_campaign` keeps
MPU-level trials on a standalone MPU until the error reaches the MPU's
outputs; its ``results`` must equal this loop's, in values and key order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CharacterizationError
from repro.precharac.lifetime import LifetimeCampaign, RegisterCharacter
from repro.rtl.simulator import RtlSimulator
from repro.utils.rng import SeedLike, as_generator


def reference_lifetime_campaign(
    device,
    n_cycles: int,
    target_bits: Sequence[Tuple[str, int]],
    horizon: int = 150,
    n_trials: int = 3,
    seed: SeedLike = 0,
    checkpoint_interval: int = 25,
    injection_window: Optional[Tuple[int, int]] = None,
) -> LifetimeCampaign:
    """Inject a flip into each (register, bit) and measure its character."""
    if n_cycles <= horizon + 10:
        raise CharacterizationError("run too short for the requested horizon")
    sim = RtlSimulator(device)
    golden = sim.golden_run(n_cycles, checkpoint_interval, collect_traces=False)

    # Golden register state per cycle, for diff tracking.
    golden_states: List[Dict[str, int]] = []
    sim.reset()
    for _ in range(n_cycles):
        golden_states.append(device.get_registers())
        sim.step()
    golden_states.append(device.get_registers())

    rng = as_generator(seed)
    lo, hi = injection_window or (n_cycles // 4, max(n_cycles // 4 + 1, n_cycles - horizon - 5))
    if lo >= hi:
        raise CharacterizationError("empty injection window")

    campaign = LifetimeCampaign(horizon=horizon)
    for register, bit in target_bits:
        lifetimes: List[float] = []
        contaminations: List[float] = []
        masked_any = False
        for _trial in range(n_trials):
            inject_cycle = int(rng.integers(lo, hi))
            sim.restart_from(golden, inject_cycle)
            device.flip_register_bit(register, bit)
            touched: set = set()
            lifetime = horizon
            for offset in range(1, horizon + 1):
                sim.step()
                cycle = inject_cycle + offset
                if cycle > n_cycles:
                    break
                current = device.get_registers()
                reference = golden_states[cycle]
                diff = [
                    name
                    for name, value in current.items()
                    if value != reference[name]
                ]
                touched.update(name for name in diff if name != register)
                if not diff:
                    lifetime = offset
                    masked_any = True
                    break
            lifetimes.append(float(lifetime))
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
