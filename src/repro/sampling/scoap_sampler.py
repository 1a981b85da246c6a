"""Observability-weighted sampling — a static-heuristic baseline.

Related work ([12] in the paper) ranks circuit locations for
vulnerability analysis by *observability*; this sampler embodies that
idea as a baseline against the paper's dynamic (simulation-derived)
importance sampling: within the responding signals' cones, a node's mass
is ``1 / (1 + CO(g))`` where ``CO`` is its SCOAP observability towards
the responding signals.

It needs no workload simulation at all — its strength and its weakness:
purely structural ranking cannot know that e.g. a highly-observable
comparator net is only sensitized during one cycle of the benchmark.
The ablation bench quantifies the gap.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.attack.spec import AttackSample, AttackSpec
from repro.errors import SamplingError
from repro.netlist.scoap import compute_scoap
from repro.precharac.characterization import SystemCharacterization
from repro.sampling.base import Sampler, draw_index, inverse_cdf


class ScoapConeSampler(Sampler):
    """Cone-restricted sampling weighted by static observability."""

    def __init__(
        self,
        spec: AttackSpec,
        characterization: SystemCharacterization,
        sharpness: float = 1.0,
    ):
        super().__init__(spec)
        if sharpness <= 0:
            raise SamplingError("sharpness must be positive")
        self.characterization = characterization
        netlist = characterization.netlist
        scoap = compute_scoap(netlist, observe=characterization.responding)

        universe = set(spec.spatial.universe)
        self._frames: List[int] = []
        self._nodes: Dict[int, np.ndarray] = {}
        self._probs: Dict[int, np.ndarray] = {}
        self._cdf: Dict[int, List[float]] = {}
        frame_mass: List[float] = []
        for t in spec.temporal.support():
            nodes = sorted(characterization.omega_nodes(t) & universe)
            if not nodes:
                continue
            weights = np.array(
                [
                    (1.0 / (1.0 + min(scoap.co[nid], 1e6))) ** sharpness
                    for nid in nodes
                ]
            )
            total = float(weights.sum())
            if total <= 0:
                continue
            self._frames.append(t)
            self._nodes[t] = np.asarray(nodes, dtype=np.int64)
            self._probs[t] = weights / total
            self._cdf[t] = inverse_cdf(self._probs[t], f"SCOAP g_P|T at t={t}")
            frame_mass.append(total)
        if not self._frames:
            raise SamplingError("SCOAP sampler has empty support")
        mass = np.asarray(frame_mass)
        self._frame_probs = mass / mass.sum()
        self._frame_cdf = inverse_cdf(self._frame_probs, "SCOAP g_T")

    def g_T(self, t: int) -> float:  # noqa: N802 - paper notation
        if t not in self._nodes:
            return 0.0
        return float(self._frame_probs[self._frames.index(t)])

    def sample(self, rng: np.random.Generator) -> AttackSample:
        idx = draw_index(self._frame_cdf, rng)
        t = self._frames[idx]
        node_idx = draw_index(self._cdf[t], rng)
        centre = int(self._nodes[t][node_idx])
        radius = self.spec.radius.sample(rng)
        g_density = float(self._frame_probs[idx]) * float(
            self._probs[t][node_idx]
        )
        f_density = self.spec.temporal.pmf(t) * self.spec.spatial.pmf(centre)
        return AttackSample(
            t=t, centre=centre, radius_um=radius, weight=f_density / g_density
        )
