"""The paper's two-step importance sampling (Section 4).

The sampling distribution decomposes as ``g_{T,P} = g_T · g_{P|T}`` with

    ``ω_i   = Σ_{g ∈ Ω_i} (1 + α · Corr_i(g, rs) · δ(L(g) >= β·i))``
    ``g_T(i) = ω_i / Σ_j ω_j``
    ``g_{P|T}(g | i) ∝ 1 + α · Corr_i(g, rs) · δ(L(g) >= β·i)``

with the spot radius kept uniform.  ``α`` rewards nodes whose switching
correlates with the responding signals; the lifetime gate ``δ(L(g) >= β·i)``
suppresses nodes whose errors cannot survive the ``i`` cycles to the target
cycle.  Both knobs are exposed for the ablation study.

With ``hard_lifetime_gate`` (the default, following the paper's "for the
rest, we know the attack will fail"), nodes failing the lifetime test are
removed from the support altogether instead of merely losing the ``α``
bonus: an error that dies before the target cycle cannot flip the outcome,
so assigning it zero sampling mass keeps the estimator unbiased while
concentrating samples dramatically.

When a :class:`~repro.netlist.placement.Placement` is provided, the
correlation field is additionally *spatially smeared*: a node's effective
``Corr_i`` is the maximum over its physical neighbourhood within the
technique's typical spot radius.  A radiation spot centred on a neutral
cell still flips the critical cell next door, so the sampling mass must
follow neighbourhoods rather than individual cells; the importance weights
stay exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.spec import AttackSample, AttackSpec
from repro.errors import SamplingError
from repro.precharac.characterization import SystemCharacterization
from repro.sampling.base import Sampler, draw_index, inverse_cdf


def _correlation_table(
    characterization: SystemCharacterization,
    universe: Sequence[int],
    frames: Sequence[int],
    placement,
    radius_um: Optional[float],
    persistence_extension: bool,
) -> np.ndarray:
    """Effective ``Corr_i`` as one (frame x universe cell) array.

    Built on the cells it serves: the universe plus, with a placement,
    every cell whose strike footprint at ``radius_um`` holds a universe
    cell.  Three layers, each a no-op where its condition does not hold:

    * the raw correlations (missing entries read 0);
    * the persistence extension: a node whose error lifetime spans the
      whole horizon holds its fault indefinitely (a memory-type
      element), so injecting at *any* timing distance ``t >= 1`` is
      equivalent, and its best positive correlation over all frames
      applies at every support frame ``>= 1`` it belongs to
      (Observation 3 applied to the correlation field);
    * the spatial smear: a universe cell takes the maximum of its own
      value and the positive values of every cell whose footprint holds
      it (:meth:`~repro.netlist.placement.Placement.reached_from`).  A
      NaN entry stays NaN, for the table checks to reject.
    """
    reach: Dict[int, np.ndarray] = {}
    if placement is not None:
        reach = {nid: placement.reached_from(nid, radius_um) for nid in universe}
    cells = sorted(set(universe).union(*(near.tolist() for near in reach.values())))
    column = {nid: j for j, nid in enumerate(cells)}
    row = {t: i for i, t in enumerate(frames)}

    field = np.zeros((len(frames), len(cells)))
    memory = set()
    if persistence_extension:
        config = characterization.config
        threshold = config.memory_lifetime_frac * config.lifetime_horizon
        memory = {nid for nid in cells if characterization.L(nid) >= threshold}
    best: Dict[int, float] = {}
    for (nid, frame), value in characterization.signatures.correlations.items():
        j = column.get(nid)
        if j is None:
            continue
        i = row.get(frame)
        if i is not None:
            field[i, j] = value
        if nid in memory and value > best.get(nid, 0.0):
            best[nid] = value
    cone_rows = [
        (i, characterization.omega_nodes(frame))
        for frame, i in row.items()
        if frame >= 1
    ]
    for nid, value in best.items():
        j = column[nid]
        for i, cone in cone_rows:
            if nid in cone and field[i, j] < value:
                field[i, j] = value

    own = field[:, [column[nid] for nid in universe]]
    if not reach:
        return own
    # One group of columns per universe cell, maxed in one reduceat over
    # the positive entries.
    ids = np.asarray(cells, dtype=np.int64)
    groups = [np.searchsorted(ids, reach[nid]) for nid in universe]
    starts = np.cumsum([0] + [len(group) for group in groups[:-1]])
    positive = np.where(field > 0.0, field, -np.inf)
    spread = np.maximum.reduceat(
        positive[:, np.concatenate(groups)], starts, axis=1
    )
    return np.maximum(own, spread)


@dataclass(frozen=True)
class _FrameTable:
    nodes: np.ndarray       # candidate centre gates in this frame
    terms: np.ndarray       # unnormalized per-node mass
    probs: np.ndarray       # terms / omega
    omega: float
    cdf: List[float]        # inverse CDF of probs, for draw_index


@dataclass(frozen=True)
class ImportanceTables:
    """``g_T`` and every ``g_{P|T}`` of one sampler, arrays read-only.

    A pure function of the sampler's arguments, so samplers over equal
    attack specs on one design can share one set (see
    :meth:`repro.campaign.spec.CampaignSpec.build_runtime`).
    """

    frames: Tuple[int, ...]
    by_frame: Dict[int, _FrameTable]
    frame_probs: np.ndarray
    frame_cdf: List[float]


class ImportanceSampler(Sampler):
    """Pre-characterization-driven importance sampling.

    ``g_T`` and every ``g_{P|T}`` are fixed per campaign, so the
    constructor builds their tables once and keeps only those
    (:attr:`tables`).  ``tables`` hands it a set built earlier from the
    same arguments instead.
    """

    def __init__(
        self,
        spec: AttackSpec,
        characterization: SystemCharacterization,
        alpha: float = 50.0,
        beta: float = 1.0,
        hard_lifetime_gate: bool = True,
        placement=None,
        smear_radius_um: Optional[float] = None,
        persistence_extension: bool = True,
        defensive_epsilon: float = 0.15,
        tables: Optional[ImportanceTables] = None,
    ):
        super().__init__(spec)
        if alpha < 0 or beta < 0:
            raise SamplingError("alpha and beta must be non-negative")
        if not 0.0 <= defensive_epsilon < 1.0:
            raise SamplingError("defensive_epsilon must lie in [0, 1)")
        self.defensive_epsilon = defensive_epsilon
        self.characterization = characterization
        self.alpha = alpha
        self.beta = beta
        self.hard_lifetime_gate = hard_lifetime_gate
        if tables is None:
            if placement is not None and smear_radius_um is None:
                # The direct-upset reach of a typical spot, not the full
                # radius: mass should follow cells the strike can flip.
                smear_radius_um = 0.5 * float(np.mean(spec.radius.radii_um))
            tables = self._build_tables(
                placement, smear_radius_um, persistence_extension
            )
        self.tables = tables
        self._frames = list(tables.frames)
        self._tables = tables.by_frame
        self._frame_probs = tables.frame_probs
        self._frame_cdf = tables.frame_cdf

    def _build_tables(
        self, placement, smear_radius_um, persistence_extension
    ) -> ImportanceTables:
        spec, characterization = self.spec, self.characterization
        universe = spec.spatial.universe
        frames = list(spec.temporal.support())
        corr = _correlation_table(
            characterization,
            universe,
            frames,
            placement,
            smear_radius_um,
            persistence_extension,
        )
        ids = np.asarray(universe, dtype=np.int64)
        lifetimes = np.array(
            [characterization.L(nid) for nid in universe], dtype=float
        )

        kept: List[int] = []
        by_frame: Dict[int, _FrameTable] = {}
        for i, t in enumerate(frames):
            cone = characterization.omega_nodes(t)
            cols = np.flatnonzero([nid in cone for nid in universe])
            if self.hard_lifetime_gate and t > 0:
                cols = cols[lifetimes[cols] >= self.beta * t]
            if not cols.size:
                continue
            # ``1 + α · Corr_i(g) · δ(L(g) >= β·i)``
            lifetime_ok = lifetimes[cols] >= self.beta * t
            terms = np.ones(cols.size)
            terms[lifetime_ok] += self.alpha * corr[i, cols[lifetime_ok]]
            omega = float(terms.sum())
            if omega <= 0.0:
                continue
            # Defensive mixture: blend the correlation-driven mass with the
            # uniform-over-cone mass so any success the pre-characterization
            # failed to spotlight still carries a bounded weight (classic
            # defensive importance sampling; keeps the estimator's tails in
            # check without biasing it).
            eps = self.defensive_epsilon
            probs = (1.0 - eps) * (terms / omega) + eps / cols.size
            kept.append(t)
            by_frame[t] = _FrameTable(
                nodes=ids[cols],
                terms=terms,
                probs=probs,
                omega=omega,
                cdf=inverse_cdf(probs, f"g_P|T at t={t}"),
            )
        if not kept:
            raise SamplingError("importance sampler has empty support")
        omega_total = float(sum(by_frame[t].omega for t in kept))
        eps = self.defensive_epsilon
        raw = np.array([by_frame[t].omega / omega_total for t in kept])
        frame_probs = (1.0 - eps) * raw + eps / len(kept)
        for table in by_frame.values():
            for array in (table.nodes, table.terms, table.probs):
                array.flags.writeable = False
        frame_probs.flags.writeable = False
        return ImportanceTables(
            frames=tuple(kept),
            by_frame=by_frame,
            frame_probs=frame_probs,
            frame_cdf=inverse_cdf(frame_probs, "g_T"),
        )

    # ------------------------------------------------------------------
    def g_T(self, t: int) -> float:  # noqa: N802 - paper notation
        """The marginal sampling pmf over timing distances (Fig. 8(a))."""
        if t not in self._tables:
            return 0.0
        return float(self._frame_probs[self._frames.index(t)])

    def g_P_given_T(self, centre: int, t: int) -> float:  # noqa: N802
        table = self._tables.get(t)
        if table is None:
            return 0.0
        hits = np.nonzero(table.nodes == centre)[0]
        return float(table.probs[hits[0]]) if hits.size else 0.0

    def support_size(self, t: int) -> int:
        table = self._tables.get(t)
        return len(table.nodes) if table else 0

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> AttackSample:
        idx = draw_index(self._frame_cdf, rng)
        t = self._frames[idx]
        table = self._tables[t]
        node_idx = draw_index(table.cdf, rng)
        centre = int(table.nodes[node_idx])
        radius = self.spec.radius.sample(rng)

        g_density = float(self._frame_probs[idx]) * float(table.probs[node_idx])
        f_density = self.spec.temporal.pmf(t) * self.spec.spatial.pmf(centre)
        return AttackSample(
            t=t, centre=centre, radius_um=radius, weight=f_density / g_density
        )
