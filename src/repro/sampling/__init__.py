"""Sampling strategies for SSF estimation (Sections 3.3 and 4).

Three strategies, matching the paper's Fig. 9 comparison:

* :class:`RandomSampler` — draw directly from the nominal attack
  distribution ``f_{T,P}`` (the baseline).
* :class:`FaninConeSampler` — restrict to the responding signals' cones
  (Observation 1 only).
* :class:`ImportanceSampler` — the paper's two-step ``g_{T,P} = g_T ·
  g_{P|T}`` built from the full pre-characterization (cones, bit-flip
  correlation, lifetime gating).

Every sample carries the exact importance weight ``f/g``, so all three
estimators are unbiased for SSF; they differ only in variance.
"""

from repro.errors import SamplingError
from repro.sampling.base import Sampler
from repro.sampling.random_sampler import RandomSampler
from repro.sampling.cone_sampler import FaninConeSampler
from repro.sampling.importance import ImportanceSampler
from repro.sampling.scoap_sampler import ScoapConeSampler
from repro.sampling.estimator import SsfEstimator

#: The sampler names a campaign selects from (``CampaignSpec.sampler``).
SAMPLERS = ("random", "cone", "importance")


def make_sampler(name: str, attack, context, tables=None) -> Sampler:
    """The ``name`` sampler over ``attack``.

    ``cone`` and ``importance`` read the context's characterization;
    ``importance`` also its placement, unless ``tables`` hands it the
    :class:`~repro.sampling.importance.ImportanceTables` an earlier
    ``importance`` sampler over an equal attack spec on the same design
    built.
    """
    if name == "random":
        return RandomSampler(attack)
    if name == "cone":
        return FaninConeSampler(attack, context.characterization)
    if name == "importance":
        return ImportanceSampler(
            attack,
            context.characterization,
            placement=context.placement,
            tables=tables,
        )
    raise SamplingError(f"unknown sampler {name!r}")


__all__ = [
    "Sampler",
    "RandomSampler",
    "FaninConeSampler",
    "ImportanceSampler",
    "ScoapConeSampler",
    "SsfEstimator",
    "SAMPLERS",
    "make_sampler",
]
