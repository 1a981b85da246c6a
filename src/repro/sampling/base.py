"""Sampler protocol and the inverse-CDF draw the samplers share."""

from __future__ import annotations

import abc
import math
from bisect import bisect_right
from typing import List, Sequence

import numpy as np

from repro.attack.spec import AttackSample, AttackSpec
from repro.errors import SamplingError

#: ``Generator.choice``'s tolerance on ``|sum(p) - 1|``.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def inverse_cdf(probs: np.ndarray, what: str) -> List[float]:
    """The cumulative table ``Generator.choice(len(p), p=p)`` builds per call.

    ``probs`` gets the checks ``choice`` makes (finite, non-negative,
    summing to 1 within its tolerance), failing with
    :class:`SamplingError`; then ``choice``'s arithmetic: ``cumsum``, then
    division by the last entry.
    """
    if not np.isfinite(probs).all() or (probs < 0).any():
        raise SamplingError(
            f"{what}: probabilities must be finite and non-negative"
        )
    if abs(math.fsum(probs) - 1.0) > _SUM_ATOL:
        raise SamplingError(f"{what}: probabilities do not sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_index(cdf: Sequence[float], rng: np.random.Generator) -> int:
    """One ``rng.choice(len(p), p=p)`` draw from ``inverse_cdf(p)``.

    ``choice`` draws one ``rng.random()`` and returns
    ``cdf.searchsorted(u, side="right")``; this takes the same double and
    returns the same index.
    """
    return bisect_right(cdf, rng.random())


class Sampler(abc.ABC):
    """Draws attack parameters ``(t, p)`` and reports importance weights.

    Implementations must guarantee unbiasedness: for any event ``A`` inside
    the *effective* support (where the attack can possibly succeed),
    ``E_g[w · 1_A] = Pr_f[A]``.  Regions where ``g = 0`` but ``f > 0`` are
    only allowed if the success indicator is provably zero there — the
    cone argument of Observation 1.
    """

    def __init__(self, spec: AttackSpec):
        self.spec = spec

    @property
    def name(self) -> str:
        return type(self).__name__

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> AttackSample:
        """One draw, with ``weight = f(t,p) / g(t,p)``."""
