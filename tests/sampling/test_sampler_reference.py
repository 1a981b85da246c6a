"""Reference oracle for the table-driven samplers.

``ImportanceSampler`` builds its tables once, on the cells they serve,
and draws each level through an inverse CDF.  The reference below is the
direct form it replaces: the correlation field as a dict over the whole
netlist (persistence extension, then a smear through every correlated
node's ``within_radius``), one ``_term`` per node, and ``rng.choice``
draws.  Tables must match byte for byte, densities exactly, and draws
sample for sample with the generator left in the same state.  The SCOAP
sampler's draws are checked against ``rng.choice`` on its own tables.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_attack_spec
from repro.attack.distributions import SpatialDistribution
from repro.attack.spec import AttackSample, AttackSpec
from repro.errors import SamplingError
from repro.sampling import ImportanceSampler, ScoapConeSampler
from repro.sampling.base import draw_index, inverse_cdf

from tests.strategies import importance_problems


def _extend_persistent(correlations, characterization, frames):
    threshold = (
        characterization.config.memory_lifetime_frac
        * characterization.config.lifetime_horizon
    )
    best: Dict[int, float] = {}
    for (nid, _frame), value in correlations.items():
        if characterization.L(nid) >= threshold and value > best.get(nid, 0.0):
            best[nid] = value
    extended = dict(correlations)
    for nid, value in best.items():
        frames_of = characterization.cones.depths_of(nid)
        for frame in frames:
            if frame >= 1 and frame in frames_of:
                key = (nid, frame)
                if extended.get(key, 0.0) < value:
                    extended[key] = value
    return extended


def _smear_correlations(correlations, placement, radius_um):
    smeared = dict(correlations)
    neighbour_cache: Dict[int, list] = {}
    for (nid, frame), value in correlations.items():
        if value <= 0.0:
            continue
        if nid not in neighbour_cache:
            neighbour_cache[nid] = placement.within_radius(nid, radius_um)
        for other in neighbour_cache[nid]:
            key = (other, frame)
            if smeared.get(key, 0.0) < value:
                smeared[key] = value
    return smeared


class ReferenceImportance:
    """The dict-built importance sampler with ``rng.choice`` draws."""

    def __init__(
        self,
        spec,
        characterization,
        alpha=50.0,
        beta=1.0,
        hard_lifetime_gate=True,
        placement=None,
        smear_radius_um=None,
        persistence_extension=True,
        defensive_epsilon=0.15,
    ):
        self.spec = spec
        self.characterization = characterization
        self.alpha = alpha
        self.beta = beta
        corr = characterization.signatures.correlations
        if persistence_extension:
            corr = _extend_persistent(
                corr, characterization, frames=list(spec.temporal.support())
            )
        if placement is not None:
            if smear_radius_um is None:
                smear_radius_um = 0.5 * float(np.mean(spec.radius.radii_um))
            corr = _smear_correlations(corr, placement, smear_radius_um)
        self.corr = corr
        universe = set(spec.spatial.universe)
        eps = defensive_epsilon
        self.frames: List[int] = []
        self.tables: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, float]] = {}
        omegas: List[float] = []
        for t in spec.temporal.support():
            nodes = sorted(characterization.omega_nodes(t) & universe)
            if hard_lifetime_gate and t > 0:
                nodes = [
                    nid for nid in nodes if characterization.L(nid) >= beta * t
                ]
            if not nodes:
                continue
            terms = np.array([self._term(nid, t) for nid in nodes], dtype=float)
            omega = float(terms.sum())
            if omega <= 0.0:
                continue
            probs = (1.0 - eps) * (terms / omega) + eps / len(nodes)
            self.frames.append(t)
            self.tables[t] = (np.asarray(nodes, dtype=np.int64), terms, probs, omega)
            omegas.append(omega)
        if not self.frames:
            raise SamplingError("importance sampler has empty support")
        total = float(sum(omegas))
        raw = np.array([self.tables[t][3] / total for t in self.frames])
        self.frame_probs = (1.0 - eps) * raw + eps / len(self.frames)

    def _term(self, nid, frame):
        lifetime_ok = self.characterization.L(nid) >= self.beta * frame
        corr = self.corr.get((nid, frame), 0.0)
        return 1.0 + (self.alpha * corr if lifetime_ok else 0.0)

    def g_T(self, t):  # noqa: N802
        if t not in self.tables:
            return 0.0
        return float(self.frame_probs[self.frames.index(t)])

    def g_P_given_T(self, centre, t):  # noqa: N802
        if t not in self.tables:
            return 0.0
        nodes, _terms, probs, _omega = self.tables[t]
        hits = np.nonzero(nodes == centre)[0]
        return float(probs[hits[0]]) if hits.size else 0.0

    def sample(self, rng):
        return _choice_sample(
            self.spec,
            rng,
            self.frames,
            self.frame_probs,
            lambda t: (self.tables[t][0], self.tables[t][2]),
        )


def _choice_sample(spec, rng, frames, frame_probs, table_of):
    """One two-level draw through ``rng.choice``, as the samplers drew."""
    idx = int(rng.choice(len(frames), p=frame_probs))
    t = frames[idx]
    nodes, probs = table_of(t)
    node_idx = int(rng.choice(len(nodes), p=probs))
    centre = int(nodes[node_idx])
    radius = spec.radius.sample(rng)
    g_density = float(frame_probs[idx]) * float(probs[node_idx])
    f_density = spec.temporal.pmf(t) * spec.spatial.pmf(centre)
    return AttackSample(
        t=t, centre=centre, radius_um=radius, weight=f_density / g_density
    )


def _same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_matches_reference(spec, characterization, n_draws=200, seed=0, **kwargs):
    try:
        reference = ReferenceImportance(spec, characterization, **kwargs)
    except SamplingError:
        with pytest.raises(SamplingError):
            ImportanceSampler(spec, characterization, **kwargs)
        return
    sampler = ImportanceSampler(spec, characterization, **kwargs)
    assert not hasattr(sampler, "_corr")
    assert sampler._frames == reference.frames
    _same_array(sampler._frame_probs, reference.frame_probs)
    assert sorted(sampler._tables) == sorted(reference.tables)
    for t, (nodes, terms, probs, omega) in reference.tables.items():
        table = sampler._tables[t]
        _same_array(table.nodes, nodes)
        _same_array(table.terms, terms)
        _same_array(table.probs, probs)
        assert type(table.omega) is float and table.omega == omega

    frames = list(spec.temporal.support())
    probe_frames = frames + [frames[0] - 1, frames[-1] + 1]
    centres = list(spec.spatial.universe) + [-1]
    for t in probe_frames:
        assert sampler.g_T(t) == reference.g_T(t)
        for centre in centres:
            assert sampler.g_P_given_T(centre, t) == reference.g_P_given_T(
                centre, t
            )

    rng = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    for _ in range(n_draws):
        assert sampler.sample(rng) == reference.sample(rng_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.fixture(scope="module")
def write_spec(small_context):
    return default_attack_spec(small_context, window=10)


class TestWriteBenchmark:
    """The write-benchmark context under every sampler option."""

    @pytest.mark.parametrize(
        "options",
        [
            {"placement": True},
            {"placement": None},
            {"placement": True, "persistence_extension": False},
            {"placement": None, "persistence_extension": False},
            {"placement": True, "hard_lifetime_gate": False},
            {"placement": True, "alpha": 5.0, "beta": 0.5},
            {"placement": True, "smear_radius_um": 5.0},
            {"placement": True, "defensive_epsilon": 0.0},
        ],
        ids=[
            "default",
            "no-placement",
            "no-persistence",
            "no-placement-no-persistence",
            "soft-gate",
            "alpha-beta",
            "smear-5um",
            "no-defensive",
        ],
    )
    def test_tables_densities_and_draws(self, small_context, write_spec, options):
        kwargs = dict(options)
        if kwargs["placement"]:
            kwargs["placement"] = small_context.placement
        assert_matches_reference(
            write_spec, small_context.characterization, n_draws=400, **kwargs
        )

    def test_whole_die_centred_window(self, small_context):
        """Negative (fanout-side) frames and a universe over the whole die."""
        spec = default_attack_spec(
            small_context, window=9, subblock_fraction=1.0, temporal_centre=3
        )
        assert min(spec.temporal.support()) < 0
        assert_matches_reference(
            spec,
            small_context.characterization,
            placement=small_context.placement,
            seed=3,
        )

    def test_universe_with_input_nodes(self, small_context, write_spec):
        netlist = small_context.netlist
        ch = small_context.characterization
        cone_inputs = sorted(
            nid
            for nid in netlist.inputs.values()
            if any(nid in ch.omega_nodes(t) for t in write_spec.temporal.support())
        )
        assert cone_inputs
        spec = AttackSpec(
            technique=write_spec.technique,
            temporal=write_spec.temporal,
            spatial=SpatialDistribution(
                list(write_spec.spatial.universe) + cone_inputs
            ),
            radius=write_spec.radius,
        )
        for placement in (small_context.placement, None):
            assert_matches_reference(spec, ch, placement=placement, seed=5)
        sampler = ImportanceSampler(spec, ch, placement=small_context.placement)
        assert any(
            set(cone_inputs) & set(table.nodes.tolist())
            for table in sampler._tables.values()
        )

    def test_concentrated_spatial_aim(self, small_context):
        spec = default_attack_spec(small_context, window=10, concentration=0.6)
        assert spec.spatial.targets
        assert_matches_reference(
            spec,
            small_context.characterization,
            placement=small_context.placement,
            seed=9,
        )


class TestRandomProblems:
    @settings(max_examples=60, deadline=None)
    @given(
        problem=importance_problems(),
        use_placement=st.booleans(),
        persistence_extension=st.booleans(),
        hard_lifetime_gate=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference(
        self, problem, use_placement, persistence_extension, hard_lifetime_gate, seed
    ):
        spec, characterization, placement = problem
        assert_matches_reference(
            spec,
            characterization,
            n_draws=40,
            seed=seed,
            placement=placement if use_placement else None,
            persistence_extension=persistence_extension,
            hard_lifetime_gate=hard_lifetime_gate,
        )


class TestScoapDraws:
    def test_draws_match_choice(self, small_context, write_spec):
        sampler = ScoapConeSampler(write_spec, small_context.characterization)
        rng = np.random.default_rng(4)
        rng_ref = np.random.default_rng(4)
        for _ in range(400):
            expected = _choice_sample(
                write_spec,
                rng_ref,
                sampler._frames,
                sampler._frame_probs,
                lambda t: (sampler._nodes[t], sampler._probs[t]),
            )
            assert sampler.sample(rng) == expected
            assert rng.bit_generator.state == rng_ref.bit_generator.state


class _FixedUniform:
    """A stand-in generator whose ``random()`` returns a chosen double."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestInverseCdf:
    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=40,
        ).filter(lambda w: sum(w) > 0),
        seed=st.integers(0, 2**16),
    )
    def test_same_index_and_state_as_choice(self, weights, seed):
        probs = np.asarray(weights) / np.sum(weights)
        cdf = inverse_cdf(probs, "test")
        assert cdf[-1] == 1.0  # every u in [0, 1) lands on an index
        rng = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        for _ in range(20):
            assert draw_index(cdf, rng) == int(rng_ref.choice(len(probs), p=probs))
            assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75])
    def test_zero_mass_entries_never_drawn(self, u):
        """A double equal to a CDF entry moves past it, as
        ``searchsorted(side="right")`` does, so an entry of probability 0
        is never drawn, not even at ``u == 0``."""
        probs = np.array([0.0, 0.25, 0.0, 0.25, 0.0, 0.5, 0.0])
        cdf = inverse_cdf(probs, "test")
        index = draw_index(cdf, _FixedUniform(u))
        assert probs[index] > 0
        assert index == int(np.searchsorted(np.array(cdf), u, side="right"))
