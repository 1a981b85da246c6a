"""Tests for the declarative campaign spec."""

import pytest

from repro.campaign import CampaignSpec, StoppingConfig, load_spec
from repro.errors import EvaluationError


class TestStoppingConfig:
    def test_defaults_are_fixed_mode(self):
        config = StoppingConfig()
        assert config.mode == "fixed"
        assert config.sample_cap == config.n_samples

    def test_adaptive_cap_is_max_samples(self):
        config = StoppingConfig(mode="risk", max_samples=7000)
        assert config.sample_cap == 7000

    def test_unknown_mode_rejected(self):
        with pytest.raises(EvaluationError):
            StoppingConfig(mode="vibes")

    def test_bad_budgets_rejected(self):
        with pytest.raises(EvaluationError):
            StoppingConfig(mode="fixed", n_samples=0)
        with pytest.raises(EvaluationError):
            StoppingConfig(mode="risk", max_samples=0)


class TestCampaignSpec:
    def test_json_roundtrip(self):
        spec = CampaignSpec(
            benchmark="read",
            variant="dual+parity",
            sampler="cone",
            window=30,
            seed=99,
            chunk_size=25,
            stopping=StoppingConfig(mode="ci", ci_width=0.03, max_samples=4000),
        )
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored == spec

    def test_load_spec_from_file(self, tmp_path):
        spec = CampaignSpec(seed=4)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert load_spec(path) == spec

    def test_load_spec_bad_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(EvaluationError):
            load_spec(path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("batch", True),
            ("batch", False),
            ("engine", "exact"),
            ("fidelity", "single"),
            ("calibration", None),
            ("calibration", "/x/cal.json"),
        ],
    )
    def test_legacy_key_is_dropped(self, key, value):
        """Retired fields load as if absent: ``batch`` went with the
        scalar engine loop, ``engine``/``fidelity`` (at their exact-engine
        values) and ``calibration`` with the SEU surrogate."""
        data = {**CampaignSpec(seed=4).to_dict(), key: value}
        assert CampaignSpec.from_dict(data) == CampaignSpec(seed=4)

    @pytest.mark.parametrize(
        "key,value",
        [("engine", "surrogate"), ("fidelity", "two_stage")],
    )
    def test_surrogate_selection_names_the_removed_engine(self, key, value):
        with pytest.raises(EvaluationError, match="surrogate engine"):
            CampaignSpec.from_dict({key: value})

    def test_missing_charac_cache_is_an_error_before_any_build(
        self, tmp_path, monkeypatch
    ):
        """A named pre-characterization that does not exist must fail
        naming the path, not silently re-characterize."""
        import repro.core.context as context_module

        def no_build(*args, **kwargs):
            raise AssertionError("context built despite the missing cache")

        monkeypatch.setattr(context_module, "build_context", no_build)
        missing = tmp_path / "nope.json"
        spec = CampaignSpec(charac_cache=str(missing))
        with pytest.raises(EvaluationError, match="nope.json"):
            spec.build_runtime()

    def test_invalid_fields_rejected(self):
        with pytest.raises(EvaluationError):
            CampaignSpec(chunk_size=0)
        with pytest.raises(EvaluationError):
            CampaignSpec(sampler="quantum")


class TestChunkPlan:
    def test_plan_covers_cap_exactly(self):
        spec = CampaignSpec(
            chunk_size=30,
            stopping=StoppingConfig(mode="fixed", n_samples=100),
        )
        sizes = spec.chunk_sizes()
        assert sizes == (30, 30, 30, 10)
        assert sum(sizes) == 100

    def test_plan_is_pure_function_of_spec(self):
        spec = CampaignSpec(
            chunk_size=7,
            stopping=StoppingConfig(mode="risk", max_samples=50),
        )
        assert spec.chunk_sizes() == spec.chunk_sizes()
        assert sum(spec.chunk_sizes()) == 50
