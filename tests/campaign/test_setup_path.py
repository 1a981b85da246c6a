"""One setup path from spec to runtime.

``CampaignSpec.build_runtime`` is where a spec's names and artifact paths
become an engine.  Where the characterization comes from (computed in
process, a ``characterize --out`` file, or an artifact root through
``resolve_artifacts``) must not move a single record, and a fleet worker
with ``--artifacts-dir`` characterizes each design once, not once per
campaign.
"""

import dataclasses

import numpy as np
import pytest

from repro.campaign import CampaignSpec
from repro.cli import main
from repro.fleet import FleetWorker
from repro.sampling import SAMPLERS
from repro.service.artifacts import ArtifactStore, resolve_artifacts


@pytest.fixture(scope="module")
def charac_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("charac") / "write.json"
    assert main(["characterize", "--benchmark", "write",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def artifact_store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("artifacts"))


def _records(spec):
    engine, sampler = spec.build_runtime()
    result = engine.evaluate(sampler, 60, seed=np.random.SeedSequence(17))
    return result.records


@pytest.mark.slow
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_three_characterization_sources_give_identical_records(
    sampler, charac_file, artifact_store
):
    spec = CampaignSpec(
        benchmark="write", variant="none", sampler=sampler, window=20
    )
    in_process = _records(spec)
    from_file = _records(dataclasses.replace(spec, charac_cache=charac_file))
    resolved = resolve_artifacts(spec, artifact_store)
    assert resolved.charac_cache != charac_file
    from_root = _records(resolved)
    assert in_process == from_file
    assert in_process == from_root


@pytest.mark.slow
def test_fleet_worker_characterizes_each_design_once(tmp_path, monkeypatch):
    """Two grants that differ only in seed are two runtimes (two spec
    hashes) but one design: the worker's artifact root serves the
    second build the first one's characterization."""
    import repro.core.context as context_module

    calls = []
    real = context_module.precharacterize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(context_module, "precharacterize", counting)
    worker = FleetWorker(client=None, artifacts_dir=str(tmp_path / "art"))
    for seed in (1, 2):
        spec = CampaignSpec(sampler="random", window=8, seed=seed)
        _, _, used, cache_hit = worker._runtime_for({"spec": spec.to_dict()})
        assert not cache_hit
        assert used.charac_cache is not None
    assert len(calls) == 1
