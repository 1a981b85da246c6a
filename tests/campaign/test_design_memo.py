"""The per-process design memo behind ``CampaignSpec.build_context``.

A design (netlist, placement, golden run, characterization, gate-level
tables) is built once per process and shared by every engine on it:

* the key is content: a characterization file rewritten in place is a
  miss, the same bytes at another path a hit, and variants never share;
* a build that raises leaves no entry, and concurrent builds of one key
  run once;
* the shared part is never written: a campaign leaves its digest as it
  was, and its numpy arrays are read-only;
* engines sharing it give the records separate processes give.
"""

import dataclasses
import enum
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.context as context_module
from repro.campaign import CampaignSpec, RunStore, StoppingConfig
from repro.campaign.spec import DESIGN_MEMO_SIZE, clear_design_memo
from repro.fleet import FleetWorker
from repro.fleet.worker import RUNTIME_CACHE_SIZE
from repro.precharac.persistence import save_characterization
from repro.service import EvaluationService
from repro.service.jobs import STATE_DONE

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def charac_file(tmp_path_factory, small_context):
    """A (reduced) characterization of write/none, saved as a file."""
    path = tmp_path_factory.mktemp("charac") / "write.json"
    save_characterization(small_context.characterization, path)
    return path


@pytest.fixture()
def build_calls(monkeypatch):
    """Variants passed to the uncached builder, one entry per build."""
    calls = []
    real = context_module.build_context

    def counting(benchmark, *args, **kwargs):
        calls.append(kwargs["mpu_variant"].name)
        return real(benchmark, *args, **kwargs)

    monkeypatch.setattr(context_module, "build_context", counting)
    return calls


def _spec(charac_file, **fields):
    fields.setdefault("window", 10)
    return CampaignSpec(charac_cache=str(charac_file), **fields)


class TestKey:
    def test_repeat_builds_share_one_design(self, charac_file, build_calls):
        first = _spec(charac_file).build_context()
        second = _spec(charac_file, seed=9, impact_cycles=2).build_context()
        assert build_calls == ["none"]
        assert second.design is first.design
        assert second.soc is not first.soc
        assert second.simulator is not first.simulator

    def test_file_rewritten_in_place_is_a_miss(
        self, tmp_path, charac_file, build_calls
    ):
        path = tmp_path / "charac.json"
        path.write_bytes(charac_file.read_bytes())
        first = _spec(path).build_context()
        # Same content, other bytes: the key is the file's sha256.
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        second = _spec(path).build_context()
        assert build_calls == ["none", "none"]
        assert second.design is not first.design

    def test_same_bytes_at_another_path_is_a_hit(
        self, tmp_path, charac_file, build_calls
    ):
        copy = tmp_path / "elsewhere" / "copy.json"
        copy.parent.mkdir()
        copy.write_bytes(charac_file.read_bytes())
        first = _spec(charac_file).build_context()
        second = _spec(copy).build_context()
        assert build_calls == ["none"]
        assert second.design is first.design

    def test_variants_never_share_an_entry(self, monkeypatch, small_context):
        calls = []

        def stub(benchmark, characterize=True, mpu_variant=None, **kwargs):
            calls.append(mpu_variant.name)
            return SimpleNamespace(
                design=dataclasses.replace(
                    small_context.design, mpu_variant=mpu_variant
                )
            )

        monkeypatch.setattr(context_module, "build_context", stub)
        contexts = {
            variant: CampaignSpec(variant=variant).build_context()
            for variant in ("none", "parity", "tmr", "none", "parity")
        }
        assert calls == ["none", "none+parity", "tmr"]
        designs = {id(ctx.design) for ctx in contexts.values()}
        assert len(designs) == 3
        assert contexts["parity"].mpu_variant.name == "none+parity"

    def test_a_build_that_raises_leaves_no_entry(
        self, monkeypatch, charac_file
    ):
        calls = []
        real = context_module.build_context

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("elaboration failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(context_module, "build_context", flaky)
        with pytest.raises(RuntimeError, match="elaboration failed"):
            _spec(charac_file).build_context()
        _spec(charac_file).build_context()
        _spec(charac_file).build_context()
        assert len(calls) == 2

    def test_two_threads_building_one_key_build_once(
        self, monkeypatch, small_context
    ):
        calls = []
        entered, release = threading.Event(), threading.Event()

        def slow_stub(benchmark, characterize=True, mpu_variant=None, **kwargs):
            calls.append(1)
            entered.set()
            release.wait(5)
            return SimpleNamespace(design=small_context.design)

        monkeypatch.setattr(context_module, "build_context", slow_stub)
        contexts = []
        threads = [
            threading.Thread(
                target=lambda seed=seed: contexts.append(
                    CampaignSpec(seed=seed).build_context()
                )
            )
            for seed in (1, 2)
        ]
        threads[0].start()
        assert entered.wait(5)
        threads[1].start()
        time.sleep(0.1)  # the second build now waits on the first
        release.set()
        for thread in threads:
            thread.join(5)
        assert len(calls) == 1
        assert len(contexts) == 2
        assert contexts[0].design is contexts[1].design
        assert contexts[0].soc is not contexts[1].soc

    def test_memo_is_bounded(self, monkeypatch, small_context):
        from repro.campaign import spec as spec_module

        def stub(benchmark, characterize=True, mpu_variant=None, **kwargs):
            return SimpleNamespace(design=small_context.design)

        monkeypatch.setattr(context_module, "build_context", stub)
        names = ("write", "read", "dma")
        variants = ("none", "parity", "tmr", "dual")
        for benchmark in names:
            for variant in variants:
                CampaignSpec(benchmark=benchmark, variant=variant).build_context()
        assert len(names) * len(variants) > DESIGN_MEMO_SIZE
        assert len(spec_module._DESIGNS) == DESIGN_MEMO_SIZE


# ----------------------------------------------------------------------
# the shared design is never written
# ----------------------------------------------------------------------
def _walk(obj, visit, memos: bool, seen=None):
    """Call ``visit`` on every object reachable from ``obj``, once each.

    Dataclass fields marked ``compare=False`` (derived memos, such as the
    placement's footprints) are skipped unless ``memos``.
    """
    seen = set() if seen is None else seen
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, (str, bytes, int, float, bool, type(None))):
            visit(item)
            continue
        if id(item) in seen or isinstance(item, (type, enum.Enum)):
            continue
        seen.add(id(item))
        visit(item)
        if isinstance(item, np.ndarray) or callable(item):
            continue
        if isinstance(item, dict):
            for key, value in reversed(list(item.items())):
                stack.extend((value, key))
        elif isinstance(item, (list, tuple)):
            stack.extend(reversed(item))
        elif isinstance(item, (set, frozenset)):
            stack.extend(sorted(item, key=repr, reverse=True))
        elif dataclasses.is_dataclass(item):
            stack.extend(
                getattr(item, f.name)
                for f in reversed(dataclasses.fields(item))
                if memos or f.compare
            )
        elif hasattr(item, "__dict__"):
            stack.extend(value for _, value in sorted(vars(item).items(), reverse=True))


def design_digest(design) -> str:
    digest = hashlib.sha256()

    def visit(item):
        if isinstance(item, np.ndarray):
            digest.update(f"{item.dtype}{item.shape}".encode())
            digest.update(item.tobytes())
        elif isinstance(item, (dict, list, tuple, set, frozenset)):
            digest.update(f"{type(item).__name__}{len(item)}".encode())
        elif isinstance(item, (str, bytes, int, float, bool, type(None))):
            digest.update(repr(item).encode())
        else:
            digest.update(type(item).__name__.encode())

    _walk(design, visit, memos=False)
    return digest.hexdigest()


def writable_arrays(obj):
    found = []

    def visit(item):
        if isinstance(item, np.ndarray) and item.flags.writeable:
            found.append(item)

    _walk(obj, visit, memos=True)
    return found


@pytest.mark.parametrize("impact_cycles", [1, 2])
def test_a_campaign_leaves_the_shared_design_unchanged(
    charac_file, impact_cycles
):
    spec = _spec(charac_file, impact_cycles=impact_cycles)
    engine, sampler = spec.build_runtime()
    design = engine.context.design
    before = design_digest(design)
    engine.evaluate(sampler, 300, seed=np.random.SeedSequence(3))
    other, other_sampler = spec.build_runtime()
    assert other.context.design is design
    other.evaluate(other_sampler, 100, seed=np.random.SeedSequence(4))
    assert design_digest(design) == before
    assert writable_arrays(design) == []
    assert writable_arrays(sampler.tables) == []
    assert other_sampler.tables is sampler.tables


# ----------------------------------------------------------------------
# engines sharing one design
# ----------------------------------------------------------------------
def _log_lines(run_dir: Path):
    """``log.jsonl`` records with the (timing) ``metrics`` key stripped."""
    lines = []
    for line in (run_dir / "log.jsonl").read_text().splitlines():
        payload = json.loads(line)
        payload.pop("metrics", None)
        lines.append(payload)
    return lines


_RUN_IN_A_FRESH_PROCESS = """
import sys
from repro.campaign import CampaignRunner, CampaignSpec, RunStore
spec = CampaignSpec.from_json(open(sys.argv[1]).read())
store = RunStore.create(sys.argv[2], spec, run_id=sys.argv[3])
CampaignRunner(spec, store=store, n_workers=1).run()
"""


@pytest.mark.slow
def test_concurrent_jobs_on_one_design_match_separate_processes(
    tmp_path, charac_file, build_calls, monkeypatch
):
    from repro.core.engine import CrossLevelEngine

    spans = []  # (thread, design, start, end) of every chunk evaluation
    evaluate = CrossLevelEngine.evaluate

    def timed(engine, *args, **kwargs):
        start = time.perf_counter()
        try:
            return evaluate(engine, *args, **kwargs)
        finally:
            spans.append((threading.get_ident(), id(engine.context.design),
                          start, time.perf_counter()))

    monkeypatch.setattr(CrossLevelEngine, "evaluate", timed)
    specs = [
        _spec(charac_file, seed=seed, impact_cycles=cycles, chunk_size=40,
              stopping=StoppingConfig(n_samples=160))
        for seed, cycles in ((31, 1), (32, 2))
    ]
    service = EvaluationService(
        tmp_path / "runs", max_concurrency=2, campaign_workers=1
    )
    service.start()
    try:
        jobs = [service.submit(spec)[0] for spec in specs]
        deadline = time.monotonic() + 120
        while not all(service.get_job(j.job_id).terminal for j in jobs):
            assert time.monotonic() < deadline, "jobs never finished"
            time.sleep(0.05)
    finally:
        service.stop()
    assert [service.get_job(j.job_id).state for j in jobs] == [STATE_DONE] * 2
    assert build_calls == ["none"]  # both jobs ran on one memoized design
    threads = {thread for thread, _, _, _ in spans}
    assert len(threads) == 2 and len({design for _, design, _, _ in spans}) == 1
    first, second = (
        [(a, b) for thread, _, a, b in spans if thread == t] for t in threads
    )
    assert any(a < d and c < b for a, b in first for c, d in second), (
        "the two jobs never evaluated at the same time"
    )

    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for index, (spec, job) in enumerate(zip(specs, jobs)):
        spec_file = tmp_path / f"spec{index}.json"
        spec_file.write_text(spec.to_json())
        subprocess.run(
            [sys.executable, "-c", _RUN_IN_A_FRESH_PROCESS, str(spec_file),
             str(tmp_path / "solo"), f"solo{index}"],
            check=True, env=env, cwd=REPO, timeout=120,
        )
        alone = _log_lines(tmp_path / "solo" / f"solo{index}")
        shared = _log_lines(tmp_path / "runs" / job.run_id)
        assert len(alone) == 4
        assert shared == alone
        solo = RunStore(tmp_path / "solo" / f"solo{index}")
        assert (
            RunStore(tmp_path / "runs" / job.run_id).read_checkpoint()["ssf"]
            == solo.read_checkpoint()["ssf"]
        )


# ----------------------------------------------------------------------
# the fleet worker's runtime cache
# ----------------------------------------------------------------------
def test_fleet_worker_keeps_at_most_the_bound(charac_file):
    worker = FleetWorker(client=None)
    specs = [
        _spec(charac_file, seed=seed) for seed in range(RUNTIME_CACHE_SIZE + 2)
    ]
    first_engine = None
    for spec in specs:
        engine, sampler, _, cache_hit = worker._runtime_for(
            {"spec": spec.to_dict()}
        )
        assert not cache_hit
        first_engine = first_engine or engine
    assert len(worker._runtimes) == RUNTIME_CACHE_SIZE
    # The first spec was evicted: its next lease rebuilds it from the
    # design memo, and its records are those of a fresh process's build.
    engine, sampler, _, cache_hit = worker._runtime_for(
        {"spec": specs[0].to_dict()}
    )
    assert not cache_hit and engine is not first_engine
    assert engine.context.design is first_engine.context.design
    records = engine.evaluate(sampler, 60, seed=np.random.SeedSequence(8)).records
    clear_design_memo()
    fresh, fresh_sampler = specs[0].build_runtime()
    assert fresh.context.design is not engine.context.design
    expected = fresh.evaluate(
        fresh_sampler, 60, seed=np.random.SeedSequence(8)
    ).records
    assert records == expected
    _, _, _, cache_hit = worker._runtime_for({"spec": specs[0].to_dict()})
    assert cache_hit
