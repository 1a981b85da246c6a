"""The benchmark's workloads: specs from a seed, warm state, one run each.

Every workload pins every campaign field itself (no CLI defaults) and
uses ``benchmark=write``, ``variant=none``, the importance sampler, the
radiation transient of the default attack spec, ``window=50``,
``subblock_fraction=0.125`` and one campaign worker.

* ``cold-start``: the default ``repro campaign run`` from nothing —
  full precharacterization, then 1000 samples in chunks of 50.  The
  context build is the largest fixed cost; chunks this small put about
  1.6 samples in each injection-cycle group, so sampling runs the
  small-batch gate-level path.
* ``warm-batch``: 8000 samples in chunks of 1000 against a filled
  characterization cache and cycle-baseline store.  Full cycle groups
  run the columnar kernel; precharacterization only loads, so this is
  the control for any context-build change.
* ``service-multicycle``: a 4-point sweep (``impact_cycles`` in {2, 3}
  x 2 seeds, 200 samples each, chunks of 50) through ``SweepRunner``
  (polling every :data:`SWEEP_POLL_S`) against an in-process service
  with one job thread.  It runs the scalar
  multi-cycle continuation, never the analytical path, and is the only
  workload that crosses the service, HTTP, job-store and sweep layers.
  The first point writes the cycle baselines, the others read them.

The functions here run inside the workload's own process (see
``run.py``); nothing is timed outside :func:`run_workload`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import resource
import shutil
import statistics
import time
from typing import Dict, List, Optional, Tuple

from hostspeed import HostSpeed

WORKLOADS = ("cold-start", "warm-batch", "service-multicycle")

#: The seed whose outputs ``pins.json`` pins.
DEFAULT_SEED = 0

#: Budgets per mode: samples per campaign, chunk size, and how many
#: context builds time ``setup_s`` on the warm workloads.
SIZES = {
    "full": {
        "cold-start": {"samples": 1000, "chunk": 50, "setups": 1},
        "warm-batch": {"samples": 8000, "chunk": 1000, "setups": 15},
        "service-multicycle": {"samples": 200, "chunk": 50, "setups": 15},
    },
    "quick": {
        "cold-start": {"samples": 60, "chunk": 20, "setups": 1},
        "warm-batch": {"samples": 300, "chunk": 100, "setups": 2},
        "service-multicycle": {"samples": 20, "chunk": 10, "setups": 2},
    },
}

#: Logged samples per campaign replayed through the scalar reference.
REPLAYED = 6

#: Seconds between the sweep's status polls of its member jobs (the CLI's
#: ``sweep run --poll`` defaults to 0.2).  Polls follow wall time, not
#: work, and each one competes with the job thread for the interpreter:
#: at 0.2 s they cost about a tenth of the run, so their count, and with
#: it the verdict, followed host speed beyond what normalization cancels.
SWEEP_POLL_S = 1.0

#: Samples (fixed seed) that fill the warm cycle-baseline store.
FILL_SAMPLES = 3000
FILL_SEED = 99


def campaign_seed(seed: int) -> int:
    return 2024 + 2 * seed


def base_fields(mode: str, workload: str, seed: int) -> dict:
    size = SIZES[mode][workload]
    return {
        "benchmark": "write",
        "variant": "none",
        "sampler": "importance",
        "window": 50,
        "subblock_fraction": 0.125,
        "impact_cycles": 1,
        "seed": campaign_seed(seed),
        "chunk_size": size["chunk"],
        "engine": "exact",
        "fidelity": "single",
        "charac_cache": None,
        "calibration": None,
        "trace": False,
        "batch": True,
        "telemetry": True,
        "baseline_store": None,
        "stopping": {"mode": "fixed", "n_samples": size["samples"]},
    }


def campaign_spec(fields: dict):
    from repro.campaign.spec import CampaignSpec

    return CampaignSpec.from_dict(fields)


def sweep_spec(mode: str, seed: int):
    from repro.sweep.spec import SweepSpec

    base = base_fields(mode, "service-multicycle", seed)
    return SweepSpec(
        name="perfbench-multicycle",
        base=base,
        axes={
            "impact_cycles": (2, 3),
            "seed": (campaign_seed(seed), campaign_seed(seed) + 1),
        },
    )


# ----------------------------------------------------------------------
# warm state (built once per checkout and code version, off the clock)
# ----------------------------------------------------------------------
def prepare_state(state: pathlib.Path) -> None:
    """Precharacterization artifact plus a filled cycle-baseline store.

    Built by this checkout's own code into ``state``; each run copies it
    into a fresh directory, so runs never write to it.
    """
    from repro.campaign.runner import CampaignRunner
    from repro.service.artifacts import ArtifactStore, ensure_precharac

    artifacts = ArtifactStore(state / "artifacts")
    precharac, _ = ensure_precharac(artifacts, "write", "none")
    fields = base_fields("full", "warm-batch", 0)
    fields.update(
        seed=FILL_SEED,
        charac_cache=str(precharac),
        baseline_store=str(state / "baselines"),
        stopping={"mode": "fixed", "n_samples": FILL_SAMPLES},
    )
    CampaignRunner(campaign_spec(fields), n_workers=1).run()


def _precharac_file(root: pathlib.Path) -> pathlib.Path:
    return next((root / "precharac").glob("*.json"))


def _count_baselines(root: pathlib.Path) -> int:
    return len(list((root / "baseline").glob("*.json")))


# ----------------------------------------------------------------------
# one workload run
# ----------------------------------------------------------------------
class Clock:
    """(start, end) perf_counter marks of the timed intervals of one run."""

    def __init__(self):
        self.setups: List[Tuple[float, float]] = []
        self.verdict: Tuple[float, float] = (0.0, 0.0)
        self.samples = 0


def _timed_build(spec, clock: Clock):
    start = time.perf_counter()
    runtime = spec.build_runtime()
    clock.setups.append((start, time.perf_counter()))
    return runtime


def _run_campaign(spec, runs: pathlib.Path, run_id: str, clock: Clock):
    """Spec handed over -> verdict, with the set-up timed on its own."""
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.store import RunStore

    start = time.perf_counter()
    engine, sampler = _timed_build(spec, clock)
    store = RunStore.create(runs, spec, run_id=run_id)
    result = CampaignRunner(
        spec, store=store, engine=engine, sampler=sampler, n_workers=1
    ).run()
    clock.verdict = (start, time.perf_counter())
    clock.samples = result.estimator.n_samples
    return store, (engine, sampler)


def run_workload(workload: str, mode: str, seed: int, work: pathlib.Path,
                 state: pathlib.Path, recorder, pins: dict) -> dict:
    """Run one workload in this process and check its outputs.

    ``recorder`` is a :class:`spans.SpanRecorder` (timed for the traced
    run, counting-only otherwise); its root span is the measured region.
    ``pins`` holds the default seed's expected outputs (``pins.json``).
    """
    size = SIZES[mode][workload]
    runs = work / "runs"
    runs.mkdir(parents=True)
    clock = Clock()
    campaigns: List[dict] = []
    baseline_root: Optional[pathlib.Path] = None
    service_events: List[tuple] = []
    speed = HostSpeed()
    speed.start()

    if workload == "cold-start":
        spec = campaign_spec(base_fields(mode, workload, seed))
        recorder.open_root()
        store, runtime = _run_campaign(spec, runs, "cold", clock)
        measured = recorder.close_root()
        campaigns.append({"label": "campaign", "store": store,
                          "runtime": runtime, "budget": size["samples"]})

    elif workload == "warm-batch":
        charac = work / "charac.json"
        shutil.copyfile(_precharac_file(state / "artifacts"), charac)
        baseline_root = work / "store"
        shutil.copytree(state / "baselines", baseline_root)
        fields = base_fields(mode, workload, seed)
        fields.update(charac_cache=str(charac),
                      baseline_store=str(baseline_root))
        spec = campaign_spec(fields)
        baselines_before = _count_baselines(baseline_root)
        recorder.open_root()
        store, runtime = _run_campaign(spec, runs, "warm", clock)
        for _ in range(size["setups"] - 1):
            _timed_build(spec, clock)
        measured = recorder.close_root()
        campaigns.append({"label": "campaign", "store": store,
                          "runtime": runtime, "budget": size["samples"]})

    else:
        from repro.service.artifacts import ArtifactStore, ensure_precharac
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer
        from repro.service.service import EvaluationService
        from repro.sweep.runner import SweepRunner
        from repro.sweep.store import SweepStore

        baseline_root = runs / "artifacts"
        (baseline_root / "precharac").mkdir(parents=True)
        shutil.copy(_precharac_file(state / "artifacts"),
                    baseline_root / "precharac")
        baselines_before = 0
        sweep = sweep_spec(mode, seed)
        plan = sweep.expand()
        precharac, hit = ensure_precharac(
            ArtifactStore(baseline_root), "write", "none")
        if not hit:
            raise RuntimeError("pre-seeded precharacterization was not found")
        # A job's runtime: the same artifact routing the service applies.
        job_spec = dataclasses.replace(
            plan.points[0].spec, charac_cache=str(precharac),
            baseline_store=str(baseline_root))
        recorder.open_root()
        for _ in range(size["setups"]):
            _timed_build(job_spec, clock)
        service = EvaluationService(runs, max_concurrency=1,
                                    campaign_workers=1)
        if recorder.timed:
            publish = service.events.publish

            def timed_publish(topic, event):
                if event.get("type") == "state":
                    service_events.append(
                        (time.perf_counter(), topic, event["state"]))
                return publish(topic, event)

            service.events.publish = timed_publish
        server = ServiceServer(service, port=0)
        server.start()
        try:
            client = ServiceClient(server.url)
            start = time.perf_counter()
            report = SweepRunner(
                sweep, SweepStore.create(work / "sweeps", sweep), client,
                poll_s=SWEEP_POLL_S,
            ).run()
            clock.verdict = (start, time.perf_counter())
        finally:
            server.stop()
        measured = recorder.close_root()
        from repro.campaign.store import RunStore

        rows = {row["spec_hash"]: row for row in report["points"]}
        jobs = {job.spec_hash: job for job in service.jobs.values()}
        for point in plan.points:
            job = jobs[point.digest]
            campaigns.append({
                "label": point.label,
                "store": RunStore(runs / job.run_id),
                "runtime": None,
                "budget": size["samples"],
                "reported_ssf": rows[point.digest]["ssf"],
                "state": job.state,
            })
            clock.samples += rows[point.digest]["n_samples"]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    recorder.active = False
    speed.stop()

    counts = work_counts(recorder, campaigns)
    if baseline_root is not None:
        counts["service.baseline_store_writes"] = (
            _count_baselines(baseline_root) - baselines_before)
    else:
        counts["service.baseline_store_writes"] = 0

    result = {
        "workload": workload,
        "mode": mode,
        "seed": seed,
        "measured_s": measured[1] - measured[0],
        "measured_norm_s": speed.normalize(*measured),
        "verdict_s": speed.normalize(*clock.verdict),
        "setup_s": statistics.median(
            speed.normalize(*interval) for interval in clock.setups),
        "wall_verdict_s": clock.verdict[1] - clock.verdict[0],
        "wall_setup_s": statistics.median(b - a for a, b in clock.setups),
        "host_speed_samples": len(speed.samples),
        "samples": clock.samples,
        "peak_rss_mb": peak_rss_mb,
        "counts": counts,
        "service_events": service_events,
    }
    result["campaigns"] = [
        check_campaign(c, workload, mode, seed, pins) for c in campaigns
    ]
    return result


# ----------------------------------------------------------------------
# exact work counts
# ----------------------------------------------------------------------
def work_counts(recorder, campaigns) -> Dict[str, int]:
    calls = recorder.calls
    if recorder.timed:
        calls = {name: int(n) for name, (n, _) in recorder.inclusive().items()}
        for name, (n, _) in recorder.leaves().items():
            calls[name] = n
    chunks = samples = 0
    for campaign in campaigns:
        for entry in campaign["store"].replay_chunks():
            chunks += 1
            samples += len(entry.records)
    return {
        "samples": samples,
        "engine.batches": calls.get("engine.batch", 0),
        "gatesim.batch_calls": calls.get("gatesim.batch", 0),
        "gatesim.batch_samples": int(recorder.extra["gatesim.batch_samples"]),
        "gatesim.scalar_calls": calls.get("gatesim.scalar", 0),
        "gatesim.latched": int(recorder.extra["gatesim.latched"]),
        "rtl.steps": calls.get("rtl.step", 0),
        "rtl.restarts": calls.get("rtl.restart", 0),
        "rtl.resumes": calls.get("rtl.run_to", 0) - calls.get("rtl.restart", 0),
        "analytical.evals": calls.get("analytical.eval", 0),
        "campaign.chunks": calls.get("campaign.append", 0),
        "campaign.logged_chunks": chunks,
    }


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def log_digest(store) -> str:
    """SHA-256 over the metrics-stripped ``log.jsonl`` records."""
    digest = hashlib.sha256()
    for line in (store.path / "log.jsonl").read_text().splitlines():
        payload = json.loads(line)
        payload.pop("metrics", None)
        digest.update(json.dumps(payload, sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def check_campaign(campaign: dict, workload: str, mode: str, seed: int,
                   pins: dict) -> dict:
    """Every output check for one campaign; failures are listed, not raised."""
    from repro.conformance.replay import replay_sample
    from repro.obs.report import load_metrics_jsonl
    from repro.sampling.estimator import SsfEstimator

    store = campaign["store"]
    failures: List[str] = []
    checkpoint = store.read_checkpoint()
    records = [r for entry in store.replay_chunks() for r in entry.records]
    n = len(records)
    budget = campaign["budget"]
    if checkpoint.get("status") != "complete":
        failures.append(f"status {checkpoint.get('status')!r}, not complete")
    if campaign.get("state", "done") != "done":
        failures.append(f"job state {campaign['state']!r}, not done")
    if n != budget or checkpoint.get("n_samples") != budget:
        failures.append(f"{n} logged / {checkpoint.get('n_samples')} "
                        f"reported samples, budget {budget}")

    ssf, std_error = checkpoint.get("ssf"), checkpoint.get("std_error")
    estimator = SsfEstimator(record_history=False)
    for record in records:
        estimator.push(record.sample, record.e)
    independent = math.fsum(r.sample.weight * r.e for r in records) / max(n, 1)
    if estimator.ssf != ssf or estimator.std_error != std_error:
        failures.append(f"SSF {ssf!r} / SE {std_error!r} do not follow from "
                        f"the log ({estimator.ssf!r} / {estimator.std_error!r})")
    if ssf is None or abs(independent - ssf) > 1e-12:
        failures.append(f"SSF {ssf!r} != sum(w*e)/n {independent!r}")
    if "reported_ssf" in campaign and campaign["reported_ssf"] != ssf:
        failures.append(f"sweep report SSF {campaign['reported_ssf']!r} "
                        f"!= run SSF {ssf!r}")

    metrics = {}
    for m in load_metrics_jsonl(store.path / "metrics.jsonl"):
        if m.get("deterministic") and not m.get("labels"):
            metrics[m["name"]] = m.get("value")
    expected = {
        "engine_samples_total": n,
        "engine_analytical_evals_total": sum(r.analytical for r in records),
        "engine_rtl_resumes_total": sum(
            1 for r in records
            if r.category.value == "needs_rtl"
            or (r.category.value == "memory_only" and not r.analytical)),
        "engine_pulses_latched_total": sum(r.n_pulses_latched for r in records),
    }
    for name, value in expected.items():
        if metrics.get(name, 0) != value:
            failures.append(f"metrics.jsonl {name}={metrics.get(name)} but "
                            f"the log gives {value}")

    digest = log_digest(store)
    if seed == pins.get("seed"):
        pin = pins.get(mode, {}).get(workload, {}).get(campaign["label"])
        if pin is None:
            failures.append("no pinned values for the default seed")
        else:
            for key, value in (("ssf", ssf), ("std_error", std_error),
                               ("digest", digest)):
                if pin.get(key) != value:
                    failures.append(f"{key} {value!r} != pinned {pin.get(key)!r}")

    runtime = campaign["runtime"]
    if runtime is None:
        spec = store.load_spec()
        runtime = dataclasses.replace(spec, baseline_store=None).build_runtime()
    engine, sampler = runtime
    for index in sorted({(i * (n - 1)) // (REPLAYED - 1)
                         for i in range(REPLAYED)} if n else ()):
        replayed = replay_sample(store, index, engine=engine, sampler=sampler)
        if not replayed.bit_identical:
            failures.append(f"sample {index} replays differently: "
                            f"{replayed.diff()}")

    return {
        "label": campaign["label"],
        "n_samples": n,
        "ssf": ssf,
        "std_error": std_error,
        "digest": digest,
        "latched": sum(1 for r in records if r.flipped_bits),
        "impact_cycles": store.load_spec().impact_cycles,
        "failures": failures,
    }
