"""Command-line interface.

Exposes the main workflows without writing Python::

    python -m repro info
    python -m repro evaluate --benchmark write --sampler importance -n 1000
    python -m repro characterize --benchmark write --out charac.json
    python -m repro evaluate --benchmark write --charac-cache charac.json
    python -m repro harden --benchmark write -n 1500 --coverage 0.95
    python -m repro countermeasures --benchmark write -n 600
    python -m repro campaign run --benchmark write --stop risk --epsilon 0.02
    python -m repro campaign resume <run-id>
    python -m repro campaign status <run-id> --metrics
    python -m repro obs report <run-id>
    python -m repro serve --runs-dir runs --port 8321
    python -m repro submit --benchmark write -n 500 --url http://localhost:8321
    python -m repro status <job-id> --url http://localhost:8321

All commands print the same tables the library APIs produce; ``--json``
(on ``campaign run/resume/status`` and the service verbs) emits a single
machine-readable JSON document on stdout instead.  Framework errors
(:class:`~repro.errors.ReproError`) print one clean ``error:`` line and
exit 2 — never a raw traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from typing import List, Optional

from repro.analysis.reporting import format_table
from repro.sampling import SAMPLERS
from repro.soc.mpu import MpuVariant
from repro.soc.programs import BENCHMARKS


def _parse_variant(text: str) -> MpuVariant:
    """'none', 'parity', 'dual', 'dual+parity', 'tmr', 'tmr+parity'."""
    return MpuVariant.parse(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_info(args) -> int:
    import repro
    from repro.soc.mpu import build_mpu_netlist

    netlist = build_mpu_netlist(variant=_parse_variant(args.variant))
    stats = netlist.stats()
    rows = [
        ["version", repro.__version__],
        ["MPU variant", _parse_variant(args.variant).name],
        ["netlist nodes", stats["total"]],
        ["combinational gates", stats["combinational"]],
        ["flip-flops", stats["dff"]],
        ["cell area (um^2)", f"{netlist.area():.0f}"],
        ["benchmarks", ", ".join(BENCHMARKS)],
    ]
    print(format_table(["property", "value"], rows, title="repro platform"))
    return 0


def cmd_evaluate(args) -> int:
    import math

    import numpy as np

    from repro.campaign import CampaignRunner, StoppingConfig

    # One worker evaluates in-process; N workers run the campaign
    # scheduler over ~4 chunks per worker, each chunk on its own spawned
    # seed stream.
    workers = max(1, args.workers)
    spec = _campaign_spec_from_args(
        args,
        stopping=StoppingConfig(n_samples=args.samples),
        chunk_size=max(1, math.ceil(args.samples / (4 * workers))),
    )
    print("Building evaluation context...", file=sys.stderr)
    engine, sampler = spec.build_runtime()
    context = engine.context
    print(f"Running {args.samples} samples ({args.sampler})...", file=sys.stderr)
    if workers > 1:
        result = CampaignRunner(
            spec, store=None, engine=engine, sampler=sampler,
            n_workers=workers,
        ).run()
    else:
        result = engine.evaluate(
            sampler, args.samples, seed=np.random.SeedSequence(args.seed)
        )

    rows = [
        ["benchmark", context.benchmark.name],
        ["MPU variant", context.mpu_variant.name],
        ["sampler", args.sampler],
        ["SSF", f"{result.ssf:.5f}"],
        ["sample variance", f"{result.variance:.3e}"],
        ["std error", f"{result.estimator.std_error:.2e}"],
        ["successes", f"{result.n_success}/{result.n_samples}"],
        ["wall time", f"{result.wall_time_s:.1f} s"],
    ]
    for category, count in result.category_counts().items():
        if count:
            rows.append([f"outcome {category.value}", count])
    print(format_table(["quantity", "value"], rows, title="SSF evaluation"))
    return 0


def cmd_characterize(args) -> int:
    from repro.precharac.persistence import save_characterization

    print("Building context + pre-characterization...", file=sys.stderr)
    context = _design_spec(args).build_context()
    save_characterization(context.characterization, args.out)
    ch = context.characterization
    rows = [
        ["output", args.out],
        ["cone nodes", len(ch.cones.all_nodes())],
        ["memory-type bits", len(ch.memory_type)],
        ["computation-type bits", len(ch.computation_type)],
        ["correlation entries", len(ch.signatures.correlations)],
    ]
    print(format_table(["quantity", "value"], rows, title="Pre-characterization"))
    return 0


def cmd_harden(args) -> int:
    from repro.core.hardening import HardeningStudy, attribute_ssf, critical_bits

    print("Building evaluation context...", file=sys.stderr)
    engine, sampler = _design_spec(args).build_runtime()
    context = engine.context
    print(f"Running {args.samples} samples...", file=sys.stderr)
    result = engine.evaluate(sampler, args.samples, seed=args.seed)
    oracle = engine.outcome_oracle()
    study = HardeningStudy(context.netlist, result, oracle=oracle)
    outcome = study.harden_for_coverage(args.coverage)

    shares = attribute_ssf(result, oracle)
    crit = critical_bits(shares, args.coverage)
    rows = [
        ["SSF before", f"{result.ssf:.5f}"],
        ["critical bits", len(crit)],
        ["SSF after hardening", f"{outcome.ssf_after:.5f}"],
        ["improvement", f"{outcome.ssf_improvement:.1f}x"],
        ["area overhead", f"{100 * outcome.area_overhead:.2f} %"],
    ]
    print(format_table(["quantity", "value"], rows, title="Selective hardening"))
    for reg, bit in crit[:12]:
        print(f"  critical: {reg}[{bit}]")
    return 0


def cmd_enumerate(args) -> int:
    from repro.core.exhaustive import enumerate_single_bit_faults

    print("Building evaluation context...", file=sys.stderr)
    engine, _ = _design_spec(args).build_runtime()
    print("Enumerating single-bit register faults...", file=sys.stderr)
    result = enumerate_single_bit_faults(engine)
    rows = [
        ["evaluations", result.n_evaluations],
        ["exact SSF (single-bit-upset model)", f"{result.ssf_exact:.5f}"],
        ["wall time", f"{result.wall_time_s:.1f} s"],
    ]
    print(format_table(["quantity", "value"], rows, title="Exhaustive enumeration"))
    counts = sorted(
        result.per_bit_success_count().items(), key=lambda kv: kv[1], reverse=True
    )
    for (reg, bit), count in counts[:12]:
        print(f"  {reg}[{bit}]: grants at {count}/{len(result.timing_distances)} timing distances")
    return 0


def cmd_export_verilog(args) -> int:
    from repro.netlist.verilog import write_verilog
    from repro.soc.mpu import build_mpu_netlist

    netlist = build_mpu_netlist(variant=_parse_variant(args.variant))
    write_verilog(netlist, args.out, module_name=args.module)
    stats = netlist.stats()
    print(
        f"wrote {args.out}: module {args.module}, "
        f"{stats['combinational']} gates, {stats['dff']} flops"
    )
    return 0


def cmd_countermeasures(args) -> int:
    from repro.countermeasures import CountermeasureStudy, STANDARD_VARIANTS

    variants = (
        [_parse_variant(v) for v in args.variants]
        if args.variants
        else STANDARD_VARIANTS
    )
    study = CountermeasureStudy(
        BENCHMARKS[args.benchmark],
        variants=variants,
        n_samples=args.samples,
        window=args.window,
        seed=args.seed,
    )
    print(f"Evaluating {len(variants)} variants...", file=sys.stderr)
    results = study.run()
    print(
        format_table(
            ["countermeasure", "SSF", "# succ", "improvement", "area overhead"],
            CountermeasureStudy.table_rows(results),
            title="Countermeasure comparison",
        )
    )
    return 0


def _campaign_result_rows(spec, store, result) -> list:
    rows = [
        ["run id", store.run_id],
        ["benchmark", spec.benchmark],
        ["MPU variant", spec.variant],
        ["sampler", spec.sampler],
        ["stopping", spec.stopping.mode],
        ["SSF", f"{result.ssf:.5f}"],
        ["sample variance", f"{result.variance:.3e}"],
        ["std error", f"{result.estimator.std_error:.2e}"],
        ["successes", f"{result.n_success}/{result.n_samples}"],
        ["samples consumed", result.n_samples],
        ["wall time", f"{result.wall_time_s:.1f} s"],
    ]
    checkpoint = store.read_checkpoint()
    if checkpoint.get("stop_reason"):
        rows.append(["stop reason", checkpoint["stop_reason"]])
    return rows


def _design_spec(args):
    """The spec of a verb that takes only the common flags (characterize,
    harden, enumerate): every other field keeps its spec default."""
    from repro.campaign import CampaignSpec

    return CampaignSpec(
        benchmark=args.benchmark,
        variant=_parse_variant(args.variant).name,
        window=args.window,
        charac_cache=args.charac_cache,
    )


def _campaign_spec_from_args(args, stopping=None, chunk_size=None):
    from repro.campaign import CampaignSpec, StoppingConfig

    if stopping is None:
        stopping = StoppingConfig(
            mode=args.stop,
            n_samples=args.samples,
            epsilon=args.epsilon,
            delta=args.delta,
            ci_width=args.ci_width,
            min_samples=args.min_samples,
            max_samples=args.max_samples,
        )
    return CampaignSpec(
        benchmark=args.benchmark,
        variant=_parse_variant(args.variant).name,
        sampler=args.sampler,
        window=args.window,
        subblock_fraction=args.subblock,
        impact_cycles=args.impact_cycles,
        seed=args.seed,
        chunk_size=args.chunk_size if chunk_size is None else chunk_size,
        charac_cache=args.charac_cache,
        trace=getattr(args, "trace", False),
        baseline_store=getattr(args, "baseline_store", None),
        stopping=stopping,
    )


def _campaign_json_payload(spec, store, result) -> dict:
    """Machine-readable outcome of a finished ``campaign run/resume``."""
    from repro.campaign import spec_hash
    from repro.service.cache import result_payload

    payload = result_payload(store)
    payload["spec_hash"] = spec_hash(spec)
    payload["wall_time_s"] = result.wall_time_s
    return payload


def cmd_campaign_run(args) -> int:
    from repro.campaign import CampaignRunner, ConsoleProgress, RunStore

    spec = _campaign_spec_from_args(args)
    # Build before the run directory exists: a build that fails must not
    # leave a run behind that reads ``running``.
    engine, sampler = spec.build_runtime()
    store = RunStore.create(args.runs_dir, spec, run_id=args.run_id)
    print(f"campaign run {store.run_id} -> {store.path}", file=sys.stderr)
    runner = CampaignRunner(
        spec,
        store=store,
        hooks=ConsoleProgress(every=args.progress_every),
        engine=engine,
        sampler=sampler,
        n_workers=args.workers,
    )
    result = runner.run()
    if getattr(args, "json", False):
        print(json.dumps(_campaign_json_payload(spec, store, result),
                         sort_keys=True))
        return 0
    print(
        format_table(
            ["quantity", "value"],
            _campaign_result_rows(spec, store, result),
            title="Campaign",
        )
    )
    return 0


def cmd_campaign_resume(args) -> int:
    from repro.campaign import CampaignRunner, ConsoleProgress, RunStore

    store = RunStore.open(args.runs_dir, args.run_id)
    spec = store.load_spec()
    print(f"resuming campaign {store.run_id}", file=sys.stderr)
    result = CampaignRunner.resume(
        store,
        hooks=ConsoleProgress(every=args.progress_every),
        n_workers=args.workers,
    )
    if getattr(args, "json", False):
        print(json.dumps(_campaign_json_payload(spec, store, result),
                         sort_keys=True))
        return 0
    print(
        format_table(
            ["quantity", "value"],
            _campaign_result_rows(spec, store, result),
            title="Campaign (resumed)",
        )
    )
    return 0


def cmd_campaign_status(args) -> int:
    from repro.campaign import RunStore

    as_json = getattr(args, "json", False)
    if not args.run_id:
        runs = RunStore.list_runs(args.runs_dir)
        if as_json:
            payload = []
            for run_id in runs:
                checkpoint = RunStore.open(
                    args.runs_dir, run_id
                ).read_checkpoint()
                payload.append(
                    {
                        "run_id": run_id,
                        "status": checkpoint.get("status"),
                        "n_samples": checkpoint.get("n_samples", 0),
                        "ssf": checkpoint.get("ssf"),
                    }
                )
            print(json.dumps({"runs": payload}, sort_keys=True))
            return 0
        if not runs:
            print(f"no campaign runs under {args.runs_dir}")
            return 0
        rows = []
        for run_id in runs:
            store = RunStore.open(args.runs_dir, run_id)
            checkpoint = store.read_checkpoint()
            rows.append(
                [
                    run_id,
                    checkpoint.get("status", "?"),
                    checkpoint.get("n_samples", 0),
                    (
                        f"{checkpoint['ssf']:.5f}"
                        if checkpoint.get("ssf") is not None
                        else "-"
                    ),
                ]
            )
        print(format_table(["run", "status", "samples", "SSF"], rows,
                           title="Campaign runs"))
        return 0

    store = RunStore.open(args.runs_dir, args.run_id)
    spec = store.load_spec()
    checkpoint = store.read_checkpoint()
    if as_json:
        from repro.campaign import spec_hash

        payload = dict(checkpoint)
        payload["run_id"] = store.run_id
        payload["spec_hash"] = spec_hash(spec)
        payload["spec"] = spec.to_dict()
        print(json.dumps(payload, sort_keys=True))
        # Scripts branch on the exit code: an interrupted run is a
        # failed run until something resumes it.
        return 1 if checkpoint.get("status") == "interrupted" else 0
    rows = [
        ["run id", store.run_id],
        ["status", checkpoint.get("status", "?")],
        ["benchmark", spec.benchmark],
        ["sampler", spec.sampler],
        ["stopping", spec.stopping.mode],
        ["samples", checkpoint.get("n_samples", 0)],
        ["successes", checkpoint.get("n_success", 0)],
    ]
    if checkpoint.get("ssf") is not None:
        rows.append(["SSF", f"{checkpoint['ssf']:.5f}"])
    if checkpoint.get("std_error") is not None:
        rows.append(["std error", f"{checkpoint['std_error']:.2e}"])
    if checkpoint.get("target_samples"):
        rows.append(["sample target", checkpoint["target_samples"]])
    if checkpoint.get("stop_reason"):
        rows.append(["stop reason", checkpoint["stop_reason"]])
    print(format_table(["quantity", "value"], rows, title="Campaign status"))

    if getattr(args, "metrics", False):
        from repro.obs.report import outcome_rates, stage_breakdown

        snapshot = store.read_metrics()
        if not snapshot:
            print("\n(no metrics exported yet for this run)")
            return 0
        stages = stage_breakdown(snapshot)
        if stages:
            print()
            print(
                format_table(
                    ["stage", "samples", "total (s)", "mean (s)", "share"],
                    [
                        [
                            row["stage"],
                            row["count"],
                            f"{row['total_s']:.3f}",
                            f"{row['mean_s']:.2e}",
                            f"{100 * row['share']:.1f} %",
                        ]
                        for row in stages
                    ],
                    title="Stage-time breakdown",
                )
            )
        outcomes = outcome_rates(snapshot)
        if outcomes:
            print()
            print(
                format_table(
                    ["outcome", "samples", "rate"],
                    [
                        [category, count, f"{100 * rate:.1f} %"]
                        for category, count, rate in outcomes
                    ],
                    title="Outcome categories",
                )
            )
    return 0


# ----------------------------------------------------------------------
# service verbs
# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    import subprocess
    import time

    from repro.service import (
        DISPATCH_FLEET,
        DISPATCH_LOCAL,
        EvaluationService,
        ServiceServer,
    )

    service = EvaluationService(
        args.runs_dir,
        max_concurrency=args.jobs,
        campaign_workers=args.workers,
        dispatch=DISPATCH_FLEET if args.fleet else DISPATCH_LOCAL,
        lease_ttl_s=args.lease_ttl,
    )
    server = ServiceServer(service, host=args.host, port=args.port)
    server.start()
    mode = "fleet" if args.fleet else "local"
    print(
        f"repro service listening on {server.url} "
        f"(runs dir: {args.runs_dir}, dispatch: {mode})",
        file=sys.stderr,
    )
    workers = []
    if args.spawn_workers:
        if not args.fleet:
            print("--spawn-workers requires --fleet", file=sys.stderr)
            server.stop()
            return 2
        for i in range(args.spawn_workers):
            workers.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        "--attach",
                        server.url,
                        "--worker-id",
                        f"local-{i}",
                    ]
                )
            )
        print(f"spawned {len(workers)} local workers", file=sys.stderr)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        server.stop()
    return 0


def cmd_worker(args) -> int:
    from repro.fleet import FleetWorker
    from repro.service import ServiceClient

    client = ServiceClient(args.attach, timeout_s=args.timeout)
    worker = FleetWorker(
        client,
        worker_id=args.worker_id,
        poll_s=args.poll,
        max_chunks=args.max_chunks,
        telemetry=not args.no_telemetry,
        artifacts_dir=args.artifacts_dir,
    )
    print(
        f"worker {worker.worker_id} attached to {args.attach}",
        file=sys.stderr,
    )
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    print(
        f"worker {worker.worker_id}: {worker.chunks_completed} chunks "
        f"completed, {worker.chunks_rejected} rejected",
        file=sys.stderr,
    )
    return 0


def cmd_fleet_status(args) -> int:
    payload = _service_client(args).fleet_status()
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"dispatch: {payload['dispatch']}")
    worker_rows = [
        [w["worker"], w["chunks_completed"], w["samples_total"],
         f"{w['samples_per_s']:.1f}", f"{w['last_seen_s']:.1f}s"]
        for w in payload.get("workers", [])
    ]
    if worker_rows:
        print(format_table(
            ["worker", "chunks", "samples", "samples/s", "last seen"],
            worker_rows, title="Fleet workers",
        ))
    else:
        print("no workers attached")
    run_rows = [
        [r["job_id"], r["run_id"], r["chunks"]["done"],
         r["chunks"]["leased"], r["chunks"]["pending"],
         r["chunks"]["total"]]
        for r in payload.get("runs", [])
    ]
    if run_rows:
        print(format_table(
            ["job", "run", "done", "leased", "pending", "total"],
            run_rows, title="Active fleet runs",
        ))
    return 0


def cmd_top(args) -> int:
    from repro.obs.top import TopApp

    app = TopApp(
        _service_client(args),
        args.job_id,
        interval_s=args.interval,
        ansi=False if args.plain else None,
    )
    try:
        state = app.run()
    except KeyboardInterrupt:
        print("", file=sys.stderr)
        return 130
    return 0 if state.state == "done" else 1


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.url)


def _print_job_table(payload: dict, title: str) -> None:
    order = (
        "job_id", "run_id", "state", "cache_hit", "spec_hash", "priority",
        "run_status", "n_samples", "n_samples_live", "ssf", "queue_depth",
        "error",
    )
    rows = [
        [key, payload[key]] for key in order
        if payload.get(key) is not None
    ]
    print(format_table(["field", "value"], rows, title=title))


def cmd_submit(args) -> int:
    client = _service_client(args)
    spec = _campaign_spec_from_args(args)
    response = client.submit(spec, priority=args.priority)
    if args.wait and response["state"] != "done":
        status = client.wait(response["job_id"], timeout_s=args.timeout)
        response = {**response, "state": status["state"]}
        if status.get("error"):
            response["error"] = status["error"]
    if response["state"] == "done":
        result = client.result(response["job_id"])
        response = {**response, "ssf": result["ssf"],
                    "n_samples": result["n_samples"]}
    if args.json:
        print(json.dumps(response, sort_keys=True))
    else:
        _print_job_table(response, title="Submitted campaign")
    return 0 if response["state"] in ("queued", "running", "done") else 1


def cmd_job_status(args) -> int:
    payload = _service_client(args).status(args.job_id)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_job_table(payload, title="Job status")
    return 0


def cmd_job_result(args) -> int:
    client = _service_client(args)
    if args.wait:
        client.wait(args.job_id, timeout_s=args.timeout)
    payload = client.result(args.job_id)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    rows = [
        ["job id", payload["job_id"]],
        ["run id", payload["run_id"]],
        ["cache hit", payload["cache_hit"]],
        ["SSF", f"{payload['ssf']:.5f}"],
        [
            f"Wilson CI (z={payload['ci_z']})",
            f"[{payload['ci_low']:.5f}, {payload['ci_high']:.5f}]",
        ],
        ["successes", f"{payload['n_success']}/{payload['n_samples']}"],
    ]
    if payload.get("stop_reason"):
        rows.append(["stop reason", payload["stop_reason"]])
    print(format_table(["quantity", "value"], rows, title="Job result"))
    return 0


def cmd_job_cancel(args) -> int:
    payload = _service_client(args).cancel(args.job_id)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"job {payload['job_id']}: {payload['state']}")
    return 0


# ----------------------------------------------------------------------
# hardening sweeps (campaign-of-campaigns)
# ----------------------------------------------------------------------
class _SweepProgressPrinter(threading.Thread):
    """Stream sweep progress events to stderr while the runner works.

    Subscribes to the runner's :class:`~repro.fleet.events.EventBus`
    topic (the same events the service would fan out over SSE) and
    prints one line per ``sweep_progress`` event, so ``repro sweep run``
    shows live fan-out/cache/done counts without polluting stdout —
    ``--json`` output stays a single parseable document.
    """

    def __init__(self, bus, topic: str):
        super().__init__(daemon=True, name="sweep-progress")
        self.bus = bus
        self.topic = topic
        self._halt = threading.Event()
        self._after = 0

    def run(self) -> None:
        from repro.fleet.events import EVENT_END

        while not self._halt.is_set():
            for seq, event in self.bus.wait(
                self.topic, self._after, timeout_s=0.3
            ):
                self._after = seq + 1
                kind = event.get("type")
                if kind == "sweep_progress":
                    print(
                        f"sweep {self.topic}: "
                        f"{event['n_done']}/{event['n_points']} done, "
                        f"{event['n_cached']} cached, "
                        f"{event['states']['running']} running",
                        file=sys.stderr,
                    )
                elif kind == EVENT_END:
                    return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


def _sweep_summary(store, report: dict) -> dict:
    """The stable ``--json`` summary for ``sweep run`` / ``report``."""
    from repro.sweep import sweep_status

    status = sweep_status(store)
    return {
        "sweep_id": store.sweep_id,
        "name": report["name"],
        "sweep_hash": report["sweep_hash"],
        "n_points": report["n_points"],
        "n_duplicates": report["n_duplicates"],
        "n_cached": status["n_cached"],
        "cache_hit_ratio": status["cache_hit_ratio"],
        "pareto": report["pareto"],
        "verdict": report["regression"]["verdict"],
        "report_path": str(store.path / "report.json"),
    }


def cmd_sweep_run(args) -> int:
    import dataclasses as _dataclasses

    from repro.sweep import (
        SweepRunner,
        SweepStore,
        load_sweep_spec,
        render_report_table,
    )

    spec = load_sweep_spec(args.spec)
    if args.baseline:
        spec = _dataclasses.replace(spec, baseline_report=args.baseline)
    if args.sweep_id and SweepStore.exists(args.sweeps_dir, args.sweep_id):
        store = SweepStore.open(args.sweeps_dir, args.sweep_id)
        if store.load_spec().to_dict() != spec.to_dict():
            from repro.errors import SweepError

            raise SweepError(
                f"sweep {args.sweep_id!r} already exists with a "
                f"different spec; pick a fresh --sweep-id"
            )
    else:
        store = SweepStore.create(
            args.sweeps_dir, spec, sweep_id=args.sweep_id
        )
    runner = SweepRunner(
        spec,
        store,
        _service_client(args),
        poll_s=args.poll,
        timeout_s=args.timeout,
        priority=args.priority,
    )
    printer = None
    if not args.quiet:
        printer = _SweepProgressPrinter(runner.events, store.sweep_id)
        printer.start()
    try:
        report = runner.run()
    finally:
        if printer is not None:
            printer.stop()
    if args.json:
        print(json.dumps(_sweep_summary(store, report), sort_keys=True))
    else:
        print(render_report_table(report))
    return 1 if report["regression"]["verdict"] == "regressed" else 0


def cmd_sweep_status(args) -> int:
    from repro.sweep import SweepStore, sweep_status

    store = SweepStore.open(args.sweeps_dir, args.sweep_id)
    client = _service_client(args) if args.url else None
    payload = sweep_status(store, client)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        rows = [
            ["sweep id", payload["sweep_id"]],
            ["name", payload["name"]],
            ["points", payload["n_points"]],
            ["submitted", payload["n_submitted"]],
            ["cached", payload["n_cached"]],
            ["cache hit ratio", f"{payload['cache_hit_ratio']:.2f}"],
            ["states", json.dumps(payload["states"], sort_keys=True)],
            ["complete", payload["complete"]],
            ["verdict", payload["verdict"]],
        ]
        print(format_table(["field", "value"], rows, title="Sweep status"))
    return 0 if payload["complete"] else 1


def cmd_sweep_report(args) -> int:
    from repro.errors import SweepError
    from repro.sweep import SweepStore, render_report_table

    store = SweepStore.open(args.sweeps_dir, args.sweep_id)
    report = store.read_report()
    if report is None:
        raise SweepError(
            f"sweep {args.sweep_id!r} has no report yet: run "
            f"`repro sweep run` to completion first"
        )
    if args.json:
        # The report verb emits the full canonical document (the same
        # bytes-modulo-whitespace as report.json), not the run summary.
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_report_table(report))
    return 1 if report["regression"]["verdict"] == "regressed" else 0


def cmd_conformance(args) -> int:
    from repro.conformance import (
        DESIGNS,
        DifferentialConfig,
        get_design,
        run_design,
    )

    designs = (
        [get_design(name) for name in args.design]
        if args.design
        else list(DESIGNS)
    )
    config = DifferentialConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        max_samples=args.max_samples,
        seed=args.seed,
    )
    reports = []
    for design in designs:
        print(
            f"conformance: {design.name} ({design.description})...",
            file=sys.stderr,
        )
        reports.append(run_design(design, config))
    all_passed = all(r.passed for r in reports)
    if args.json:
        payload = {
            "passed": all_passed,
            "reports": [r.to_dict() for r in reports],
        }
        print(json.dumps(payload, sort_keys=True))
        return 0 if all_passed else 1
    for report in reports:
        rows = [
            ["exact SSF (enumeration)", f"{report.exact_ssf:.5f}"],
            ["enumerated faults", report.n_enumerated],
        ]
        for v in report.verdicts:
            rows.extend(
                [
                    [f"{v.sampler}: SSF", f"{v.ssf:.5f}"],
                    [f"{v.sampler}: samples", v.n_samples],
                    [
                        f"{v.sampler}: {v.ci_kind} CI",
                        f"[{v.ci_low:.5f}, {v.ci_high:.5f}]",
                    ],
                    [
                        f"{v.sampler}: covers exact",
                        "yes" if v.covers_exact else "NO",
                    ],
                    [
                        f"{v.sampler}: outcome mismatches",
                        v.n_outcome_mismatches,
                    ],
                    [
                        f"{v.sampler}: g_(T,P) fit p-value",
                        f"{v.gof.p_value:.4f}" if v.gof else "-",
                    ],
                    [f"{v.sampler}: verdict", "PASS" if v.passed else "FAIL"],
                ]
            )
        print(
            format_table(
                ["quantity", "value"],
                rows,
                title=f"Conformance: {report.design}",
            )
        )
        print()
    print("conformance:", "PASS" if all_passed else "FAIL")
    return 0 if all_passed else 1


def cmd_replay(args) -> int:
    from repro.campaign import RunStore
    from repro.conformance import replay_sample

    store = RunStore.open(args.runs_dir, args.run_id)
    print(
        f"replaying sample {args.sample} of run {store.run_id} "
        f"(rebuilding spec runtime)...",
        file=sys.stderr,
    )
    outcome = replay_sample(store, args.sample)
    if args.json:
        print(json.dumps(outcome.to_dict(), sort_keys=True))
        return 0 if outcome.bit_identical else 1
    rows = [
        ["run id", outcome.run_id],
        ["sample index", outcome.sample_index],
        ["chunk / offset", f"{outcome.chunk_index} / {outcome.chunk_offset}"],
        ["logged (t, centre)", f"({outcome.logged['t']}, {outcome.logged['centre']})"],
        ["logged outcome e", outcome.logged["e"]],
        ["replayed outcome e", outcome.replayed["e"]],
        [
            "bit-identical",
            "yes" if outcome.bit_identical else "NO",
        ],
    ]
    if not outcome.bit_identical:
        rows.append(["diverging fields", ", ".join(outcome.diff())])
    print(format_table(["quantity", "value"], rows, title="Sample replay"))
    return 0 if outcome.bit_identical else 1


def cmd_obs_report(args) -> int:
    from repro.campaign import RunStore
    from repro.obs.report import render_report

    store = RunStore.open(args.runs_dir, args.run_id)
    snapshot = store.read_metrics()
    if not snapshot:
        print(
            f"run {store.run_id} has no metrics.jsonl yet "
            f"(campaign never checkpointed?)",
            file=sys.stderr,
        )
        return 1
    print(
        render_report(
            snapshot, top_n=args.top, title=f"Run report: {store.run_id}"
        )
    )
    return 0


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------
def _add_common(parser: argparse.ArgumentParser, with_sampler: bool = True) -> None:
    parser.add_argument(
        "--benchmark", choices=sorted(BENCHMARKS), default="write"
    )
    parser.add_argument("--variant", default="none",
                        help="none | parity | dual | dual+parity | tmr | tmr+parity")
    parser.add_argument("-n", "--samples", type=int, default=1000)
    parser.add_argument("--window", type=int, default=50)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--charac-cache", default=None,
                        help="JSON file from `characterize` to reuse")
    if with_sampler:
        parser.add_argument(
            "--sampler",
            choices=SAMPLERS,
            default="importance",
        )


def _add_attack_shape(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--subblock", type=float, default=0.125,
                        help="fraction of the MPU the attacker can aim at")
    parser.add_argument("--impact-cycles", type=int, default=1,
                        help="consecutive cycles disturbed per injection")


def _add_stopping(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stop", choices=("fixed", "risk", "ci"),
                        default="fixed",
                        help="stopping rule: fixed N, (eps, delta) risk "
                        "target, or Wilson CI width")
    parser.add_argument("--epsilon", type=float, default=0.02,
                        help="risk mode: absolute SSF error target")
    parser.add_argument("--delta", type=float, default=0.05,
                        help="risk mode: failure probability")
    parser.add_argument("--ci-width", type=float, default=0.05,
                        help="ci mode: Wilson interval width target")
    parser.add_argument("--min-samples", type=int, default=200,
                        help="adaptive modes: samples before first stop "
                        "check")
    parser.add_argument("--max-samples", type=int, default=100_000,
                        help="adaptive modes: hard sample cap")
    parser.add_argument("--chunk-size", type=int, default=50,
                        help="samples per work-stealing chunk")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross-level Monte Carlo fault-attack vulnerability "
        "evaluation (DAC 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="platform summary")
    p.add_argument("--variant", default="none")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("evaluate", help="estimate the SSF of a benchmark")
    _add_common(p)
    _add_attack_shape(p)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes (fork platforms)")
    p.add_argument("--baseline-store", default=None, metavar="DIR",
                   help="artifact-store root for persistent per-cycle "
                   "baselines (warm-starts repeat evaluations; never "
                   "changes the estimate)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "enumerate",
        help="exhaustive single-bit register-fault census (exact SSF)",
    )
    _add_common(p, with_sampler=False)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("export-verilog", help="emit the MPU netlist as Verilog")
    p.add_argument("--variant", default="none")
    p.add_argument("--out", default="mpu.v")
    p.add_argument("--module", default="mpu")
    p.set_defaults(func=cmd_export_verilog)

    p = sub.add_parser("characterize", help="run + save the pre-characterization")
    _add_common(p, with_sampler=False)
    p.add_argument("--out", default="characterization.json")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("harden", help="critical-register hardening study")
    _add_common(p, with_sampler=False)
    p.add_argument("--coverage", type=float, default=0.95)
    p.set_defaults(func=cmd_harden)

    p = sub.add_parser(
        "campaign",
        help="durable, resumable campaigns with adaptive stopping",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    pr = campaign_sub.add_parser("run", help="start a durable campaign")
    _add_common(pr)
    _add_attack_shape(pr)
    pr.add_argument("--workers", type=int, default=1,
                    help="parallel worker processes (fork platforms)")
    _add_stopping(pr)
    pr.add_argument("--runs-dir", default="runs",
                    help="directory holding durable run state")
    pr.add_argument("--run-id", default=None,
                    help="explicit run id (default: random)")
    pr.add_argument("--progress-every", type=int, default=1,
                    help="print progress every N chunks")
    pr.add_argument("--trace", action="store_true",
                    help="record spans to runs/<run-id>/trace.json "
                    "(Chrome trace_event format)")
    pr.add_argument("--baseline-store", default=None, metavar="DIR",
                    help="artifact-store root for persistent per-cycle "
                    "baselines (warm-starts repeat campaigns; excluded "
                    "from the spec hash)")
    pr.add_argument("--json", action="store_true",
                    help="emit the outcome as one JSON document on stdout")
    pr.set_defaults(func=cmd_campaign_run)

    pr = campaign_sub.add_parser(
        "resume", help="continue an interrupted campaign exactly"
    )
    pr.add_argument("run_id", help="run id to resume")
    pr.add_argument("--runs-dir", default="runs")
    pr.add_argument("--workers", type=int, default=1)
    pr.add_argument("--progress-every", type=int, default=1)
    pr.add_argument("--json", action="store_true",
                    help="emit the outcome as one JSON document on stdout")
    pr.set_defaults(func=cmd_campaign_resume)

    pr = campaign_sub.add_parser(
        "status", help="inspect one run (or list all runs)"
    )
    pr.add_argument("run_id", nargs="?", default=None)
    pr.add_argument("--runs-dir", default="runs")
    pr.add_argument("--metrics", action="store_true",
                    help="also render stage-time breakdown and outcome "
                    "rates from the run's exported metrics")
    pr.add_argument("--json", action="store_true",
                    help="emit status as JSON; exits 1 for an "
                    "interrupted run")
    pr.set_defaults(func=cmd_campaign_status)

    p = sub.add_parser(
        "obs", help="observability reports from exported run metrics"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    pr = obs_sub.add_parser(
        "report",
        help="render stage times, masking funnel, outcome rates, and "
        "slowest samples from a run's metrics.jsonl",
    )
    pr.add_argument("run_id", help="campaign run id")
    pr.add_argument("--runs-dir", default="runs")
    pr.add_argument("--top", type=int, default=10,
                    help="slowest-sample rows to show")
    pr.set_defaults(func=cmd_obs_report)

    p = sub.add_parser(
        "conformance",
        help="differential correctness gate: exhaustive oracle vs the "
        "Monte Carlo engine on the registry designs",
    )
    p.add_argument("--design", action="append", default=None,
                   help="registry design name (repeatable; default: all)")
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="risk-target absolute SSF error")
    p.add_argument("--delta", type=float, default=0.05,
                   help="risk-target failure probability")
    p.add_argument("--max-samples", type=int, default=20_000,
                   help="hard sample cap per sampler")
    p.add_argument("--seed", type=int, default=7,
                   help="root seed of the differential seed tree")
    p.add_argument("--json", action="store_true",
                   help="emit the reports as one JSON document on stdout")
    p.set_defaults(func=cmd_conformance)

    p = sub.add_parser(
        "replay",
        help="re-execute one logged campaign sample from its seed "
        "lineage and check the outcome is bit-identical",
    )
    p.add_argument("run_id", help="campaign run id")
    p.add_argument("--sample", type=int, required=True,
                   help="global sample index within the run's chunk log")
    p.add_argument("--runs-dir", default="runs")
    p.add_argument("--json", action="store_true",
                   help="emit the comparison as JSON; exits 1 on "
                   "divergence")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("countermeasures", help="compare MPU variants")
    _add_common(p, with_sampler=False)
    p.add_argument("--variants", nargs="*", default=None,
                   help="variant names (default: the standard five)")
    p.set_defaults(func=cmd_countermeasures)

    # ------------------------------------------------------------------
    # service verbs
    # ------------------------------------------------------------------
    p = sub.add_parser(
        "serve",
        help="run the SSF evaluation service (job queue + result cache "
        "+ HTTP API)",
    )
    p.add_argument("--runs-dir", default="runs",
                   help="directory holding durable runs and job state")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321)
    p.add_argument("--jobs", type=int, default=1,
                   help="campaigns executed concurrently")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes per campaign (fork platforms)")
    p.add_argument("--fleet", action="store_true",
                   help="dispatch chunks to attached fleet workers over "
                   "HTTP instead of evaluating in-process")
    p.add_argument("--lease-ttl", type=float, default=10.0,
                   help="fleet chunk lease TTL in seconds (heartbeats "
                   "renew it; expired leases are re-issued)")
    p.add_argument("--spawn-workers", type=int, default=0, metavar="N",
                   help="launch N local fleet workers attached to this "
                   "coordinator (requires --fleet)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="run a fleet worker: lease chunks from a coordinator, "
        "evaluate them, stream results back",
    )
    p.add_argument("--attach", required=True, metavar="URL",
                   help="base URL of the coordinator (`repro serve --fleet`)")
    p.add_argument("--worker-id", default=None,
                   help="stable worker name (default: host-pid-random)")
    p.add_argument("--poll", type=float, default=0.5,
                   help="idle poll interval in seconds")
    p.add_argument("--max-chunks", type=int, default=None,
                   help="exit after serving this many chunks (testing)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request HTTP timeout in seconds")
    p.add_argument("--no-telemetry", action="store_true",
                   dest="no_telemetry",
                   help="do not ship spans/metrics/logs with chunk "
                   "results (shipping is always non-semantic: the "
                   "estimate is identical either way)")
    p.add_argument("--artifacts-dir", default=None, metavar="DIR",
                   help="local artifact-store root for the "
                   "pre-characterization and persistent per-cycle "
                   "baselines (each design is characterized once per "
                   "root; never changes results)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("fleet", help="fleet introspection verbs")
    fleet_sub = p.add_subparsers(dest="fleet_cmd", required=True)
    pf = fleet_sub.add_parser(
        "status", help="workers, leases, and chunk progress"
    )
    pf.add_argument("--url", default="http://127.0.0.1:8321",
                    help="base URL of a running `repro serve`")
    pf.add_argument("--json", action="store_true",
                    help="emit the response as JSON on stdout")
    pf.set_defaults(func=cmd_fleet_status)

    p = sub.add_parser(
        "top", help="live dashboard for a running fleet campaign"
    )
    p.add_argument("job_id")
    p.add_argument("--url", default="http://127.0.0.1:8321",
                   help="base URL of a running `repro serve`")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds")
    p.add_argument("--plain", action="store_true",
                   help="append one status line per tick instead of "
                   "repainting (automatic when stdout is not a TTY)")
    p.set_defaults(func=cmd_top)

    def _client_flags(pc, with_json=True):
        pc.add_argument("--url", default="http://127.0.0.1:8321",
                        help="base URL of a running `repro serve`")
        if with_json:
            pc.add_argument("--json", action="store_true",
                            help="emit the response as JSON on stdout")

    p = sub.add_parser(
        "submit", help="submit a campaign spec to a running service"
    )
    _add_common(p)
    _add_attack_shape(p)
    _add_stopping(p)
    p.add_argument("--priority", type=int, default=0,
                   help="higher-priority jobs run first")
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait timeout in seconds")
    _client_flags(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="status of a service job")
    p.add_argument("job_id")
    _client_flags(p)
    p.set_defaults(func=cmd_job_status)

    p = sub.add_parser(
        "result", help="SSF result of a finished service job"
    )
    p.add_argument("job_id")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes first")
    p.add_argument("--timeout", type=float, default=600.0)
    _client_flags(p)
    p.set_defaults(func=cmd_job_result)

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    p.add_argument("job_id")
    _client_flags(p)
    p.set_defaults(func=cmd_job_cancel)

    # ------------------------------------------------------------------
    # hardening sweeps
    # ------------------------------------------------------------------
    p = sub.add_parser(
        "sweep",
        help="campaign-of-campaigns hardening sweeps over a design space",
    )
    sweep_sub = p.add_subparsers(dest="sweep_cmd", required=True)

    ps = sweep_sub.add_parser(
        "run",
        help="expand a sweep spec, fan the points through a running "
        "service, and aggregate the comparative report",
    )
    ps.add_argument("spec", help="path to a SweepSpec JSON document")
    ps.add_argument("--sweeps-dir", default="sweeps",
                    help="directory holding durable sweep state")
    ps.add_argument("--sweep-id", default=None,
                    help="stable sweep id (re-running the same id "
                    "resumes: submissions dedupe on the service)")
    ps.add_argument("--baseline", default=None, metavar="REPORT",
                    help="pinned baseline report.json to regress "
                    "against (overrides the spec's baseline_report)")
    ps.add_argument("--priority", type=int, default=0,
                    help="priority for every member campaign")
    ps.add_argument("--poll", type=float, default=0.2,
                    help="longest wait in seconds between member status "
                    "refreshes (the sweep wakes on member job events)")
    ps.add_argument("--timeout", type=float, default=3600.0,
                    help="overall sweep timeout in seconds")
    ps.add_argument("--quiet", action="store_true",
                    help="suppress the stderr progress stream")
    _client_flags(ps)
    ps.set_defaults(func=cmd_sweep_run)

    ps = sweep_sub.add_parser(
        "status", help="fan-out progress of a sweep (exit 1 until the "
        "report exists)"
    )
    ps.add_argument("sweep_id")
    ps.add_argument("--sweeps-dir", default="sweeps")
    ps.add_argument("--url", default=None,
                    help="refresh point states from this running "
                    "service (default: durable log only)")
    ps.add_argument("--json", action="store_true",
                    help="emit the response as JSON on stdout")
    ps.set_defaults(func=cmd_sweep_status)

    ps = sweep_sub.add_parser(
        "report", help="comparative report of a finished sweep (exit 1 "
        "when the verdict is 'regressed')"
    )
    ps.add_argument("sweep_id")
    ps.add_argument("--sweeps-dir", default="sweeps")
    ps.add_argument("--json", action="store_true",
                    help="emit the summary as JSON on stdout")
    ps.set_defaults(func=cmd_sweep_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # One actionable line, never a traceback: a missing run id, a
        # corrupt run directory, or an unreachable service all land here.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
