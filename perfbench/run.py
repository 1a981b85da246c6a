"""Spec-to-verdict benchmark of the cross-level SSF evaluator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload warm-batch --seed 3 --trace 1

Each workload runs in a fresh process of its own, from a complete
``CampaignSpec`` or ``SweepSpec`` generated from ``--seed``, and every
output is checked (see ``workloads.py``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload with the outside-in
span recorder of ``spans.py`` installed and prints the per-layer
metrics (plus an untraced run first when none of this code is on
record, for ``trace.overhead_frac``).  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count
campaigns, ``metrics`` maps each metric name to its value and unit.

The workloads are fixed-size, so their work counts repeat exactly for
one commit and seed; ``--seconds`` is the nominal length of one
measured run that the sizes are chosen for.  Warm state (the
precharacterization and a filled cycle-baseline store) is built once
per checkout and code version under ``.perfbench/``, by the checkout's
own code and off the clock; every run copies it into a fresh directory.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import uuid

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "verdict_s": "s",
    "setup_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Budget for one workload process; the whole invocation must end in 180 s.
CHILD_TIMEOUT_S = 170

STATE_ROOT = ROOT / ".perfbench"

#: Expected outputs of every campaign on the default seed.
PINS = HERE / "pins.json"


class BenchmarkError(Exception):
    """The benchmark itself is broken (not the program's outputs)."""


def code_digest() -> str:
    """Identity of the code under test plus the benchmark code that shapes
    the warm state and the work counts."""
    digest = hashlib.sha256()
    paths = sorted((SRC / "repro").rglob("*.py"))
    paths += [HERE / "workloads.py", HERE / "spans.py"]
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def ensure_state(digest: str) -> pathlib.Path:
    """Build the warm state once (under a lock) and return its path."""
    state = STATE_ROOT / "state" / digest
    STATE_ROOT.mkdir(exist_ok=True)
    with open(STATE_ROOT / "state.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if (state / "ready").exists():
            return state
        building = state.with_name(digest + ".building")
        shutil.rmtree(building, ignore_errors=True)
        building.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--prepare",
             str(building)],
            env=_python_env(), cwd=ROOT, timeout=880,
        )
        if proc.returncode != 0:
            raise BenchmarkError("warm-state preparation failed")
        (building / "ready").write_text(digest)
        shutil.rmtree(state, ignore_errors=True)
        building.rename(state)
    return state


def run_child(workload: str, mode: str, seed: int, traced: bool,
              state: pathlib.Path, pins: str | None) -> dict:
    """One workload in a fresh process; returns its result document."""
    out = STATE_ROOT / "out"
    out.mkdir(parents=True, exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out))
    try:
        cmd = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0",
               "--state", str(state), "--work", str(work)]
        if mode == "quick":
            cmd.append("--quick")
        if pins is not None:
            cmd += ["--pins", pins]
        try:
            proc = subprocess.run(cmd, env=_python_env(), cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"{workload} exceeded {CHILD_TIMEOUT_S} s"}
        result_path = work / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            return {"error": f"{workload} process exited {proc.returncode}"}
        result = json.loads(result_path.read_text())
        if traced:
            trace = work / "trace.json"
            if trace.exists():
                shutil.copyfile(
                    trace, out / f"{workload}-{mode}-seed{seed}.trace.json")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_counts(digest: str, mode: str, workload: str, seed: int,
                 runs: list) -> None:
    """Exact work counts must repeat for one commit and seed."""
    first = runs[0]["counts"]
    for other in runs[1:]:
        if other["counts"] != first:
            raise BenchmarkError(
                f"work counts differ between runs of one seed: {first} "
                f"vs {other['counts']}")
    if first["campaign.chunks"] != first["campaign.logged_chunks"]:
        raise BenchmarkError("chunk appends and logged chunks disagree")
    history = STATE_ROOT / "counts" / digest / f"{mode}-{workload}-{seed}.json"
    if history.exists():
        seen = json.loads(history.read_text())
        if seen != first:
            raise BenchmarkError(
                f"work counts differ from an earlier run of this seed: "
                f"{seen} vs {first}")
    else:
        history.parent.mkdir(parents=True, exist_ok=True)
        history.write_text(json.dumps(first, sort_keys=True))


def end_to_end(result: dict) -> dict:
    sampling_s = result["verdict_s"] - result["setup_s"]
    values = {
        "verdict_s": result["verdict_s"],
        "setup_s": result["setup_s"],
        "samples_per_s": result["samples"] / sampling_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def measure(workload: str, mode: str, seed: int, traced: bool,
            pins: str | None, untraced: dict | None = None) -> dict:
    """One workload, checked: untraced for the end-to-end metrics, traced
    for the per-layer ones.

    A traced run's overhead is taken against ``untraced`` (a run of the
    same workload and seed) or else the median untraced run of this
    workload and code on record; with none on record, an untraced run
    is made first.
    """
    from spans import LAYER_METRICS

    digest = code_digest()
    state = ensure_state(digest)
    attempted = 4 if workload == "service-multicycle" else 1
    record = STATE_ROOT / "untraced" / digest / f"{mode}-{workload}.json"
    history = json.loads(record.read_text()) if record.exists() else []
    runs = [untraced] if untraced is not None else []
    if not runs and (not traced or not history):
        runs.append(run_child(workload, mode, seed, False, state, pins))
    if traced and not any("error" in r for r in runs):
        runs.append(run_child(workload, mode, seed, True, state, pins))
    errors = [r["error"] for r in runs if "error" in r]
    if errors:
        return {"workload": workload, "attempted": attempted,
                "failed": attempted, "errors": errors, "metrics": {}}
    check_counts(digest, mode, workload, seed, runs)
    plain = [r for r in runs if "layers" not in r]
    if plain and untraced is None:
        history.append(plain[0]["measured_norm_s"])
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(history))
    failures: dict = {}
    for run in runs:
        for campaign in run["campaigns"]:
            if campaign["failures"]:
                failures.setdefault(campaign["label"], []).extend(
                    campaign["failures"])
    if traced:
        layers = dict(runs[-1]["layers"])
        base = (plain[0]["measured_norm_s"] if plain
                else statistics.median(history))
        layers["trace.overhead_frac"] = runs[-1]["measured_norm_s"] / base - 1
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in LAYER_METRICS.items()}
    else:
        metrics = end_to_end(runs[0])
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "counts": runs[0]["counts"],
        "campaigns": runs[0]["campaigns"],
        "metrics": metrics,
        "untraced": plain[0] if plain else None,
        "wall": {"verdict_s": runs[0]["wall_verdict_s"],
                 "setup_s": runs[0]["wall_setup_s"]},
    }


def print_report(report: dict) -> None:
    name = report["workload"]
    attempted, failed = report["attempted"], report["failed"]
    print(f"== {name}")
    for error in report.get("errors", []):
        print(f"   error: {error}")
    for metric, data in report["metrics"].items():
        value = data["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {metric:34s} {shown:>14s} {data['unit']}")
    print(f"   {'failed_frac':34s} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} campaigns)")
    if "wall" in report and "verdict_s" in report["metrics"]:
        print(f"   plain wall clock: verdict {report['wall']['verdict_s']:.4f} s,"
              f" setup {report['wall']['setup_s']:.4f} s (times above are at"
              f" the nominal host speed, see hostspeed.py)")
    if "counts" in report:
        print("   work counts: " + json.dumps(report["counts"],
                                             sort_keys=True))
    for label, problems in report.get("failures", {}).items():
        for problem in problems:
            print(f"   check failed ({label}): {problem}")


def write_pins(mode: str, reports: list) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins["seed"] = DEFAULT_SEED
    for report in reports:
        if "campaigns" not in report:
            continue
        pins.setdefault(mode, {})[report["workload"]] = {
            c["label"]: {"ssf": c["ssf"], "std_error": c["std_error"],
                         "digest": c["digest"]}
            for c in report["campaigns"]
        }
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def child_main(args) -> None:
    """Run one workload in this process and write ``result.json``."""
    import workloads
    from hostspeed import pin_to_one_cpu
    from spans import SpanRecorder, layer_metrics

    import repro

    pin_to_one_cpu()
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchmarkError(f"imported repro from {repro.__file__}")
    if args.pins == "none":
        pins = {}
    else:
        pins = json.loads(pathlib.Path(args.pins or PINS).read_text())
    work = pathlib.Path(args.work)
    recorder = SpanRecorder(uuid.uuid4().hex, timed=bool(args.trace))
    recorder.install()
    result = workloads.run_workload(
        args.workload, "quick" if args.quick else "full", args.seed, work,
        pathlib.Path(args.state), recorder, pins)
    recorder.uninstall()
    if args.trace:
        result["layers"] = layer_metrics(recorder, result)
        recorder.write_chrome_trace(work / "trace.json")
    (work / "result.json").write_text(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35,
                        help="nominal measured seconds per run (the "
                        "workloads are fixed-size, see above)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny budgets (the benchmark's own tests)")
    parser.add_argument("--pins", help="pins file to check against "
                        "('none' skips the pin check)")
    parser.add_argument("--write-pins", action="store_true",
                        help="record the default seed's outputs as pins")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--prepare", help=argparse.SUPPRESS)
    parser.add_argument("--state", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.prepare:
        import workloads

        workloads.prepare_state(pathlib.Path(args.prepare))
        return 0
    if args.child:
        child_main(args)
        return 0

    mode = "quick" if args.quick else "full"
    pins = "none" if args.write_pins else args.pins
    if args.write_pins and args.seed != DEFAULT_SEED:
        parser.error("--write-pins records the default seed only")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.workload == "all":
            reports = [measure(n, mode, args.seed, False, pins) for n in names]
            reports += [measure(n, mode, args.seed, True, pins,
                                untraced=r.get("untraced"))
                        for n, r in zip(names, reports)]
        else:
            reports = [measure(names[0], mode, args.seed, bool(args.trace),
                               pins)]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    for report in reports:
        print_report(report)
    if args.write_pins:
        write_pins(mode, reports[:len(names)])

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if any("errors" in r for r in reports) else 0


if __name__ == "__main__":
    with contextlib.suppress(BrokenPipeError):
        sys.exit(main())
