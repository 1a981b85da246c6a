"""Sweep coordinator: expand → fan out → watch → aggregate.

The runner is deliberately *stateless about progress*: it expands the
design space, submits every point through
:meth:`~repro.service.client.ServiceClient.submit_many`, and lets the
service's content-addressed dedup decide what each submission means —
a fresh job, a coalesce onto an active job, a cache hit on a finished
run, or an adopted resume of an interrupted one.  That makes SIGKILL
recovery trivial: a restarted sweep just runs again.  Every point it
already submitted dedupes onto the durable queue (or the result cache),
no sample is re-evaluated, and the aggregated report — a pure function
of the design space and the member estimates — comes out bit-identical.

Progress streams onto a :class:`~repro.fleet.events.EventBus` topic
named by the sweep id (``sweep_started`` / ``point`` /
``sweep_progress`` / ``sweep_complete``, closed by the standard
``EVENT_END`` sentinel).  The runner is an HTTP client of the service,
so it keeps no metrics of its own: ``repro sweep status`` reads the
point states and the cache-hit ratio from the durable point log.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional

from repro.errors import ServiceError, SweepError
from repro.fleet.events import EVENT_END, EventBus
from repro.service.client import ServiceClient
from repro.service.jobs import TERMINAL_STATES
from repro.sweep.report import build_report, load_baseline, report_json
from repro.sweep.spec import SweepSpec
from repro.sweep.store import SweepStore

#: Points per ``submit_many`` POST.  Batching bounds request size while
#: still amortizing connection setup; the crash tests shrink it to 1 to
#: widen the mid-fan-out kill window.
DEFAULT_FANOUT_BATCH = 64


class SweepRunner:
    """Drive one hardening sweep against a running evaluation service."""

    def __init__(
        self,
        spec: SweepSpec,
        store: SweepStore,
        client: ServiceClient,
        events: Optional[EventBus] = None,
        poll_s: float = 0.2,
        timeout_s: float = 3600.0,
        priority: int = 0,
        fanout_batch: int = DEFAULT_FANOUT_BATCH,
        fanout_delay_s: float = 0.0,
        report_delay_s: float = 0.0,
    ):
        self.spec = spec
        self.store = store
        self.client = client
        self.events = events if events is not None else EventBus()
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.priority = priority
        self.fanout_batch = max(1, fanout_batch)
        # Crash-test hooks: sleeps after each fan-out batch and between
        # "all jobs done" and the report write, widening the mid-fan-out
        # and mid-aggregation SIGKILL windows respectively.
        self.fanout_delay_s = fanout_delay_s
        self.report_delay_s = report_delay_s

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Run (or resume) the sweep to a finished comparative report."""
        existing = self.store.read_report()
        if existing is not None:
            return existing

        # A bad baseline path must fail before any fan-out.
        baseline = (
            load_baseline(self.spec.baseline_report)
            if self.spec.baseline_report
            else None
        )

        plan = self.spec.expand()
        self._publish(
            {
                "type": "sweep_started",
                "sweep_id": self.store.sweep_id,
                "name": self.spec.name,
                "n_points": len(plan.points),
                "n_duplicates": plan.n_duplicates,
            }
        )

        jobs = self._fan_out(plan)
        self._watch(plan, jobs)
        results = {
            point.digest: self.client.result(jobs[point.label]["job_id"])
            for point in plan.points
        }
        if self.report_delay_s:
            time.sleep(self.report_delay_s)
        report = build_report(self.spec, plan, results, baseline=baseline)
        self.store.write_report(report_json(report))
        self._publish(
            {
                "type": "sweep_complete",
                "sweep_id": self.store.sweep_id,
                "n_points": report["n_points"],
                "verdict": report["regression"]["verdict"],
            }
        )
        self._publish(
            {
                "type": EVENT_END,
                "sweep_id": self.store.sweep_id,
            }
        )
        return report

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    def _fan_out(self, plan) -> Dict[str, dict]:
        """Submit every point; returns label → submit response.

        One ``submit_many`` POST per ``fanout_batch`` points.  Each
        response is durably logged before the next batch goes out, so a
        crash mid-fan-out leaves a clean prefix in ``points.jsonl`` —
        and because submission is idempotent under the service's dedup,
        the restart resubmits everything without duplicating work.
        """
        jobs: Dict[str, dict] = {}
        points = list(plan.points)
        for start in range(0, len(points), self.fanout_batch):
            batch = points[start:start + self.fanout_batch]
            responses = self.client.submit_many(
                [point.spec for point in batch], priority=self.priority
            )
            for point, response in zip(batch, responses):
                jobs[point.label] = response
                self.store.record_point(
                    {
                        "label": point.label,
                        "spec_hash": point.digest,
                        "job_id": response["job_id"],
                        "state": response["state"],
                        "cache_hit": response["cache_hit"],
                    }
                )
                self._publish(
                    {
                        "type": "point",
                        "sweep_id": self.store.sweep_id,
                        "label": point.label,
                        "job_id": response["job_id"],
                        "state": response["state"],
                        "cache_hit": response["cache_hit"],
                    }
                )
            self._refresh(plan, jobs)
            if self.fanout_delay_s:
                time.sleep(self.fanout_delay_s)
        return jobs

    # ------------------------------------------------------------------
    # watching
    # ------------------------------------------------------------------
    def _watch(self, plan, jobs: Dict[str, dict]) -> None:
        """Poll member jobs until all are terminal (or the sweep times
        out); failed or cancelled members fail the sweep."""
        deadline = time.monotonic() + self.timeout_s
        pending = {
            label: response["job_id"]
            for label, response in jobs.items()
            if response["state"] not in TERMINAL_STATES
        }
        while pending:
            if time.monotonic() >= deadline:
                raise SweepError(
                    f"sweep {self.store.sweep_id} timed out with "
                    f"{len(pending)} of {len(jobs)} points unfinished"
                )
            time.sleep(self.poll_s)
            changed = False
            for label, job_id in list(pending.items()):
                status = self.client.status(job_id)
                if status["state"] == jobs[label]["state"]:
                    continue
                jobs[label] = {**jobs[label], **status}
                changed = True
                self.store.record_point(
                    {
                        "label": label,
                        "job_id": job_id,
                        "state": status["state"],
                    }
                )
                self._publish(
                    {
                        "type": "point",
                        "sweep_id": self.store.sweep_id,
                        "label": label,
                        "job_id": job_id,
                        "state": status["state"],
                    }
                )
                if status["state"] in TERMINAL_STATES:
                    del pending[label]
            if changed:
                self._refresh(plan, jobs)
        failed = sorted(
            label
            for label, response in jobs.items()
            if response["state"] in ("failed", "cancelled")
        )
        if failed:
            details = []
            for label in failed:
                error = jobs[label].get("error")
                details.append(
                    f"({label}): {error}" if error else f"({label})"
                )
            raise SweepError(
                f"sweep {self.store.sweep_id} has "
                f"{len(failed)} failed point(s): " + "; ".join(details)
            )

    # ------------------------------------------------------------------
    # progress surfaces
    # ------------------------------------------------------------------
    def _refresh(self, plan, jobs: Dict[str, dict]) -> None:
        counts = _count_point_states(jobs.values())
        self._publish(
            {
                "type": "sweep_progress",
                "sweep_id": self.store.sweep_id,
                "n_points": len(plan.points),
                "n_submitted": len(jobs),
                "n_done": counts["done"] + counts["cached"],
                "n_cached": counts["cached"],
                "states": counts,
            }
        )

    def _publish(self, event: dict) -> None:
        self.events.publish(self.store.sweep_id, event)


def _count_point_states(points: Iterable[dict]) -> Dict[str, int]:
    """Points by state; a cache hit that finished counts as ``cached``
    and a cancelled point as ``failed``."""
    counts = {"queued": 0, "running": 0, "cached": 0, "done": 0,
              "failed": 0}
    for point in points:
        state = point.get("state", "queued")
        if point.get("cache_hit") and state == "done":
            counts["cached"] += 1
        elif state in counts:
            counts[state] += 1
        elif state == "cancelled":
            counts["failed"] += 1
    return counts


def sweep_status(store: SweepStore, client: Optional[ServiceClient] = None) -> dict:
    """Status document for ``repro sweep status`` (service optional).

    Folds the durable point log; when a client is supplied, refreshes
    each logged point's state from the live service (logged states go
    stale the moment a coordinator dies).
    """
    spec = store.load_spec()
    plan = spec.expand()
    points = store.read_points()
    if client is not None:
        for label, point in points.items():
            job_id = point.get("job_id")
            if job_id is None:
                continue
            try:
                status = client.status(job_id)
            except ServiceError:
                continue  # job unknown to this service instance
            point["state"] = status["state"]
    counts = _count_point_states(points.values())
    cached = counts["cached"]
    report = store.read_report()
    return {
        "sweep_id": store.sweep_id,
        "name": spec.name,
        "n_points": len(plan.points),
        "n_duplicates": plan.n_duplicates,
        "n_submitted": len(points),
        "n_cached": cached,
        "cache_hit_ratio": (
            cached / len(plan.points) if plan.points else 0.0
        ),
        "states": counts,
        "complete": report is not None,
        "verdict": (
            report["regression"]["verdict"] if report is not None else None
        ),
    }
