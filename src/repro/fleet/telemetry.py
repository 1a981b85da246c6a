"""Per-run assembler for telemetry shipped by fleet workers.

One :class:`RunTelemetry` instance rides along with each
:class:`~repro.fleet.coordinator.FleetScheduler`.  It receives, under
the coordinator lock, everything a worker ships besides the sample
records themselves:

* **spans** — wall-clock span dicts (the worker's lease wait, chunk
  evaluation and post, plus the chunk's engine stage spans), added to
  the worker's lane of the run's :class:`~repro.obs.tracing.RunTrace` —
  the runner's, which writes them to ``trace.json`` with its own lane
  and the coordinator's lease instants;
* **metrics** — the worker's non-deterministic registry snapshot,
  accumulated in a private registry and folded into the runner's merged
  registry only after the consumption loop has finished (so the merge
  can never race the runner's strictly-ordered deterministic merging);
* **log records** — structured, correlation-ID'd lines from the
  worker's :class:`~repro.obs.logging.LogBuffer`, appended (with lease
  lifecycle events) to the run's ``events.jsonl``.

Everything here is advisory: shipped telemetry is forced
non-deterministic on ingest, so the deterministic metric view — and
with it the fleet-vs-single-node parity guarantee — cannot move no
matter what a worker ships.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.fleet_metrics import (
    observe_lease_wait,
    record_telemetry_shipped,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import RunTrace


class RunTelemetry:
    """Collects one run's shipped telemetry (locked by the caller)."""

    def __init__(
        self,
        store,
        trace_id: str,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[RunTrace] = None,
    ):
        self.store = store
        self.trace_id = trace_id
        #: Coordinator-side SLO registry (straggler counters etc.).
        self.metrics = metrics
        #: The run's trace (the runner's): worker lanes and instants.
        self.trace = trace if trace is not None else RunTrace()
        self.trace.trace_id = trace_id
        #: Shipped worker metrics, merged into the runner's registry at
        #: run close — never while chunks are still being consumed.
        self.shipped = MetricsRegistry()

    # ------------------------------------------------------------------
    # ingest (coordinator lock held)
    # ------------------------------------------------------------------
    def ingest(self, worker: str, telemetry: dict) -> None:
        """Fold one worker's shipped telemetry bundle."""
        if not isinstance(telemetry, dict):
            return
        spans = telemetry.get("spans")
        spans = [
            span
            for span in (spans if isinstance(spans, list) else ())
            if isinstance(span, dict) and "name" in span
        ]
        try:
            n_dropped = int(telemetry.get("n_dropped") or 0)
        except (TypeError, ValueError):
            n_dropped = 0  # garbage drop count from a buggy worker
        self.trace.add_spans(worker, spans, n_dropped)
        metrics = telemetry.get("metrics")
        if isinstance(metrics, list):
            # Force non-semantic: whatever a worker ships can never
            # reach the deterministic view the parity tests compare.
            safe = [
                {**m, "deterministic": False}
                for m in metrics
                if isinstance(m, dict)
            ]
            try:
                self.shipped.merge_snapshot(safe)
            except Exception:
                pass  # malformed shipped metrics are dropped, not fatal
        logs = telemetry.get("logs")
        n_logs = 0
        if isinstance(logs, list):
            for record in logs:
                if isinstance(record, dict):
                    self.record_event(
                        "log", worker=worker, **{
                            k: v for k, v in record.items()
                            if k not in ("type", "worker")
                        }
                    )
                    n_logs += 1
        if self.metrics is not None:
            record_telemetry_shipped(self.metrics, len(spans), n_logs)
            lease_wait = telemetry.get("lease_wait_s")
            if isinstance(lease_wait, (int, float)) and lease_wait >= 0:
                observe_lease_wait(self.metrics, worker, float(lease_wait))

    # ------------------------------------------------------------------
    # coordinator-side annotations
    # ------------------------------------------------------------------
    def record_event(self, event_type: str, **fields: object) -> None:
        """Append one operational event to the run's ``events.jsonl``."""
        event = {"type": event_type, "trace_id": self.trace_id, **fields}
        event.setdefault("t", time.time())
        try:
            self.store.append_event(event)
        except OSError:
            pass  # advisory: a full disk must not kill the run
