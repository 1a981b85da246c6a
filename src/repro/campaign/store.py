"""Durable run store: append-only sample log + periodic checkpoints.

Layout of one run directory (``<root>/<run_id>/``)::

    spec.json        the CampaignSpec (written once at creation)
    log.jsonl        one JSON line per *consumed* chunk, in chunk order
    checkpoint.json  latest estimator snapshot + run status
    metrics.jsonl    latest merged metrics snapshot (one metric per line)
    metrics.prom     the same metrics as a Prometheus textfile
    trace.json       Chrome trace_event export, one lane per process
                     (when the run traced, or fleet workers shipped spans)
    events.jsonl     operational events of a fleet run (leases, worker logs)

The log is the source of truth: ``campaign resume`` replays it into a
fresh Welford estimator and continues with the first chunk index not in
the log.  Because chunks are only logged once they have been merged into
the estimator (strictly in chunk-index order), the log is always a
contiguous prefix of the campaign's chunk plan.  Appends and replay follow
the commit rule of :mod:`repro.utils.durable`: a crash can at worst leave
an unterminated final line, which replay drops and the next append cuts
away.  Each log line also carries the chunk's serialized metrics
snapshot, so a resumed run re-merges the *same* per-chunk metrics an
uninterrupted run saw.

Checkpoints and the metrics/trace exports are advisory (they feed
``campaign status`` and ``repro obs report``); correctness never depends
on them — both are atomically rewritten from merged state
(:func:`~repro.utils.durable.atomic_write`), never appended.
"""

from __future__ import annotations

import json
import pathlib
import uuid
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from repro.attack.spec import AttackSample
from repro.campaign.spec import CampaignSpec
from repro.core.results import OutcomeCategory, SampleRecord
from repro.errors import EvaluationError
from repro.utils.durable import JsonlLog, atomic_write

SPEC_FILE = "spec.json"
LOG_FILE = "log.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
METRICS_FILE = "metrics.jsonl"
PROM_FILE = "metrics.prom"
TRACE_FILE = "trace.json"
EVENTS_FILE = "events.jsonl"

STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"
STATUS_INTERRUPTED = "interrupted"


# ----------------------------------------------------------------------
# record (de)serialization
# ----------------------------------------------------------------------
def record_to_dict(record: SampleRecord) -> dict:
    return {
        "t": record.sample.t,
        "centre": record.sample.centre,
        "radius_um": record.sample.radius_um,
        "weight": record.sample.weight,
        "e": record.e,
        "category": record.category.value,
        "flipped_bits": sorted([reg, bit] for reg, bit in record.flipped_bits),
        "injection_cycle": record.injection_cycle,
        "n_pulses_injected": record.n_pulses_injected,
        "n_pulses_latched": record.n_pulses_latched,
        "analytical": record.analytical,
    }


def record_from_dict(data: dict) -> SampleRecord:
    return SampleRecord(
        sample=AttackSample(
            t=int(data["t"]),
            centre=int(data["centre"]),
            radius_um=float(data["radius_um"]),
            weight=float(data["weight"]),
        ),
        e=int(data["e"]),
        category=OutcomeCategory(data["category"]),
        flipped_bits=frozenset(
            (reg, int(bit)) for reg, bit in data["flipped_bits"]
        ),
        injection_cycle=int(data["injection_cycle"]),
        n_pulses_injected=int(data["n_pulses_injected"]),
        n_pulses_latched=int(data["n_pulses_latched"]),
        analytical=bool(data["analytical"]),
    )


@dataclass(frozen=True)
class ChunkLogEntry:
    """One replayed chunk: records plus the chunk's metrics snapshot.

    ``metrics`` is ``None`` for log lines written before observability
    existed (or by unobserved engines); consumers rebuild the
    deterministic subset from ``records`` in that case.
    """

    index: int
    records: List[SampleRecord]
    metrics: Optional[List[dict]] = None


class RunStore:
    """Filesystem persistence for one campaign run."""

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self._log = JsonlLog(
            self.path / LOG_FILE,
            name="campaign log",
            error=EvaluationError,
            sort_keys=False,
        )
        self._events = JsonlLog(
            self.path / EVENTS_FILE,
            name="event log",
            error=EvaluationError,
            fsync=False,
        )

    @property
    def run_id(self) -> str:
        return self.path.name

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: Union[str, pathlib.Path],
        spec: CampaignSpec,
        run_id: Optional[str] = None,
    ) -> "RunStore":
        """Create a fresh run directory and persist the spec."""
        run_id = run_id or uuid.uuid4().hex[:12]
        path = pathlib.Path(root) / run_id
        if path.exists():
            raise EvaluationError(f"run {run_id!r} already exists at {path}")
        path.mkdir(parents=True)
        store = cls(path)
        atomic_write(path / SPEC_FILE, spec.to_json())
        store.write_checkpoint({"status": STATUS_RUNNING, "n_samples": 0})
        return store

    @classmethod
    def open(
        cls, root: Union[str, pathlib.Path], run_id: str
    ) -> "RunStore":
        path = pathlib.Path(root) / run_id
        if not (path / SPEC_FILE).exists():
            raise EvaluationError(f"no campaign run {run_id!r} under {root}")
        return cls(path)

    @classmethod
    def list_runs(cls, root: Union[str, pathlib.Path]) -> List[str]:
        root = pathlib.Path(root)
        if not root.exists():
            return []
        return sorted(
            p.name for p in root.iterdir() if (p / SPEC_FILE).exists()
        )

    def load_spec(self) -> CampaignSpec:
        from repro.campaign.spec import load_spec

        return load_spec(self.path / SPEC_FILE)

    # ------------------------------------------------------------------
    # append-only sample log
    # ------------------------------------------------------------------
    def append_chunk(
        self,
        chunk_index: int,
        records: List[SampleRecord],
        metrics: Optional[List[dict]] = None,
    ) -> None:
        """Durably append one consumed chunk (fsynced before returning)."""
        payload = {
            "chunk": chunk_index,
            "records": [record_to_dict(r) for r in records],
        }
        if metrics is not None:
            payload["metrics"] = metrics
        self._log.append(payload)

    def replay_chunks(self) -> Iterator[ChunkLogEntry]:
        """Yield :class:`ChunkLogEntry` in log order.

        Replay drops an unterminated final line (crash mid-append); a
        corrupt committed line or a gap in the chunk indices raises,
        because the log must be the contiguous prefix the resume logic
        depends on.
        """
        for expected, payload in enumerate(self._log.replay()):
            if payload["chunk"] != expected:
                raise EvaluationError(
                    f"campaign log {self._log.path} is not a contiguous "
                    f"chunk prefix (expected chunk {expected}, found "
                    f"{payload['chunk']})"
                )
            yield ChunkLogEntry(
                index=payload["chunk"],
                records=[record_from_dict(r) for r in payload["records"]],
                metrics=payload.get("metrics"),
            )

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def write_checkpoint(self, snapshot: dict) -> None:
        """Atomically replace the checkpoint file."""
        atomic_write(
            self.path / CHECKPOINT_FILE,
            json.dumps(snapshot, indent=2, sort_keys=True),
        )

    def read_checkpoint(self) -> dict:
        target = self.path / CHECKPOINT_FILE
        if not target.exists():
            return {"status": STATUS_INTERRUPTED, "n_samples": 0}
        try:
            return json.loads(target.read_text())
        except json.JSONDecodeError:
            # A torn checkpoint is recoverable: the log has the truth.
            return {"status": STATUS_INTERRUPTED, "n_samples": 0}

    # ------------------------------------------------------------------
    # observability exports (advisory, atomically rewritten)
    # ------------------------------------------------------------------
    def write_metrics(self, registry) -> None:
        """Export a merged :class:`~repro.obs.metrics.MetricsRegistry` as
        ``metrics.jsonl`` + a Prometheus textfile."""
        atomic_write(self.path / METRICS_FILE, registry.to_jsonl())
        atomic_write(self.path / PROM_FILE, registry.to_prometheus())

    def read_metrics(self) -> List[dict]:
        """The latest exported metrics snapshot ([] when never written)."""
        target = self.path / METRICS_FILE
        if not target.exists():
            return []
        from repro.obs.report import load_metrics_jsonl

        return load_metrics_jsonl(target)

    def write_trace(self, trace: dict) -> None:
        """Export the run's merged Chrome trace
        (:meth:`~repro.obs.tracing.RunTrace.build`) as ``trace.json``."""
        atomic_write(self.path / TRACE_FILE, json.dumps(trace, sort_keys=True))

    # ------------------------------------------------------------------
    # operational event log (fleet telemetry; advisory, append-only)
    # ------------------------------------------------------------------
    def append_event(self, event: dict) -> None:
        """Append one operational event (lease lifecycle, shipped worker
        log record, straggler flag) to ``events.jsonl``.

        Advisory telemetry: appended without fsync — losing a tail of
        events in a crash costs debuggability, never correctness.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        self._events.append(event)

    def read_events(self) -> List[dict]:
        """All committed operational events ([] when the run shipped
        none)."""
        return list(self._events.replay())
