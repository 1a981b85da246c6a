"""Durable job records for the evaluation service.

The service's unit of work is a *job*: one submitted
:class:`~repro.campaign.spec.CampaignSpec`, content-addressed by its
spec hash and bound to one campaign run directory.  Job state lives in
an append-only, fsynced JSONL event log (``jobs.jsonl``, a
:class:`~repro.utils.durable.JsonlLog`): every transition is durable
before it takes effect, and a restart rebuilds the exact job table by
folding the log's committed entries.

Jobs found ``running`` during replay were interrupted by a crash; the
service re-queues them, and because the campaign run directory is itself
durable, execution continues via ``campaign resume`` rather than
restarting from sample zero.
"""

from __future__ import annotations

import dataclasses
import heapq
import pathlib
import threading
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import ServiceError
from repro.utils.durable import JsonlLog

JOBS_FILE = "jobs.jsonl"

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

#: Every state a job can be in (gauge keys; order is display order).
JOB_STATES = (
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_DONE,
    STATE_FAILED,
    STATE_CANCELLED,
)

#: States in which a job still owns (or will own) compute.
ACTIVE_STATES = (STATE_QUEUED, STATE_RUNNING)

#: States a job never leaves.
TERMINAL_STATES = (STATE_DONE, STATE_FAILED, STATE_CANCELLED)


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclass
class Job:
    """One submitted campaign, bound to a run directory by ``run_id``."""

    job_id: str
    spec: dict                      # CampaignSpec.to_dict()
    spec_hash: str
    run_id: str
    priority: int = 0               # higher runs first
    seq: int = 0                    # submission order (FIFO within priority)
    state: str = STATE_QUEUED
    error: Optional[str] = None
    result: Optional[dict] = None   # summary payload once done
    cache_hit: bool = False         # satisfied from the result cache
    cancel_requested: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class JobStore:
    """Append-only JSONL event log holding the service's job table.

    Two event kinds::

        {"event": "submit", "job": {...full job record...}}
        {"event": "update", "job_id": "...", "fields": {...}}

    Appends are fsynced before the in-memory table changes, so the log
    is always at least as new as any state the service acted on.
    """

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._log = JsonlLog(
            self.path / JOBS_FILE, name="job log", error=ServiceError
        )
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # durable appends
    # ------------------------------------------------------------------
    def _append(self, payload: dict) -> None:
        with self._lock:
            self._log.append(payload)

    def record_submit(self, job: Job) -> None:
        self._append({"event": "submit", "job": job.to_dict()})

    def record_update(self, job_id: str, **fields) -> None:
        self._append({"event": "update", "job_id": job_id, "fields": fields})

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, Job]:
        """Fold the event log into a job table (insertion-ordered).

        A corrupt committed line, an update for an unknown job and an
        unknown event all raise, because silently skipping events would
        desynchronize the table from what the service already did.
        """
        jobs: Dict[str, Job] = {}
        log = self._log.path
        for lineno, payload in enumerate(self._log.replay(), 1):
            if payload["event"] == "submit":
                job = Job.from_dict(payload["job"])
                jobs[job.job_id] = job
            elif payload["event"] == "update":
                job = jobs.get(payload["job_id"])
                if job is None:
                    raise ServiceError(
                        f"job log {log} updates unknown job "
                        f"{payload['job_id']!r} at line {lineno}"
                    )
                for key, value in payload["fields"].items():
                    setattr(job, key, value)
            else:
                raise ServiceError(
                    f"job log {log} has unknown event "
                    f"{payload['event']!r} at line {lineno}"
                )
        return jobs


@dataclass(order=True)
class _QueueItem:
    sort_key: tuple = field(init=False, repr=False)
    job: Job = field(compare=False)

    def __post_init__(self):
        # Highest priority first; FIFO (submission seq) within a priority.
        self.sort_key = (-self.job.priority, self.job.seq)


class JobQueue:
    """Thread-safe priority queue of queued jobs.

    Cancellation is lazy: a job cancelled while queued stays in the heap
    but is skipped at pop time (its state is no longer ``queued``).  A
    popped job is still ``queued`` until its worker marks it ``running``,
    so a cancel can land in between; the worker's queued → running
    transition is a check-and-set that leaves such a job cancelled.
    """

    def __init__(self):
        self._heap: List[_QueueItem] = []
        self._cond = threading.Condition()
        self._closed = False

    def push(self, job: Job) -> None:
        with self._cond:
            if self._closed:
                raise ServiceError("job queue is closed")
            heapq.heappush(self._heap, _QueueItem(job=job))
            self._cond.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next runnable job, or ``None`` on timeout / queue closed."""
        with self._cond:
            while True:
                while self._heap:
                    item = heapq.heappop(self._heap)
                    if item.job.state == STATE_QUEUED:
                        return item.job
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None

    def close(self) -> None:
        """Wake every waiting worker; subsequent pops drain then stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def depth(self) -> int:
        with self._cond:
            return sum(
                1 for item in self._heap if item.job.state == STATE_QUEUED
            )
