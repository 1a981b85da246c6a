"""Durable chunk-lease ledger for distributed campaign execution.

The campaign layer's unit of work is a :class:`~repro.campaign.scheduler.Chunk`
— ``n_samples`` draws under an independent SeedSequence stream derived
from ``(campaign seed, chunk index)``.  The ledger promotes the
in-process chunk plan into a lease-based work table that many worker
processes can pull from over HTTP:

* ``pending`` chunks are granted to workers as time-bounded *leases*;
* a worker renews its lease with heartbeats while evaluating;
* a lease that outlives its TTL *expires*: the chunk returns to
  ``pending`` and is re-issued to the next worker that asks — because
  the chunk's seed stream is a pure function of (seed, index), the
  replacement evaluation is bit-identical to the one the dead worker
  would have returned;
* a result is only accepted from the chunk's *current, unexpired*
  lease.  Late results (posted after expiry or after the chunk was
  completed via another lease) raise :class:`~repro.errors.LeaseGone`
  and are discarded, so a resurrected worker can never double-count
  samples in the estimator.

Lease grants, renewals, and releases are appended to an fsynced JSONL
log (``ledger.jsonl`` inside the run directory, a
:class:`~repro.utils.durable.JsonlLog`): every grant is durable before
the worker learns its lease id, and a restarted coordinator folds the
log's committed entries to *re-adopt* in-flight leases — workers that
survived the coordinator keep heartbeating and their results are
accepted as if nothing happened.

Chunk *completion* is deliberately not tracked here: the campaign
:class:`~repro.campaign.store.RunStore` chunk log (a contiguous,
consumed prefix) is the only durable truth for finished work.  A chunk
whose result was accepted but not yet consumed when the coordinator
died simply re-runs after restart — deterministic seeding makes the
re-run bit-identical, which is what keeps the distributed estimate
equal to a single-node run of the same spec.
"""

from __future__ import annotations

import pathlib
import threading
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.campaign.scheduler import Chunk
from repro.errors import LeaseGone, ServiceError
from repro.utils.durable import JsonlLog

LEDGER_FILE = "ledger.jsonl"

EVENT_LEASE = "lease"
EVENT_RENEW = "renew"
EVENT_RELEASE = "release"

#: Release reasons recorded in the ledger log (observability only).
RELEASED_COMPLETE = "complete"
RELEASED_EXPIRED = "expired"
RELEASED_CLOSED = "closed"


def new_lease_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class Lease:
    """One worker's time-bounded claim on one chunk."""

    lease_id: str
    chunk: Chunk
    worker: str
    expires_at: float  # unix wall-clock, comparable across restarts
    granted_at: float = 0.0  # wall-clock grant time (SLO round-trips)
    queue_wait_s: float = 0.0  # how long the chunk sat pending

    def to_grant(self) -> dict:
        """The worker-facing slice of the lease (protocol payload)."""
        return {
            "lease_id": self.lease_id,
            "chunk": self.chunk.index,
            "n_samples": self.chunk.n_samples,
            "worker": self.worker,
            "expires_at": self.expires_at,
        }


class ChunkLedger:
    """Lease-based state machine over one campaign's chunk plan.

    ``chunks`` is the full plan; indices below ``start_index`` are
    already consumed into the run's durable log (the resume prefix) and
    are never tracked or re-issued.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        chunks: Sequence[Chunk],
        start_index: int = 0,
        ttl_s: float = 10.0,
        clock=None,
    ):
        import time

        self.path = pathlib.Path(path)
        self._log = JsonlLog(
            self.path, name="fleet ledger", error=ServiceError
        )
        self.ttl_s = float(ttl_s)
        self._clock = clock if clock is not None else time.time
        self._lock = threading.RLock()
        self._chunks: Dict[int, Chunk] = {
            c.index: c for c in chunks if c.index >= start_index
        }
        self._pending: List[int] = sorted(self._chunks)
        self._leases: Dict[str, Lease] = {}        # active, by lease id
        self._chunk_lease: Dict[int, str] = {}     # chunk -> active lease
        self._done: Set[int] = set()
        self._ever_leased: Set[int] = set()
        # When each pending chunk became pending (queue-wait SLO).
        now = self._clock()
        self._pending_since: Dict[int, float] = {
            index: now for index in self._pending
        }
        self._replay()

    # ------------------------------------------------------------------
    # durable log
    # ------------------------------------------------------------------
    def _replay(self) -> None:
        """Fold an existing ledger log: re-adopt unexpired leases.

        Runs at construction (coordinator start or restart).  Leases on
        chunks this plan no longer tracks (already consumed) are
        ignored; expired leases fall back to ``pending`` — their chunks
        will be re-issued exactly as if the sweeper had expired them.
        """
        leases: Dict[str, Lease] = {}
        for lineno, payload in enumerate(self._log.replay(), 1):
            event = payload["event"]
            if event == EVENT_LEASE:
                chunk = self._chunks.get(payload["chunk"])
                if chunk is None:
                    continue  # consumed before this (re)start
                leases[payload["lease_id"]] = Lease(
                    lease_id=payload["lease_id"],
                    chunk=chunk,
                    worker=payload["worker"],
                    expires_at=float(payload["expires_at"]),
                    # Older ledgers predate grant-time tracking.
                    granted_at=float(payload.get("granted_at", 0.0)),
                )
            elif event == EVENT_RENEW:
                lease = leases.get(payload["lease_id"])
                if lease is not None:
                    lease.expires_at = float(payload["expires_at"])
            elif event == EVENT_RELEASE:
                leases.pop(payload["lease_id"], None)
            else:
                raise ServiceError(
                    f"fleet ledger {self.path} has unknown event "
                    f"{event!r} at line {lineno}"
                )
        now = self._clock()
        for lease in leases.values():
            if lease.expires_at <= now:
                continue  # stale; its chunk stays pending
            # A later lease on the same chunk supersedes earlier ones.
            current = self._chunk_lease.get(lease.chunk.index)
            if current is not None:
                superseded = self._leases.pop(current)
                if superseded.expires_at > lease.expires_at:
                    self._leases[current] = superseded
                    continue
                self._chunk_lease.pop(superseded.chunk.index, None)
            self._leases[lease.lease_id] = lease
            self._chunk_lease[lease.chunk.index] = lease.lease_id
            self._ever_leased.add(lease.chunk.index)
            if lease.chunk.index in self._pending:
                self._pending.remove(lease.chunk.index)

    # ------------------------------------------------------------------
    # lease lifecycle
    # ------------------------------------------------------------------
    def lease(
        self, worker: str, ttl_s: Optional[float] = None
    ) -> Optional[Lease]:
        """Grant the lowest pending chunk to ``worker``; ``None`` when
        nothing is pending (everything leased or done)."""
        with self._lock:
            if not self._pending:
                return None
            index = self._pending.pop(0)
            now = self._clock()
            lease = Lease(
                lease_id=new_lease_id(),
                chunk=self._chunks[index],
                worker=worker,
                expires_at=now + (ttl_s or self.ttl_s),
                granted_at=now,
                queue_wait_s=max(
                    0.0, now - self._pending_since.pop(index, now)
                ),
            )
            self._log.append(
                {
                    "event": EVENT_LEASE,
                    "lease_id": lease.lease_id,
                    "chunk": index,
                    "n_samples": lease.chunk.n_samples,
                    "worker": worker,
                    "expires_at": lease.expires_at,
                    "granted_at": lease.granted_at,
                }
            )
            self._leases[lease.lease_id] = lease
            self._chunk_lease[index] = lease.lease_id
            reassigned = index in self._ever_leased
            self._ever_leased.add(index)
            lease.reassigned = reassigned  # type: ignore[attr-defined]
            return lease

    def renew(self, lease_id: str, ttl_s: Optional[float] = None) -> Lease:
        """Heartbeat: push the lease's expiry out by one TTL."""
        with self._lock:
            lease = self._require_live(lease_id)
            lease.expires_at = self._clock() + (ttl_s or self.ttl_s)
            self._log.append(
                {
                    "event": EVENT_RENEW,
                    "lease_id": lease_id,
                    "expires_at": lease.expires_at,
                }
            )
            return lease

    def complete(self, lease_id: str, chunk_index: int) -> Chunk:
        """Validate and retire a lease whose chunk result arrived.

        Raises :class:`LeaseGone` for unknown/expired/superseded leases
        and for index mismatches — the caller must discard the result.
        """
        with self._lock:
            lease = self._require_live(lease_id)
            if lease.chunk.index != chunk_index:
                raise LeaseGone(
                    f"lease {lease_id} is for chunk {lease.chunk.index}, "
                    f"result claims chunk {chunk_index}"
                )
            self._release(lease, RELEASED_COMPLETE)
            self._done.add(chunk_index)
            return lease.chunk

    def _require_live(self, lease_id: str) -> Lease:
        lease = self._leases.get(lease_id)
        if lease is None:
            raise LeaseGone(f"lease {lease_id} is unknown or already retired")
        if lease.expires_at <= self._clock():
            # Expire in place: the sweeper may simply not have run yet.
            self._release(lease, RELEASED_EXPIRED)
            self._pending_insert(lease.chunk.index)
            raise LeaseGone(
                f"lease {lease_id} on chunk {lease.chunk.index} expired "
                f"(worker {lease.worker})"
            )
        return lease

    def _release(self, lease: Lease, reason: str) -> None:
        self._log.append(
            {
                "event": EVENT_RELEASE,
                "lease_id": lease.lease_id,
                "chunk": lease.chunk.index,
                "reason": reason,
            }
        )
        self._leases.pop(lease.lease_id, None)
        if self._chunk_lease.get(lease.chunk.index) == lease.lease_id:
            self._chunk_lease.pop(lease.chunk.index, None)

    def _pending_insert(self, index: int) -> None:
        if index not in self._done and index not in self._pending:
            import bisect

            bisect.insort(self._pending, index)
            self._pending_since[index] = self._clock()

    # ------------------------------------------------------------------
    # sweeping and introspection
    # ------------------------------------------------------------------
    def expire_due(self) -> List[Lease]:
        """Expire every lease past its deadline; their chunks return to
        ``pending``.  Returns the expired leases (for metrics)."""
        with self._lock:
            now = self._clock()
            due = [
                lease
                for lease in list(self._leases.values())
                if lease.expires_at <= now
            ]
            for lease in due:
                self._release(lease, RELEASED_EXPIRED)
                self._pending_insert(lease.chunk.index)
            return due

    def release_all(self) -> None:
        """Retire every active lease (run finished or cancelled)."""
        with self._lock:
            for lease in list(self._leases.values()):
                self._release(lease, RELEASED_CLOSED)

    def get_lease(self, lease_id: str) -> Optional[Lease]:
        with self._lock:
            return self._leases.get(lease_id)

    def active_leases(self) -> List[Lease]:
        with self._lock:
            return list(self._leases.values())

    @property
    def all_done(self) -> bool:
        with self._lock:
            return len(self._done) == len(self._chunks)

    def counts(self) -> dict:
        with self._lock:
            return {
                "total": len(self._chunks),
                "pending": len(self._pending),
                "leased": len(self._leases),
                "done": len(self._done),
            }
