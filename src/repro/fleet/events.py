"""In-process event bus powering live campaign progress streaming.

One :class:`EventBus` instance lives inside the evaluation service.
Publishers (job state transitions, campaign progress hooks, the fleet
coordinator) append JSON-able event dicts to a per-topic ring buffer;
subscribers (SSE handlers, long-poll requests, the CLI) read events
*after* a sequence number they already hold, so a reconnecting client
never misses or re-reads an event that is still in the buffer.

Publishers run on service worker and HTTP handler threads; waiters
block on one condition variable (:meth:`EventBus.wait`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Event appended after a job's final state so streams know to close.
EVENT_END = "end"

SeqEvent = Tuple[int, dict]


class EventBus:
    """Per-topic sequence-numbered event ring buffer with blocking
    waits."""

    def __init__(self, history: int = 1024):
        self.history = max(1, history)
        self._cond = threading.Condition()
        self._events: Dict[str, Deque[SeqEvent]] = {}
        self._next_seq: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(self, topic: str, event: dict) -> int:
        """Append ``event`` to ``topic``; returns its sequence number."""
        with self._cond:
            seq = self._next_seq.get(topic, 0)
            self._next_seq[topic] = seq + 1
            buffer = self._events.setdefault(
                topic, deque(maxlen=self.history)
            )
            buffer.append((seq, dict(event)))
            self._cond.notify_all()
        return seq

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def last_seq(self, topic: str) -> int:
        """Sequence number the next event on ``topic`` will get."""
        with self._cond:
            return self._next_seq.get(topic, 0)

    def events_after(self, topic: str, after: int) -> List[SeqEvent]:
        """Buffered ``(seq, event)`` pairs with ``seq >= after``."""
        with self._cond:
            return self._events_after_locked(topic, after)

    def wait(
        self, topic: str, after: int, timeout_s: Optional[float] = None
    ) -> List[SeqEvent]:
        """Block until ``topic`` has events at/after ``after`` (or
        timeout); returns them ([] on timeout).

        Publishes notify every waiter regardless of topic, so a single
        ``cond.wait`` would return empty as soon as *any* topic
        publishes — loop against an absolute deadline instead.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        with self._cond:
            while True:
                ready = self._events_after_locked(topic, after)
                if ready:
                    return ready
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(timeout=remaining)

    def _events_after_locked(self, topic: str, after: int) -> List[SeqEvent]:
        buffer = self._events.get(topic)
        if not buffer:
            return []
        return [(seq, event) for seq, event in buffer if seq >= after]
