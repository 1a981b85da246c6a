"""Observability logger with one-time warnings and structured records.

A thin veneer over :mod:`logging` so every subsystem warns through the
same ``repro.obs`` channel, plus :func:`warn_once` for hazards that would
otherwise spam once per chunk (e.g. a tracer dropping events past its
buffer bound).

:class:`LogBuffer` is the fleet-side companion: a bounded, JSON-able
buffer of structured log records bound to a correlation context (run id,
chunk index, lease id), so a worker's log lines can be shipped back with
its chunk result and land in the coordinator's per-run ``events.jsonl``
with enough context to join them against leases and spans.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set

_LOGGER_NAME = "repro.obs"
_warned_keys: Set[str] = set()
# warn_once is called from scheduler worker threads, HTTP handler
# threads, and the fleet sweeper; the check-then-add on the module
# global must be atomic or two racing callers both fire.
_warned_lock = threading.Lock()


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The shared observability logger (or a child of it)."""
    if name:
        return logging.getLogger(f"{_LOGGER_NAME}.{name}")
    return logging.getLogger(_LOGGER_NAME)


def warn_once(key: str, message: str, logger: Optional[logging.Logger] = None) -> bool:
    """Emit ``message`` as a warning the first time ``key`` is seen.

    Returns True when the warning actually fired (tests use this).
    Thread-safe: concurrent callers with the same key fire exactly once.
    """
    with _warned_lock:
        if key in _warned_keys:
            return False
        _warned_keys.add(key)
    (logger or get_logger()).warning(message)
    return True


def reset_warn_once() -> None:
    """Forget all one-time warning keys (test isolation)."""
    with _warned_lock:
        _warned_keys.clear()


class LogBuffer:
    """Bounded buffer of structured, correlation-ID'd log records.

    Each record is a plain JSON-able dict ``{"t": wall_s, "level": ...,
    "message": ..., **bound_context}``.  Workers bind the lease context
    once per chunk (:meth:`bind`), log through the buffer while
    evaluating, then :meth:`drain` the records into the telemetry
    payload shipped with the chunk result.  Also mirrors every record to
    the ordinary :mod:`logging` channel so local debugging is unchanged.
    """

    def __init__(self, capacity: int = 1000, logger_name: str = "fleet.worker"):
        self.capacity = max(1, capacity)
        self.n_dropped = 0
        self._records: Deque[dict] = deque()
        self._context: Dict[str, object] = {}
        self._logger = get_logger(logger_name)

    def bind(self, **context: object) -> None:
        """Attach correlation fields to every subsequent record."""
        self._context.update(context)

    def unbind(self, *keys: str) -> None:
        for key in keys:
            self._context.pop(key, None)

    def log(self, level: str, message: str, **fields: object) -> dict:
        record = {
            "t": time.time(),
            "level": level,
            "message": message,
            **self._context,
            **fields,
        }
        if len(self._records) >= self.capacity:
            self._records.popleft()
            self.n_dropped += 1
        self._records.append(record)
        self._logger.log(
            getattr(logging, level.upper(), logging.INFO), "%s %s", message, fields
        )
        return record

    def info(self, message: str, **fields: object) -> dict:
        return self.log("info", message, **fields)

    def warning(self, message: str, **fields: object) -> dict:
        return self.log("warning", message, **fields)

    def error(self, message: str, **fields: object) -> dict:
        return self.log("error", message, **fields)

    def records(self) -> List[dict]:
        """Snapshot of the buffered records (oldest first)."""
        return list(self._records)

    def drain(self) -> List[dict]:
        """Return and clear the buffered records."""
        out = list(self._records)
        self._records.clear()
        return out

    def __len__(self) -> int:
        return len(self._records)
