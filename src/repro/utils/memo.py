"""A bounded, thread-safe build-once memo.

:class:`LruMemo` maps a key to the value its builder returned, keeps the
``size`` most recently used keys and evicts the least recently used one
past that.  The rules, each stated and tested once here:

* **One build per key at a time.**  Threads asking for a key that is
  being built wait for that build instead of running their own; builds
  of different keys run concurrently (the builder runs outside the
  memo's lock).
* **A build that raises leaves no entry.**  The error reaches the caller
  whose build raised; a caller that was waiting on it then builds the
  key itself.
* **No flags.**  The bound is the caller's constant; the memo has no
  switch to turn it off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Set, TypeVar

T = TypeVar("T")


class LruMemo:
    """Values by key, built once and kept for the ``size`` latest keys."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"memo size must be at least 1, got {size}")
        self.size = size
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._building: Set[Hashable] = set()
        self._cond = threading.Condition()

    def __contains__(self, key: Hashable) -> bool:
        with self._cond:
            return key in self._entries

    def __len__(self) -> int:
        with self._cond:
            return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value of ``key``, built by ``build()`` on a miss."""
        with self._cond:
            while key in self._building:
                self._cond.wait()
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]  # type: ignore[return-value]
            self._building.add(key)
        try:
            value = build()
            with self._cond:
                self._entries[key] = value
                while len(self._entries) > self.size:
                    self._entries.popitem(last=False)
        finally:
            with self._cond:
                self._building.discard(key)
                self._cond.notify_all()
        return value

    def clear(self) -> None:
        """Drop every entry (builds in flight still finish and insert)."""
        with self._cond:
            self._entries.clear()
