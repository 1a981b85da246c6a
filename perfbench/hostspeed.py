"""Host-speed normalization of the end-to-end times.

On a shared host the CPU speed a process gets swings by tens of percent
within a minute (SMT siblings and neighbours, not steal), so identical
runs of one commit read up to 50% apart in plain wall time.  To compare
commits, every end-to-end time is also reported at a fixed nominal host
speed: while a workload runs, a sampler thread on the workload's own
(pinned) CPU times a fixed piece of reference work every
:data:`PERIOD_S`; an interval's time is its wall time minus the
sampler's own share, scaled by ``NOMINAL_S / mean reference time`` over
that interval.  The reference work is defined here, not in the code
under test, so it is the same on every commit; a slower commit still
reads slower, while a slower host does not.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Tuple

import numpy as np

#: Seconds between reference samples (each costs about 1% of a period).
PERIOD_S = 0.2

#: Reference-work duration that defines the nominal host speed.
NOMINAL_S = 1.5e-3

#: Fewest reference samples an interval is scaled by; shorter intervals
#: widen their window symmetrically until they have this many.
MIN_SAMPLES = 15


class _Node:
    __slots__ = ("nid", "value", "fanout")

    def __init__(self, nid: int):
        self.nid = nid
        self.value = nid & 1
        self.fanout = [(nid * 7 + k) % 512 for k in range(3)]


_NODES = [_Node(i) for i in range(512)]
_NAMES = [f"r{i}" for i in range(64)]
_WORDS = np.arange(256, dtype=np.int64)


def reference_work() -> float:
    """A fixed mix of object, dict, float and small-numpy work (~2 ms)."""
    registers: dict = {}
    acc = 0.0
    for _ in range(4):
        for node in _NODES:
            value = node.value
            for out in node.fanout:
                value ^= _NODES[out].value
            name = _NAMES[node.nid & 63]
            registers[name] = registers.get(name, 0) + value
            acc += value * 1.5
        for _ in range(20):
            acc += int((_WORDS ^ (_WORDS >> 1)).sum() & 1)
    return acc


def pin_to_one_cpu() -> None:
    """Keep the workload and the sampler on the same CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """Samples the reference work on a background thread."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-host-speed", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            reference_work()
            self.samples.append((start, time.perf_counter()))

    def _window(self, start: float, end: float) -> List[Tuple[float, float]]:
        inside = [s for s in self.samples if s[0] >= start and s[1] <= end]
        margin = PERIOD_S
        while len(inside) < MIN_SAMPLES and margin < 3600:
            inside = [s for s in self.samples
                      if s[0] >= start - margin and s[1] <= end + margin]
            margin *= 2
        return inside

    def normalize(self, start: float, end: float) -> float:
        """Seconds the interval would take at the nominal host speed."""
        stolen = sum(e - s for s, e in self.samples
                     if s >= start and e <= end)
        durations = sorted(e - s for s, e in self._window(start, end))
        if not durations:
            raise RuntimeError("no host-speed samples were taken")
        cut = len(durations) // 10
        kept = durations[cut:len(durations) - cut]
        return (end - start - stolen) * NOMINAL_S / (sum(kept) / len(kept))
