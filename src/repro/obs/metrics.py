"""Process-local metrics registry with deterministic shard merging.

Four collector types, all serializable to plain JSON:

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — last-written value (chunk-order merges make "last"
  deterministic);
* :class:`Histogram` — *fixed* bucket edges declared at creation time, so
  merging two shards is exact bucket-wise addition (no re-binning, no
  approximation — the property the cross-worker determinism tests pin);
* :class:`TopK` — bounded keep-the-largest summary (slowest samples).

Every collector carries a ``deterministic`` flag: a deterministic metric
is a pure function of the campaign's sample records and therefore must be
bit-identical across worker counts and across interrupt/resume
boundaries.  Wall-clock metrics (any name ending in ``_seconds``) and
operational event counters are flagged non-deterministic and excluded by
:func:`deterministic_view`, which the equality tests compare.

The registry is deliberately process-local and lock-free: worker
processes each own a fresh registry per chunk, serialize it into the
chunk result (:meth:`MetricsRegistry.snapshot`), and the campaign runner
merges the snapshots strictly in chunk-index order
(:meth:`MetricsRegistry.merge_snapshot`).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Shared edges for wall-clock stage/sample timings (seconds, log-spaced).
SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)

#: Edges for per-sample flipped-bit counts (integer-valued observations).
BIT_COUNT_BUCKETS: Tuple[float, ...] = (0.5, 1.5, 2.5, 4.5, 8.5, 16.5, 32.5)


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _default_deterministic(name: str) -> bool:
    return not name.endswith("_seconds")


class _Metric:
    """Shared identity bits of every collector."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelItems, deterministic: bool):
        self.name = name
        self.labels = labels
        self.deterministic = deterministic

    def _head(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "deterministic": self.deterministic,
        }


class Counter(_Metric):
    kind = "counter"

    def __init__(self, name, labels, deterministic):
        super().__init__(name, labels, deterministic)
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict:
        return {**self._head(), "value": self.value}

    def merge(self, data: dict) -> None:
        self.value += data["value"]


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name, labels, deterministic):
        super().__init__(name, labels, deterministic)
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> dict:
        return {**self._head(), "value": self.value}

    def merge(self, data: dict) -> None:
        # Merges happen in chunk-index order, so last-write-wins is a
        # deterministic reduction.
        if data["value"] is not None:
            self.value = data["value"]


class Histogram(_Metric):
    """Fixed-edge histogram: ``counts[i]`` covers ``value <= edges[i]``,
    with one overflow bin above the last edge."""

    kind = "histogram"

    def __init__(self, name, labels, deterministic, edges: Sequence[float]):
        super().__init__(name, labels, deterministic)
        if not edges or list(edges) != sorted(edges):
            raise ValueError(
                f"histogram {name} needs sorted, non-empty bucket edges"
            )
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value``, ``count`` times over."""
        lo, hi = 0, len(self.edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += count
        self.sum += value * count
        self.count += count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) by linear interpolation
        within the containing bucket.

        Observations in the overflow bin (above the last edge) clamp to
        the last edge — with fixed edges that is the honest answer, and
        it keeps p99 finite for SLO gauges.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts[:-1]):
            prev = cumulative
            cumulative += n
            if cumulative >= rank and n:
                lo = self.edges[i - 1] if i else 0.0
                hi = self.edges[i]
                return lo + (hi - lo) * ((rank - prev) / n)
        return self.edges[-1]

    def to_dict(self) -> dict:
        return {
            **self._head(),
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, data: dict) -> None:
        if tuple(data["edges"]) != self.edges:
            raise ValueError(
                f"histogram {self.name}: cannot merge mismatched bucket "
                f"edges {tuple(data['edges'])} vs {self.edges}"
            )
        for i, n in enumerate(data["counts"]):
            self.counts[i] += n
        self.sum += data["sum"]
        self.count += data["count"]


class TopK(_Metric):
    """Keeps the ``k`` largest ``(value, labels)`` observations."""

    kind = "topk"

    def __init__(self, name, labels, deterministic, k: int):
        super().__init__(name, labels, deterministic)
        self.k = max(1, int(k))
        self.items: List[dict] = []

    def offer(self, value: float, **item_labels: object) -> None:
        self.items.append(
            {"value": float(value), "labels": {k: v for k, v in item_labels.items()}}
        )
        self._trim()

    def _trim(self) -> None:
        self.items.sort(key=lambda it: (-it["value"], sorted(it["labels"].items())))
        del self.items[self.k:]

    def to_dict(self) -> dict:
        return {**self._head(), "k": self.k, "items": list(self.items)}

    def merge(self, data: dict) -> None:
        self.k = max(self.k, data["k"])
        self.items.extend(data["items"])
        self._trim()


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram, TopK)}


class MetricsRegistry:
    """Create-or-get collectors keyed by ``(name, labels)``."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, LabelItems], _Metric] = {}

    # ------------------------------------------------------------------
    # collector accessors
    # ------------------------------------------------------------------
    def _get(self, cls, name, labels, deterministic, **kwargs):
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            if deterministic is None:
                deterministic = _default_deterministic(name)
            metric = cls(name, key[1], deterministic, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name} already registered as {metric.kind}"
            )
        return metric

    def counter(
        self, name: str, deterministic: Optional[bool] = None, **labels
    ) -> Counter:
        return self._get(Counter, name, labels, deterministic)

    def gauge(
        self, name: str, deterministic: Optional[bool] = None, **labels
    ) -> Gauge:
        return self._get(Gauge, name, labels, deterministic)

    def histogram(
        self,
        name: str,
        edges: Sequence[float],
        deterministic: Optional[bool] = None,
        **labels,
    ) -> Histogram:
        return self._get(Histogram, name, labels, deterministic, edges=edges)

    def topk(
        self,
        name: str,
        k: int = 10,
        deterministic: Optional[bool] = None,
        **labels,
    ) -> TopK:
        return self._get(TopK, name, labels, deterministic, k=k)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def value(self, name: str, **labels) -> Optional[float]:
        """Scalar value of a counter/gauge, or ``None`` if absent."""
        metric = self._metrics.get((name, _label_items(labels)))
        if metric is None or not isinstance(metric, (Counter, Gauge)):
            return None
        return metric.value

    def remove(self, name: str, **labels) -> bool:
        """Drop one collector series (e.g. a departed worker's gauge);
        returns whether it existed."""
        return self._metrics.pop((name, _label_items(labels)), None) is not None

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._metrics)

    # ------------------------------------------------------------------
    # snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self, deterministic_only: bool = False) -> List[dict]:
        """JSON-able list of metric dicts, sorted by (name, labels)."""
        out = [
            metric.to_dict()
            for key, metric in sorted(self._metrics.items())
            if not deterministic_only or metric.deterministic
        ]
        return out

    def merge_snapshot(self, snapshot: Iterable[dict]) -> None:
        """Fold a serialized shard into this registry.

        Called strictly in chunk-index order by the campaign runner, which
        makes every reduction (including gauges' last-write-wins and float
        sums) deterministic for a given chunk plan.
        """
        for data in snapshot:
            cls = _KINDS[data["type"]]
            kwargs = {}
            if cls is Histogram:
                kwargs["edges"] = data["edges"]
            elif cls is TopK:
                kwargs["k"] = data["k"]
            metric = self._get(
                cls, data["name"], data["labels"], data["deterministic"],
                **kwargs,
            )
            metric.merge(data)

    @classmethod
    def from_snapshot(cls, snapshot: Iterable[dict]) -> "MetricsRegistry":
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        import json

        return "".join(
            json.dumps(data, sort_keys=True) + "\n" for data in self.snapshot()
        )

    def to_prometheus(self) -> str:
        """Prometheus text exposition (top-k summaries are skipped)."""
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        for data in self.snapshot():
            name, kind = data["name"], data["type"]
            if kind == "topk":
                continue
            if name not in seen_types:
                prom_kind = "histogram" if kind == "histogram" else kind
                lines.append(f"# TYPE {name} {prom_kind}")
                seen_types[name] = kind
            labels = data["labels"]
            if kind in ("counter", "gauge"):
                value = data["value"]
                lines.append(
                    f"{name}{_prom_labels(labels)} "
                    f"{_prom_number(0 if value is None else value)}"
                )
            else:
                cumulative = 0
                for edge, count in zip(data["edges"], data["counts"]):
                    cumulative += count
                    le = {**labels, "le": _prom_number(edge)}
                    lines.append(
                        f"{name}_bucket{_prom_labels(le)} {cumulative}"
                    )
                cumulative += data["counts"][-1]
                inf = {**labels, "le": "+Inf"}
                lines.append(f"{name}_bucket{_prom_labels(inf)} {cumulative}")
                lines.append(
                    f"{name}_sum{_prom_labels(labels)} "
                    f"{_prom_number(data['sum'])}"
                )
                lines.append(
                    f"{name}_count{_prom_labels(labels)} {data['count']}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _prom_number(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(value)


def deterministic_view(snapshot: Iterable[dict]) -> List[dict]:
    """The subset of a snapshot that must be identical across worker
    counts and interrupt/resume boundaries."""
    return [data for data in snapshot if data["deterministic"]]
