"""Durable sweep store: spec + append-only point log + atomic report.

Layout of one sweep directory (``<root>/<sweep_id>/``)::

    sweep.json    the SweepSpec (written once at creation)
    points.jsonl  one JSON line per point event (submitted / state change)
    report.json   the canonical comparative report (atomic, written last)

The point log is a :class:`~repro.utils.durable.JsonlLog` (fsynced
before each append returns), and ``sweep.json`` and the report are
written with :func:`~repro.utils.durable.atomic_write`, so readers never
observe a half-written file.

The point log is *advisory* for correctness — resume does not replay it
to decide what to submit.  A restarted sweep simply re-expands the spec
and resubmits every point: the service's content-addressed dedup turns
each resubmission into a coalesce (active job), a cache hit (finished
run), or an adopted resume (interrupted run).  The log exists so
``repro sweep status`` can answer without a live coordinator.
"""

from __future__ import annotations

import json
import pathlib
import uuid
from typing import Dict, List, Optional, Union

from repro.errors import SweepError
from repro.sweep.spec import SweepSpec
from repro.utils.durable import JsonlLog, atomic_write

SWEEP_FILE = "sweep.json"
POINTS_FILE = "points.jsonl"
REPORT_FILE = "report.json"


class SweepStore:
    """Filesystem persistence for one hardening sweep."""

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self._points = JsonlLog(
            self.path / POINTS_FILE, name="sweep point log", error=SweepError
        )

    @property
    def sweep_id(self) -> str:
        return self.path.name

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: Union[str, pathlib.Path],
        spec: SweepSpec,
        sweep_id: Optional[str] = None,
    ) -> "SweepStore":
        sweep_id = sweep_id or uuid.uuid4().hex[:12]
        path = pathlib.Path(root) / sweep_id
        if (path / SWEEP_FILE).exists():
            raise SweepError(
                f"sweep {sweep_id!r} already exists at {path}"
            )
        path.mkdir(parents=True, exist_ok=True)
        store = cls(path)
        atomic_write(path / SWEEP_FILE, spec.to_json())
        return store

    @classmethod
    def open(
        cls, root: Union[str, pathlib.Path], sweep_id: str
    ) -> "SweepStore":
        path = pathlib.Path(root) / sweep_id
        if not (path / SWEEP_FILE).exists():
            raise SweepError(f"no sweep {sweep_id!r} under {root}")
        return cls(path)

    @classmethod
    def exists(
        cls, root: Union[str, pathlib.Path], sweep_id: str
    ) -> bool:
        return (pathlib.Path(root) / sweep_id / SWEEP_FILE).exists()

    @classmethod
    def list_sweeps(cls, root: Union[str, pathlib.Path]) -> List[str]:
        root = pathlib.Path(root)
        if not root.exists():
            return []
        return sorted(
            p.name for p in root.iterdir() if (p / SWEEP_FILE).exists()
        )

    def load_spec(self) -> SweepSpec:
        try:
            data = json.loads((self.path / SWEEP_FILE).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SweepError(
                f"cannot load sweep spec for {self.sweep_id}: {exc}"
            ) from exc
        return SweepSpec.from_dict(data)

    # ------------------------------------------------------------------
    # append-only point log
    # ------------------------------------------------------------------
    def record_point(self, payload: dict) -> None:
        """Durably append one point event (fsynced before returning).

        ``payload`` must carry the point's ``label``; later events for
        the same label supersede earlier ones on read.
        """
        self._points.append(payload)

    def read_points(self) -> Dict[str, dict]:
        """Fold the committed point log into latest-state-per-label."""
        out: Dict[str, dict] = {}
        for payload in self._points.replay():
            label = payload.get("label")
            if label is not None:
                out[label] = {**out.get(label, {}), **payload}
        return out

    # ------------------------------------------------------------------
    # report (atomic, written once at aggregation)
    # ------------------------------------------------------------------
    def write_report(self, text: str) -> None:
        """Atomically replace ``report.json`` with the canonical text."""
        atomic_write(self.path / REPORT_FILE, text)

    def read_report_text(self) -> Optional[str]:
        target = self.path / REPORT_FILE
        if not target.exists():
            return None
        return target.read_text()

    def read_report(self) -> Optional[dict]:
        text = self.read_report_text()
        if text is None:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepError(
                f"corrupt sweep report for {self.sweep_id}: {exc}"
            ) from exc
