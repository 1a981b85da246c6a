"""Outside-in span recorder: the benchmark's view of where time goes.

Every span comes from a wrapper this module installs around a *public*
function of the package (the layer table below); nothing inside the
package is instrumented.  A span records its name, layer, start, end,
parent span and thread, under one trace id per workload run.  Parent
stacks are per thread, so spans opened on the service's job and HTTP
threads nest under their own callers.  Hot leaves (tens of thousands of
calls per run) are aggregated as a call count plus busy time instead of
one span per call.

Self time per layer comes from one timeline, so layer totals plus the
unaccounted remainder add up to wall time exactly.  Each instant is
attributed to the innermost open span of the highest-priority thread
that has one open: a campaign (job) thread first, then the HTTP handler
threads, then the thread that runs the workload, which only waits
while the others work.  A span's leaf busy time is carved out of its
attributed time in proportion.  Instants covered by no span, or only by
the root span, are ``trace.unaccounted_s``.

With ``timed=False`` the wrappers only count calls.  Untraced runs use
that mode to report the exact work counts without timing anything.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Layers, in report order.
LAYERS = (
    "context", "precharac", "sampling", "attack", "engine", "gatesim",
    "rtl", "analytical", "campaign", "obs", "service", "sweep",
)

SPAN, LEAF = "span", "leaf"

#: (module, qualified attribute, span name, layer, kind).  Names are the
#: metric prefixes used by :func:`layer_metrics`.
TARGETS = (
    ("repro.soc.mpu", "build_mpu_netlist", "context.elaborate", "context", SPAN),
    ("repro.netlist.placement", "GridPlacer.place", "context.place", "context", SPAN),
    ("repro.rtl.simulator", "RtlSimulator.golden_run", "context.golden", "context", SPAN),
    ("repro.campaign.spec", "CampaignSpec.build_runtime", "context.build", "context", SPAN),
    ("repro.netlist.cones", "ConeExtractor.extract_many", "precharac.cones", "precharac", SPAN),
    ("repro.precharac.signatures", "compute_signatures", "precharac.signatures", "precharac", SPAN),
    ("repro.precharac.signatures", "correlate_cones", "precharac.correlate", "precharac", SPAN),
    ("repro.precharac.lifetime", "run_lifetime_campaign", "precharac.lifetime", "precharac", SPAN),
    ("repro.precharac.persistence", "load_characterization", "precharac.load", "precharac", SPAN),
    ("repro.sampling.importance", "ImportanceSampler.__init__", "sampling.init", "sampling", SPAN),
    ("repro.sampling.importance", "ImportanceSampler.sample", "sampling.draw", "sampling", LEAF),
    ("repro.attack.spec", "AttackSpec.build_injection", "attack.injection", "attack", LEAF),
    ("repro.core.engine", "CrossLevelEngine.evaluate", "engine.evaluate", "engine", SPAN),
    ("repro.core.engine", "CrossLevelEngine.run_batch", "engine.batch", "engine", SPAN),
    ("repro.gatesim.transient", "TransientSimulator.simulate_cycle_batch", "gatesim.batch", "gatesim", SPAN),
    ("repro.gatesim.transient", "TransientSimulator.simulate_cycle", "gatesim.scalar", "gatesim", SPAN),
    ("repro.gatesim.transient", "TransientSimulator.make_baseline", "gatesim.baseline", "gatesim", SPAN),
    ("repro.rtl.simulator", "RtlSimulator.restart_from", "rtl.restart", "rtl", SPAN),
    ("repro.rtl.simulator", "RtlSimulator.run_to", "rtl.run_to", "rtl", SPAN),
    ("repro.rtl.simulator", "RtlSimulator.step", "rtl.step", "rtl", LEAF),
    ("repro.core.analytical", "AnalyticalEvaluator.evaluate", "analytical.eval", "analytical", SPAN),
    ("repro.campaign.runner", "CampaignRunner.run", "campaign.run", "campaign", SPAN),
    ("repro.campaign.store", "RunStore.append_chunk", "campaign.append", "campaign", SPAN),
    ("repro.campaign.store", "RunStore.write_checkpoint", "campaign.checkpoint", "campaign", SPAN),
    ("repro.campaign.store", "RunStore.write_metrics", "obs.export", "obs", SPAN),
    ("repro.obs.metrics", "MetricsRegistry.merge_snapshot", "obs.merge", "obs", SPAN),
    ("repro.service.client", "ServiceClient.submit_many", "service.submit", "service", SPAN),
    ("repro.service.client", "ServiceClient.status", "service.status", "service", SPAN),
    ("repro.service.client", "ServiceClient.result", "service.result", "service", SPAN),
    ("repro.service.router", "ApiRouter.handle", "service.router", "service", SPAN),
    ("repro.service.jobs", "JobStore.record_update", "service.jobstore", "service", SPAN),
    ("repro.service.artifacts", "CycleBaselineStore.load", "service.store_load", "service", LEAF),
    ("repro.service.artifacts", "CycleBaselineStore.save", "service.store_save", "service", SPAN),
    ("repro.sweep.report", "build_report", "sweep.report", "sweep", SPAN),
)

#: Span names whose calls are the benchmark's exact work counts; the
#: untraced run installs counting wrappers on these only.
COUNTED = (
    "engine.batch", "gatesim.batch", "gatesim.scalar", "rtl.step",
    "rtl.restart", "rtl.run_to", "analytical.eval", "campaign.append",
)


def _note_batch(extra, args, kwargs, result) -> None:
    injections = args[3] if len(args) > 3 else kwargs["injections"]
    extra["gatesim.batch_samples"] += len(injections)
    extra["gatesim.latched"] += sum(1 for r in result if r.flipped_bits)


def _note_scalar(extra, args, kwargs, result) -> None:
    extra["gatesim.latched"] += 1 if result.flipped_bits else 0


def _note_store(extra, args, kwargs, result) -> None:
    extra.setdefault("stores", {})[id(args[0])] = args[0]


def _note_engine(extra, args, kwargs, result) -> None:
    extra.setdefault("engines", {})[id(args[0])] = args[0]


#: Per-call observers: extra counts read off arguments and results.
OBSERVERS: Dict[str, Callable] = {
    "gatesim.batch": _note_batch,
    "gatesim.scalar": _note_scalar,
    "service.store_load": _note_store,
    "engine.evaluate": _note_engine,
    "engine.batch": _note_engine,
}


class _Frame:
    __slots__ = ("sid", "start", "child_s", "leaf_s")

    def __init__(self, sid: int, start: float):
        self.sid = sid
        self.start = start
        self.child_s = 0.0
        self.leaf_s: Dict[str, float] = {}


class SpanRecorder:
    """Installs wrappers, records spans in memory, summarizes per layer."""

    def __init__(self, trace_id: str, timed: bool = True):
        self.trace_id = trace_id
        self.timed = timed
        # (sid, name, layer, start, end, parent sid, thread, leaf_s)
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.extra: Dict = defaultdict(int)
        self._leaf_aggs: List[Dict[str, list]] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self.active = False

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _leaf_agg(self) -> Dict[str, list]:
        agg = getattr(self._tls, "leaves", None)
        if agg is None:
            agg = self._tls.leaves = {}
            with self._lock:
                self._leaf_aggs.append(agg)
        return agg

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, kind: str):
        rec = self
        observe = OBSERVERS.get(name)
        calls = self.calls
        extra = self.extra

        if not self.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not rec.active:
                    return fn(*args, **kwargs)
                calls[name] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(extra, args, kwargs, result)
                return result

            return counted

        if kind == LEAF:

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                if not rec.active:
                    return fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    busy = time.perf_counter() - start
                    agg = rec._leaf_agg()
                    slot = agg.get(name)
                    if slot is None:
                        slot = agg[name] = [0, 0.0]
                    slot[0] += 1
                    slot[1] += busy
                    stack = rec._stack()
                    if stack:
                        top = stack[-1]
                        top.child_s += busy
                        top.leaf_s[layer] = top.leaf_s.get(layer, 0.0) + busy
                if observe is not None:
                    observe(extra, args, kwargs, result)
                return result

            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(next(rec._ids), time.perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += end - frame.start
                rec.spans.append((
                    frame.sid, name, layer, frame.start, end,
                    parent.sid if parent is not None else None,
                    threading.get_ident(), frame.leaf_s,
                ))
            if observe is not None:
                observe(extra, args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every target (counted ones only when untimed)."""
        for module_name, attr, name, layer, kind in TARGETS:
            if not self.timed and name not in COUNTED and name not in OBSERVERS:
                continue
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(original, name, layer, kind))
                self._patches.append((owner, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, layer, kind)
            # Rebind every module-level alias (``from x import f``).
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # root span (the measured region on the workload thread)
    # ------------------------------------------------------------------
    def open_root(self) -> None:
        self._root = _Frame(0, time.perf_counter())
        self._root_tid = threading.get_ident()
        self._stack().append(self._root)

    def close_root(self) -> Tuple[float, float]:
        """Close the measured region; returns its (start, end)."""
        end = time.perf_counter()
        self._stack().pop()
        root = self._root
        self.spans.append((0, "run", None, root.start, end, None,
                           self._root_tid, root.leaf_s))
        self.active = False
        return root.start, end

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def leaves(self) -> Dict[str, list]:
        merged: Dict[str, list] = {}
        for agg in self._leaf_aggs:
            for name, (count, busy) in agg.items():
                slot = merged.setdefault(name, [0, 0.0])
                slot[0] += count
                slot[1] += busy
        return merged

    def layer_self_times(self) -> Dict[str, float]:
        """Exclusive wall time per layer, plus ``unaccounted``."""
        root = next(s for s in self.spans if s[0] == 0)
        lo, hi = root[3], root[4]
        by_thread: Dict[int, list] = defaultdict(list)
        for span in self.spans:
            by_thread[span[6]].append(span)
        children: Dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[5] is not None:
                children[span[5]].append(span)

        priority = {}
        for tid, spans in by_thread.items():
            layers = {s[2] for s in spans}
            priority[tid] = (
                2 if tid == root[6]
                else 0 if "campaign" in layers or "engine" in layers
                else 1)

        # Self segments: each span's interval minus its child spans'.
        segments = []
        seg_len: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            cursor = max(span[3], lo)
            end = min(span[4], hi)
            for child in sorted(children[span[0]], key=lambda c: c[3]):
                if child[3] > cursor:
                    segments.append((cursor, min(child[3], end), span))
                cursor = max(cursor, child[4])
            if end > cursor:
                segments.append((cursor, end, span))
        for start, end, span in segments:
            seg_len[span[0]] += max(0.0, end - start)

        events = []
        for start, end, span in segments:
            if end > start:
                events.append((start, 1, span))
                events.append((end, 0, span))
        events.sort(key=lambda e: (e[0], e[1]))
        attributed: Dict[int, float] = defaultdict(float)
        active: Dict[int, tuple] = {}
        last = lo
        for at, opening, span in events:
            if active and at > last:
                owner = min(active.values(), key=lambda s: priority[s[6]])
                attributed[owner[0]] += at - last
            last = at
            if opening:
                active[span[6]] = span
            elif active.get(span[6]) is span:
                del active[span[6]]

        totals = {layer: 0.0 for layer in LAYERS}
        spans_by_id = {s[0]: s for s in self.spans}
        for sid, seconds in attributed.items():
            span = spans_by_id[sid]
            leaf_s = span[7]
            share = seconds / seg_len[sid] if seg_len[sid] else 0.0
            carved = 0.0
            for layer, busy in leaf_s.items():
                totals[layer] += busy * share
                carved += busy * share
            if span[2] is not None:
                totals[span[2]] += seconds - carved
        totals["unaccounted"] = (hi - lo) - sum(totals.values())
        return totals

    def inclusive(self) -> Dict[str, List[float]]:
        """Span name -> [calls, total inclusive seconds]."""
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            slot = out.setdefault(span[1], [0, 0.0])
            slot[0] += 1
            slot[1] += span[4] - span[3]
        return out

    def resumes(self) -> List[tuple]:
        """``run_to`` spans that are resumes (not inside a restart)."""
        names = {s[0]: s[1] for s in self.spans}
        return [
            s for s in self.spans
            if s[1] == "rtl.run_to" and names.get(s[5]) != "rtl.restart"
        ]

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` document of every recorded span."""
        root = next(s for s in self.spans if s[0] == 0)
        events = [
            {
                "name": name, "cat": layer or "run", "ph": "X",
                "ts": round((start - root[3]) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": tid,
                "args": {"trace_id": self.trace_id, "span_id": sid,
                         "parent": parent},
            }
            for sid, name, layer, start, end, parent, tid, _ in self.spans
        ]
        return {
            "traceEvents": events,
            "otherData": {
                "trace_id": self.trace_id,
                "leaves": {k: {"count": c, "busy_s": b}
                           for k, (c, b) in self.leaves().items()},
            },
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


#: Per-layer metrics of a traced run: name -> unit, in report order.
LAYER_METRICS = {
    "context.elaborate_s": "s", "context.place_s": "s",
    "context.golden_s": "s", "context.build_s": "s",
    "precharac.cones_s": "s", "precharac.signatures_s": "s",
    "precharac.correlate_s": "s", "precharac.lifetime_s": "s",
    "precharac.load_s": "s",
    "sampling.init_s": "s", "sampling.draws": "count", "sampling.draw_s": "s",
    "attack.injections": "count", "attack.injection_s": "s",
    "engine.batches": "count", "engine.baseline_hit_ratio": "ratio",
    "engine.outcome_dedup_ratio": "ratio",
    "gatesim.batch_calls": "count", "gatesim.batch_samples": "count",
    "gatesim.mean_batch": "samples", "gatesim.batch_s": "s",
    "gatesim.scalar_calls": "count", "gatesim.scalar_s": "s",
    "gatesim.baseline_s": "s", "gatesim.latched_frac": "ratio",
    "rtl.steps": "count", "rtl.step_s": "s", "rtl.resumes": "count",
    "rtl.resume_s": "s", "rtl.restarts": "count", "rtl.us_per_cycle": "us",
    "analytical.evals": "count", "analytical.eval_s": "s",
    "campaign.chunks": "count", "campaign.append_s": "s",
    "campaign.checkpoint_s": "s",
    "obs.merge_s": "s", "obs.export_s": "s",
    "service.submit_s": "s", "service.queue_wait_s": "s",
    "service.status_rtt_s": "s", "service.http_requests": "count",
    "service.router_s": "s", "service.jobstore_s": "s",
    "service.baseline_store_hit_ratio": "ratio",
    "service.baseline_store_writes": "count",
    "sweep.status_polls": "count", "sweep.report_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s", "trace.unaccounted_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, result: dict) -> Dict[str, float]:
    """The per-layer table of one traced run (``trace.overhead_frac`` is
    filled in by the caller, which holds the untraced run)."""
    inc = recorder.inclusive()
    leaves = recorder.leaves()
    counts = result["counts"]

    def calls(name):
        return inc.get(name, (0, 0.0))[0]

    def total(name):
        return inc.get(name, (0, 0.0))[1]

    def leaf(name):
        count, busy = leaves.get(name, (0, 0.0))
        return count, busy

    m: Dict[str, float] = {}
    for name in ("context.elaborate", "context.place", "context.golden",
                 "context.build", "precharac.cones", "precharac.signatures",
                 "precharac.correlate", "precharac.lifetime",
                 "precharac.load", "sampling.init"):
        m[f"{name}_s"] = total(name)
    m["sampling.draws"], m["sampling.draw_s"] = leaf("sampling.draw")
    m["attack.injections"], m["attack.injection_s"] = leaf("attack.injection")

    m["engine.batches"] = calls("engine.batch")
    hits = misses = 0
    for engine in recorder.extra.get("engines", {}).values():
        h, mi = engine.baseline_cache_stats
        hits, misses = hits + h, misses + mi
    m["engine.baseline_hit_ratio"] = _ratio(hits, hits + misses)
    # Latched single-cycle samples whose verdict needed no fresh resume or
    # analytical call: the engine's outcome memo answered them.
    single_latched = sum(c["latched"] for c in result["campaigns"]
                         if c["impact_cycles"] == 1)
    fresh = counts["analytical.evals"] + counts["rtl.resumes"]
    m["engine.outcome_dedup_ratio"] = (
        1.0 - fresh / single_latched if single_latched else 0.0)

    m["gatesim.batch_calls"] = calls("gatesim.batch")
    m["gatesim.batch_samples"] = counts["gatesim.batch_samples"]
    m["gatesim.mean_batch"] = _ratio(m["gatesim.batch_samples"],
                                     m["gatesim.batch_calls"])
    m["gatesim.batch_s"] = total("gatesim.batch")
    m["gatesim.scalar_calls"] = calls("gatesim.scalar")
    m["gatesim.scalar_s"] = total("gatesim.scalar")
    m["gatesim.baseline_s"] = total("gatesim.baseline")
    m["gatesim.latched_frac"] = _ratio(
        counts["gatesim.latched"],
        m["gatesim.batch_samples"] + m["gatesim.scalar_calls"])

    m["rtl.steps"], m["rtl.step_s"] = leaf("rtl.step")
    resumes = recorder.resumes()
    m["rtl.resumes"] = len(resumes)
    m["rtl.resume_s"] = sum(s[4] - s[3] for s in resumes)
    m["rtl.restarts"] = calls("rtl.restart")
    m["rtl.us_per_cycle"] = _ratio(m["rtl.step_s"] * 1e6, m["rtl.steps"])

    m["analytical.evals"] = calls("analytical.eval")
    m["analytical.eval_s"] = total("analytical.eval")
    m["campaign.chunks"] = calls("campaign.append")
    m["campaign.append_s"] = total("campaign.append")
    m["campaign.checkpoint_s"] = total("campaign.checkpoint")
    m["obs.merge_s"] = total("obs.merge")
    m["obs.export_s"] = total("obs.export")

    m["service.submit_s"] = total("service.submit")
    queued: Dict[str, float] = {}
    waited = 0.0
    for at, job, state in result["service_events"]:
        if state == "queued":
            queued.setdefault(job, at)
        elif state == "running" and job in queued:
            waited += at - queued.pop(job)
    m["service.queue_wait_s"] = waited
    m["service.status_rtt_s"] = _ratio(total("service.status"),
                                       calls("service.status"))
    m["service.http_requests"] = calls("service.router")
    m["service.router_s"] = total("service.router")
    m["service.jobstore_s"] = total("service.jobstore")
    hits = misses = 0
    for store in recorder.extra.get("stores", {}).values():
        hits, misses = hits + store.hits, misses + store.misses
    m["service.baseline_store_hit_ratio"] = _ratio(hits, hits + misses)
    m["service.baseline_store_writes"] = counts["service.baseline_store_writes"]
    m["sweep.status_polls"] = calls("service.status")
    m["sweep.report_s"] = total("sweep.report")

    selfs = recorder.layer_self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    m["trace.wall_s"] = result["measured_s"]
    m["trace.unaccounted_s"] = selfs["unaccounted"]
    return m
