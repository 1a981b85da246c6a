"""Observability for the cross-level pipeline (``repro.obs``).

Three concerns, one vocabulary:

* **metrics** — a process-local registry (counters, gauges, fixed-edge
  histograms, top-k summaries) whose serialized snapshots merge exactly
  across worker shards and across interrupt/resume boundaries
  (:mod:`repro.obs.metrics`, :mod:`repro.obs.engine_metrics`);
* **tracing** — span records per engine stage and per campaign event,
  no-op by default, exportable as Chrome ``trace_event`` JSON
  (:mod:`repro.obs.tracing`);
* **reporting** — stage-time breakdowns, masking funnels, and slowest
  samples rendered from a run's ``metrics.jsonl`` alone
  (:mod:`repro.obs.report`), plus the shared obs logger with one-time
  warnings (:mod:`repro.obs.logging`).
"""

from repro.obs.engine_metrics import (
    FUNNEL_STAGES,
    STAGES,
    metrics_from_records,
)
from repro.obs.logging import (
    LogBuffer,
    get_logger,
    reset_warn_once,
    warn_once,
)
from repro.obs.metrics import (
    BIT_COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SECONDS_BUCKETS,
    TopK,
    deterministic_view,
)
from repro.obs.report import (
    campaign_summary,
    load_metrics_jsonl,
    masking_funnel,
    outcome_rates,
    render_report,
    slowest_samples,
    stage_breakdown,
)
from repro.obs.service_metrics import (
    cache_hit_ratio,
    record_cache_request,
    record_submission,
    update_job_gauges,
)
from repro.obs.tracing import (
    NULL_CLOCK,
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    StageClock,
    Tracer,
)

__all__ = [
    "BIT_COUNT_BUCKETS",
    "Counter",
    "FUNNEL_STAGES",
    "Gauge",
    "Histogram",
    "LogBuffer",
    "MetricsRegistry",
    "NULL_CLOCK",
    "NULL_TRACER",
    "NullTracer",
    "SECONDS_BUCKETS",
    "STAGES",
    "SpanEvent",
    "StageClock",
    "TopK",
    "Tracer",
    "cache_hit_ratio",
    "campaign_summary",
    "deterministic_view",
    "get_logger",
    "record_cache_request",
    "record_submission",
    "update_job_gauges",
    "load_metrics_jsonl",
    "masking_funnel",
    "metrics_from_records",
    "outcome_rates",
    "render_report",
    "reset_warn_once",
    "slowest_samples",
    "stage_breakdown",
    "warn_once",
]
