"""SSF evaluation service (``repro.service``).

A long-lived layer over :mod:`repro.campaign` that makes the framework
multi-tenant: clients submit :class:`~repro.campaign.spec.CampaignSpec`
documents, the service deduplicates identical work by canonical spec
hash, queues and executes campaigns under bounded concurrency, caches
finished results content-addressed by that hash, and serves estimates,
live status, and observability reports over HTTP.

* :mod:`repro.service.jobs` — durable JSONL job log
  (:mod:`repro.utils.durable`) + priority queue;
* :mod:`repro.service.cache` — spec-hash result cache over run
  directories, with partial-run reuse via ``campaign resume``;
* :mod:`repro.service.service` — :class:`EvaluationService`: submit /
  dedup / worker pool / cancel / metrics;
* :mod:`repro.service.router` — transport-agnostic route table
  (campaign API + fleet protocol + SSE);
* :mod:`repro.service.server` — threaded stdlib HTTP API
  (``POST /v1/campaigns`` and friends);
* :mod:`repro.service.client` — thin client used by the CLI verbs
  ``repro submit|status|result|cancel`` and by fleet workers.
"""

from repro.campaign.spec_hash import (
    canonical_spec_dict,
    canonical_spec_json,
    code_version_salt,
    spec_hash,
)
from repro.service.cache import CacheHit, ResultCache, result_payload
from repro.service.client import ServiceClient
from repro.service.jobs import (
    ACTIVE_STATES,
    JOB_STATES,
    Job,
    JobQueue,
    JobStore,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    TERMINAL_STATES,
)
from repro.service.router import ApiRequest, ApiResponse, ApiRouter
from repro.service.server import ServiceHTTPServer, ServiceServer
from repro.service.service import (
    DISPATCH_FLEET,
    DISPATCH_LOCAL,
    EvaluationService,
    JobCancelled,
)

__all__ = [
    "ACTIVE_STATES",
    "ApiRequest",
    "ApiResponse",
    "ApiRouter",
    "CacheHit",
    "DISPATCH_FLEET",
    "DISPATCH_LOCAL",
    "EvaluationService",
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "JobQueue",
    "JobStore",
    "ResultCache",
    "STATE_CANCELLED",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "ServiceClient",
    "ServiceHTTPServer",
    "ServiceServer",
    "TERMINAL_STATES",
    "canonical_spec_dict",
    "canonical_spec_json",
    "code_version_salt",
    "result_payload",
    "spec_hash",
]
