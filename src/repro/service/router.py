"""Transport-agnostic HTTP routing for the evaluation service.

:class:`ApiRouter` maps ``(method, path, query, body)`` onto
:class:`~repro.service.service.EvaluationService` calls and returns
plain :class:`ApiResponse` payloads — no sockets, no framework; the threaded
:mod:`repro.service.server` only parses requests and serializes
responses.  The one thing the router cannot finish by itself is a live
SSE stream: for ``GET /v1/campaigns/<id>/events`` it returns an
:class:`EventStreamResponse` *subscription descriptor* and the transport
drives the stream (a handler thread blocking on
:meth:`~repro.fleet.events.EventBus.wait`).  With ``?poll=1`` the same
route degrades to a single long-poll JSON response that any plain HTTP
client (``curl``) can consume.

Routes (all under ``/v1``)::

    POST   /v1/campaigns              submit a CampaignSpec (JSON body)
    POST   /v1/campaigns/batch        submit N specs in one request
    GET    /v1/campaigns              list jobs
    GET    /v1/campaigns/{id}         job status + live sample count
    GET    /v1/campaigns/{id}/result  SSF + Wilson CI (when done)
    GET    /v1/campaigns/{id}/report  rendered obs report (text/plain)
    GET    /v1/campaigns/{id}/events  SSE progress stream (?poll=1 ⇒ JSON)
    DELETE /v1/campaigns/{id}         cancel
    POST   /v1/lease                  fleet: lease a chunk
    POST   /v1/heartbeat              fleet: renew a lease
    POST   /v1/chunks                 fleet: post a chunk result
    POST   /v1/telemetry              fleet: out-of-band telemetry bundle
    GET    /v1/fleet                  fleet: workers + runs snapshot
    GET    /v1/healthz                liveness + job state counts
    GET    /v1/metrics                Prometheus text exposition
"""

from __future__ import annotations

import json
import urllib.parse
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.campaign.spec import CampaignSpec
from repro.errors import ReproError, ServiceError
from repro.fleet.events import EVENT_END
from repro.service.service import EvaluationService

API_PREFIX = "/v1"

#: Long-poll waits are clamped to this so dead clients release their
#: handler thread in bounded time.
MAX_POLL_WAIT_S = 30.0


@dataclass
class ApiRequest:
    """One parsed HTTP request, transport-independent."""

    method: str
    path: str                      # already stripped of query string
    query: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def from_target(
        cls, method: str, target: str, body: bytes = b""
    ) -> "ApiRequest":
        """Build from a raw request target (path + optional query)."""
        parsed = urllib.parse.urlsplit(target)
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        return cls(
            method=method.upper(),
            path=parsed.path.rstrip("/") or "/",
            query=query,
            body=body,
        )

    def json(self) -> dict:
        if not self.body:
            raise ServiceError("empty request body", status=400)
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"invalid JSON body: {exc}", status=400)
        if not isinstance(payload, dict):
            raise ServiceError(
                "request body must be a JSON object", status=400
            )
        return payload


@dataclass
class ApiResponse:
    """A complete response the transport just has to serialize."""

    status: int
    body: bytes
    content_type: str = "application/json"

    @classmethod
    def json(cls, status: int, payload) -> "ApiResponse":
        return cls(
            status,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    @classmethod
    def text(cls, status: int, text: str) -> "ApiResponse":
        return cls(
            status, text.encode("utf-8"), "text/plain; charset=utf-8"
        )


@dataclass
class EventStreamResponse:
    """SSE subscription descriptor; the transport owns the stream loop.

    ``topic`` is the event-bus topic (the job id) and ``after`` the
    first sequence number to deliver — a reconnecting client passes the
    last id it saw (+1) to resume without gaps.  The transport sends one
    ``format_sse`` frame per event and a comment frame every
    ``keepalive_s`` of silence, until it has delivered an
    ``EVENT_END``-typed event or the client disconnects.
    """

    topic: str
    after: int = 0
    keepalive_s: float = 15.0

    content_type = "text/event-stream"


def format_sse(seq: int, event: dict) -> bytes:
    data = json.dumps(event, sort_keys=True)
    return f"id: {seq}\ndata: {data}\n\n".encode("utf-8")


KEEPALIVE_FRAME = b": keepalive\n\n"


def is_end_event(event: dict) -> bool:
    return event.get("type") == EVENT_END


class ApiRouter:
    """Route table over one :class:`EvaluationService`."""

    def __init__(self, service: EvaluationService):
        self.service = service

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def handle(
        self, request: ApiRequest
    ) -> Union[ApiResponse, EventStreamResponse]:
        """Never raises: errors become ``{"error": ...}`` responses."""
        try:
            if not request.path.startswith(API_PREFIX):
                raise ServiceError(
                    f"unknown path {request.path!r}", status=404
                )
            return self._route(request)
        except ServiceError as exc:
            return ApiResponse.json(exc.status or 500, {"error": str(exc)})
        except ReproError as exc:
            return ApiResponse.json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - must answer the client
            return ApiResponse.json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(
        self, request: ApiRequest
    ) -> Union[ApiResponse, EventStreamResponse]:
        service = self.service
        method, path = request.method, request.path

        if path == f"{API_PREFIX}/healthz" and method == "GET":
            return ApiResponse.json(
                200,
                {
                    "status": "ok",
                    "jobs": service.state_counts(),
                    "queue_depth": service.queue.depth(),
                },
            )
        if path == f"{API_PREFIX}/metrics" and method == "GET":
            return ApiResponse.text(200, service.metrics_text())
        if path == f"{API_PREFIX}/fleet" and method == "GET":
            return ApiResponse.json(200, service.fleet_status())
        if path == f"{API_PREFIX}/lease" and method == "POST":
            payload = request.json()
            worker = payload.get("worker")
            if not worker:
                raise ServiceError("lease request needs a worker id",
                                   status=400)
            return ApiResponse.json(200, service.fleet_lease(str(worker)))
        if path == f"{API_PREFIX}/heartbeat" and method == "POST":
            payload = request.json()
            lease_id = payload.get("lease_id")
            if not lease_id:
                raise ServiceError("heartbeat needs a lease_id", status=400)
            return ApiResponse.json(
                200, service.fleet_heartbeat(str(lease_id))
            )
        if path == f"{API_PREFIX}/chunks" and method == "POST":
            return ApiResponse.json(
                200, service.fleet_submit_chunk(request.json())
            )
        if path == f"{API_PREFIX}/telemetry" and method == "POST":
            return ApiResponse.json(
                200, service.fleet_telemetry(request.json())
            )
        if path == f"{API_PREFIX}/campaigns":
            if method == "POST":
                return self._submit(request)
            if method == "GET":
                return ApiResponse.json(
                    200, {"jobs": service.list_jobs()}
                )
        if path == f"{API_PREFIX}/campaigns/batch" and method == "POST":
            return self._submit_batch(request)
        if path.startswith(f"{API_PREFIX}/campaigns/"):
            job_id, sub = self._job_path(path)
            if job_id:
                return self._job_route(request, job_id, sub)
        raise ServiceError(
            f"unknown route {method} {path!r}", status=404
        )

    @staticmethod
    def _job_path(path: str) -> Tuple[Optional[str], Optional[str]]:
        parts = [p for p in path.split("/") if p]
        # parts == ["v1", "campaigns", <id>?, <sub>?]
        job_id = parts[2] if len(parts) > 2 else None
        sub = parts[3] if len(parts) > 3 else None
        return job_id, sub

    def _submit(self, request: ApiRequest) -> ApiResponse:
        payload = request.json()
        spec_data = payload.get("spec", payload)
        priority = int(payload.get("priority", 0)) if "spec" in payload else 0
        try:
            spec = CampaignSpec.from_dict(spec_data)
        except (ReproError, TypeError) as exc:
            raise ServiceError(f"invalid campaign spec: {exc}", status=400)
        job, cache_hit = self.service.submit(spec, priority=priority)
        return ApiResponse.json(
            202 if job.state == "queued" else 200,
            {
                "job_id": job.job_id,
                "run_id": job.run_id,
                "spec_hash": job.spec_hash,
                "state": job.state,
                "cache_hit": cache_hit,
            },
        )

    def _submit_batch(self, request: ApiRequest) -> ApiResponse:
        """``POST /v1/campaigns/batch``: N specs, one request.

        All specs are validated before any is submitted, so a malformed
        entry rejects the whole batch without enqueueing a partial
        prefix — the caller can fix and resend the batch idempotently.
        """
        payload = request.json()
        raw_specs = payload.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ServiceError(
                "batch submit needs a non-empty 'specs' list", status=400
            )
        priority = int(payload.get("priority", 0))
        specs = []
        for index, spec_data in enumerate(raw_specs):
            try:
                specs.append(CampaignSpec.from_dict(spec_data))
            except (ReproError, TypeError) as exc:
                raise ServiceError(
                    f"invalid campaign spec at index {index}: {exc}",
                    status=400,
                )
        submitted = self.service.submit_many(specs, priority=priority)
        jobs = [
            {
                "job_id": job.job_id,
                "run_id": job.run_id,
                "spec_hash": job.spec_hash,
                "state": job.state,
                "cache_hit": cache_hit,
            }
            for job, cache_hit in submitted
        ]
        all_cached = all(entry["cache_hit"] for entry in jobs)
        return ApiResponse.json(
            200 if all_cached else 202, {"jobs": jobs}
        )

    def _job_route(
        self, request: ApiRequest, job_id: str, sub: Optional[str]
    ) -> Union[ApiResponse, EventStreamResponse]:
        service = self.service
        method = request.method
        if method == "DELETE" and sub is None:
            job = service.cancel(job_id)
            return ApiResponse.json(
                200, {"job_id": job.job_id, "state": job.state}
            )
        if method != "GET":
            raise ServiceError(
                f"unsupported method {method} for job {job_id}", status=404
            )
        if sub is None:
            return ApiResponse.json(200, service.job_status(job_id))
        if sub == "result":
            return ApiResponse.json(200, service.job_result(job_id))
        if sub == "report":
            return ApiResponse.text(200, service.job_report(job_id))
        if sub == "events":
            return self._events(request, job_id)
        raise ServiceError(f"unknown subresource {sub!r}", status=404)

    # ------------------------------------------------------------------
    # progress events
    # ------------------------------------------------------------------
    def _events(
        self, request: ApiRequest, job_id: str
    ) -> Union[ApiResponse, EventStreamResponse]:
        job = self.service.get_job(job_id)  # 404 for unknown jobs
        try:
            after = int(request.query.get("after", 0))
        except ValueError:
            raise ServiceError("'after' must be an integer", status=400)
        if request.query.get("poll"):
            return self._long_poll(request, job, after)
        if self._ended_without_events(job):
            end = {"type": EVENT_END, "job_id": job.job_id,
                   "state": job.state}
            return ApiResponse(
                200, format_sse(0, end), EventStreamResponse.content_type
            )
        return EventStreamResponse(topic=job_id, after=after)

    def _ended_without_events(self, job) -> bool:
        """A terminal job with no events on this process's in-memory
        bus (it finished before the process started, or is a cache hit
        on a run found on disk) has a stream that can only end: the
        long poll and the SSE stream both answer it with ``end`` at
        once."""
        return job.terminal and self.service.events.last_seq(job.job_id) == 0

    def _long_poll(self, request: ApiRequest, job, after: int) -> ApiResponse:
        """One blocking wait, answered as plain JSON.

        A terminal job answers instantly from the buffer (never parks
        the client), so ``curl`` against a finished run always returns,
        with ``end`` straight away if it finished before this process
        started.
        """
        try:
            timeout_s = float(request.query.get("timeout", 10.0))
        except ValueError:
            raise ServiceError("'timeout' must be a number", status=400)
        timeout_s = max(0.0, min(timeout_s, MAX_POLL_WAIT_S))
        bus = self.service.events
        if job.terminal:
            events = bus.events_after(job.job_id, after)
        else:
            events = bus.wait(job.job_id, after, timeout_s=timeout_s)
        next_after = max((seq for seq, _ in events), default=after - 1) + 1
        end = any(
            is_end_event(event) for _, event in events
        ) or self._ended_without_events(job)
        return ApiResponse.json(
            200,
            {
                "job_id": job.job_id,
                "events": [
                    {"seq": seq, "event": event} for seq, event in events
                ],
                "next_after": next_after,
                "end": end,
            },
        )
