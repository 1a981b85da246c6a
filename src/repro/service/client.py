"""Thin HTTP client for the evaluation service (stdlib ``urllib``).

Used by the ``repro submit|status|result|cancel`` CLI verbs, by fleet
workers (``lease`` / ``heartbeat`` / ``post_chunk``), and by tests; any
HTTP or transport failure surfaces as
:class:`~repro.errors.ServiceError` carrying the status code, so
callers never touch ``urllib`` exceptions directly.

Transport failures (connection refused, timeouts — *not* HTTP error
statuses) on **GET** requests are retried with exponential backoff:
GETs here are idempotent, and a service restarting under a poll loop
shouldn't fail its clients.  Non-idempotent verbs never retry at this
layer — submitting twice could enqueue twice — callers that can retry
safely (the fleet worker's lease loop) do it themselves.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Optional, Union

from repro.campaign.spec import CampaignSpec
from repro.errors import ServiceError
from repro.service.jobs import TERMINAL_STATES
from repro.service.router import MAX_POLL_WAIT_S


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

    ``retries`` / ``retry_backoff_s`` shape the idempotent-GET retry
    policy: attempt ``retries`` extra times after a transport failure,
    sleeping ``retry_backoff_s * 2**attempt`` between tries.  Defaults
    keep the worst case under a second so "service is down" still fails
    fast.

    ``sleep`` injects the backoff clock: tests pass a stub and assert
    the exact sleep sequence without paying wall-clock time (the default
    resolves ``time.sleep`` at call time, so monkeypatching the module
    attribute keeps working too).
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        retries: int = 2,
        retry_backoff_s: float = 0.1,
        sleep=None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.retry_backoff_s = retry_backoff_s
        self.sleep = sleep

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        as_text: bool = False,
    ):
        attempts = 1 + (self.retries if method == "GET" else 0)
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, body, as_text)
            except ServiceError as exc:
                # status == 0 marks a transport failure; HTTP errors
                # (4xx/5xx) are real answers and never retried.
                if exc.status != 0 or attempt == attempts - 1:
                    raise
                (self.sleep or time.sleep)(
                    self.retry_backoff_s * (2 ** attempt)
                )

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        as_text: bool = False,
    ):
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            raise ServiceError(
                f"{method} {path} failed ({exc.code}): {detail}",
                status=exc.code,
            ) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc}"
            ) from exc
        text = raw.decode("utf-8")
        return text if as_text else json.loads(text)

    # ------------------------------------------------------------------
    # API verbs
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: Union[CampaignSpec, dict],
        priority: int = 0,
    ) -> dict:
        spec_data = spec.to_dict() if isinstance(spec, CampaignSpec) else spec
        return self._request(
            "POST",
            "/v1/campaigns",
            body={"spec": spec_data, "priority": priority},
        )

    def submit_many(
        self,
        specs,
        priority: int = 0,
    ) -> list:
        """Submit N specs in one ``POST /v1/campaigns/batch``.

        Sweep fan-out calls this instead of N :meth:`submit` round
        trips: one connection, one request, per-spec job documents back
        in input order.  Like :meth:`submit`, the POST is never retried
        at this layer — although batch submission *is* idempotent under
        the service's spec-hash dedup, the transport cannot know that.
        """
        payload = [
            spec.to_dict() if isinstance(spec, CampaignSpec) else spec
            for spec in specs
        ]
        response = self._request(
            "POST",
            "/v1/campaigns/batch",
            body={"specs": payload, "priority": priority},
        )
        return response["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/campaigns/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/campaigns/{job_id}/result")

    def report(self, job_id: str) -> str:
        return self._request(
            "GET", f"/v1/campaigns/{job_id}/report", as_text=True
        )

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/campaigns/{job_id}")

    def list_jobs(self) -> dict:
        return self._request("GET", "/v1/campaigns")

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics_text(self) -> str:
        return self._request("GET", "/v1/metrics", as_text=True)

    # ------------------------------------------------------------------
    # fleet protocol
    # ------------------------------------------------------------------
    def lease(self, worker: str) -> dict:
        """Ask the coordinator for a chunk lease (or an idle notice)."""
        return self._request("POST", "/v1/lease", body={"worker": worker})

    def heartbeat(self, lease_id: str) -> dict:
        return self._request(
            "POST", "/v1/heartbeat", body={"lease_id": lease_id}
        )

    def post_chunk(self, payload: dict) -> dict:
        """Stream one completed chunk result back to the coordinator."""
        return self._request("POST", "/v1/chunks", body=payload)

    def post_telemetry(self, payload: dict) -> dict:
        """Ship an out-of-band telemetry bundle (no result attached)."""
        return self._request("POST", "/v1/telemetry", body=payload)

    def fleet_status(self) -> dict:
        return self._request("GET", "/v1/fleet")

    def events(
        self, job_id: str, after: int = 0, timeout_s: float = 10.0
    ) -> dict:
        """One long-poll turn of the job's progress event stream."""
        return self._request(
            "GET",
            f"/v1/campaigns/{job_id}/events"
            f"?poll=1&after={int(after)}&timeout={timeout_s:g}",
        )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def events_turn(
        self, job_id: str, after: int, poll_s: float, deadline: float
    ) -> dict:
        """One long-poll turn of the job's event stream.

        The turn returns as soon as the job has events at or after
        ``after``, and blocks at most ``poll_s``.  It never blocks past
        ``deadline`` (a :func:`time.monotonic` value), past the
        service's :data:`~repro.service.router.MAX_POLL_WAIT_S`, or for
        more than half this client's socket timeout: a turn that
        outlives the socket would be retried as a transport failure.
        """
        timeout_s = min(
            poll_s,
            deadline - time.monotonic(),
            MAX_POLL_WAIT_S,
            self.timeout_s / 2,
        )
        return self.events(job_id, after=after, timeout_s=max(0.0, timeout_s))

    def wait(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        poll_s: float = 0.2,
    ) -> dict:
        """Block until the job reaches a terminal state; returns its
        final status document.

        The wait follows the job's event stream, so it returns when the
        job ends, not at the next poll.  ``poll_s`` is the longest one
        turn blocks without events before the job's status is read
        again: that read ends the wait on a job whose events this
        service process no longer holds.
        """
        deadline = time.monotonic() + timeout_s
        after = 0
        while True:
            page = self.events_turn(job_id, after, poll_s, deadline)
            after = page["next_after"]
            expired = time.monotonic() >= deadline
            if page["end"] or not page["events"] or expired:
                status = self.status(job_id)
                if status["state"] in TERMINAL_STATES:
                    return status
                if expired:
                    raise ServiceError(
                        f"job {job_id} still {status['state']} after "
                        f"{timeout_s:.0f}s"
                    )
