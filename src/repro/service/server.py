"""Threaded HTTP front-end for the evaluation service (stdlib only).

A thin transport over :class:`~repro.service.router.ApiRouter` on
:class:`http.server.ThreadingHTTPServer` — no framework, no new
dependencies.  All routing, validation, and error shaping lives in the
router; this module only parses requests (refusing a body it should not
read), serializes responses, and drives SSE streams: an
``text/event-stream`` subscription pins one handler thread that blocks
on the service event bus and relays frames until the job ends or the
client disconnects.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.errors import ServiceError
from repro.obs.logging import get_logger
from repro.service.router import (
    ApiRequest,
    ApiResponse,
    ApiRouter,
    EventStreamResponse,
    KEEPALIVE_FRAME,
    format_sse,
    is_end_event,
)
from repro.service.service import EvaluationService

#: Largest request body the server reads; a longer one is refused.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: How often the listener checks for a shutdown request: the longest
#: :meth:`ServiceServer.stop` waits for it (``serve_forever``'s default
#: is 0.5 s).
POLL_INTERVAL_S = 0.05


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service + router for handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: EvaluationService):
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.router = ApiRouter(service)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def service(self) -> EvaluationService:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def router(self) -> ApiRouter:
        return self.server.router  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        get_logger("service.http").debug(format, *args)

    def _read_body(self) -> bytes:
        """The request body; a ``Content-Length`` that is not an integer,
        is negative or exceeds :data:`MAX_BODY_BYTES` is a 400 raised
        before any body byte is read."""
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            raise ServiceError(f"invalid Content-Length {raw!r}", status=400)
        if length > MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=400)
        return self.rfile.read(length) if length else b""

    def _send_response(
        self, response: ApiResponse, close: bool = False
    ) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(response.body)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        try:
            body = self._read_body()
        except ServiceError as exc:
            # The body was never drained, so the connection cannot frame
            # another request: answer, then close.
            self._send_response(
                ApiResponse.json(exc.status, {"error": str(exc)}), close=True
            )
            return
        request = ApiRequest.from_target(method, self.path, body)
        outcome = self.router.handle(request)
        if isinstance(outcome, EventStreamResponse):
            self._stream_events(outcome)
        else:
            self._send_response(outcome)

    def _stream_events(self, stream: EventStreamResponse) -> None:
        """Relay bus events as SSE frames until end or disconnect.

        This pins the handler thread for the stream's lifetime.
        """
        self.send_response(200)
        self.send_header("Content-Type", stream.content_type)
        self.send_header("Cache-Control", "no-cache")
        # Stream until close: no Content-Length, so the connection ends
        # the response.
        self.send_header("Connection", "close")
        self.end_headers()
        bus = self.service.events
        after = stream.after
        try:
            while True:
                events = bus.wait(
                    stream.topic, after, timeout_s=stream.keepalive_s
                )
                if not events:
                    self.wfile.write(KEEPALIVE_FRAME)
                    self.wfile.flush()
                    continue
                for seq, event in events:
                    self.wfile.write(format_sse(seq, event))
                    after = seq + 1
                    if is_end_event(event):
                        self.wfile.flush()
                        return
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    # ------------------------------------------------------------------
    # verb entry points
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class ServiceServer:
    """Service + HTTP listener with start/stop, for the CLI and tests."""

    def __init__(
        self,
        service: EvaluationService,
        host: str = "127.0.0.1",
        port: int = 8321,
    ):
        self.service = service
        self.httpd = ServiceHTTPServer((host, port), service)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": POLL_INTERVAL_S},
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self, cancel_running: bool = False) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.service.stop(wait=True, cancel_running=cancel_running)
