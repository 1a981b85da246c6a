"""ServiceClient transport-retry policy: idempotent GETs retry with
exponential backoff on connection failures; everything else fails fast.
A response cut short or not parsable is a transport failure too.
"""

import http.server
import socket
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.fleet import FleetWorker
from repro.service import EvaluationService, ServiceClient, ServiceServer

from tests.fleet.helpers import stub_factory


@pytest.fixture()
def server(tmp_path):
    service = EvaluationService(tmp_path / "runs")
    srv = ServiceServer(service, port=0)
    srv.start()
    yield srv
    srv.stop(cancel_running=True)


class TestGetRetry:
    def test_get_retries_transport_failures_with_backoff(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=3, retry_backoff_s=0.01
        )
        attempts = []
        sleeps = []

        def failing(method, path, body=None, as_text=False):
            attempts.append(method)
            raise ServiceError("cannot reach service", status=0)

        monkeypatch.setattr(client, "_request_once", failing)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()
        assert len(attempts) == 4  # 1 initial + 3 retries
        assert sleeps == [0.01, 0.02, 0.04]  # exponential

    def test_injected_sleep_hook_replaces_the_backoff_clock(
        self, monkeypatch
    ):
        """The constructor's ``sleep`` hook takes the backoff waits, so
        this retry test costs zero wall-clock time."""
        sleeps = []
        client = ServiceClient(
            "http://127.0.0.1:1",
            retries=3,
            retry_backoff_s=1.0,
            sleep=sleeps.append,
        )

        def failing(method, path, body=None, as_text=False):
            raise ServiceError("cannot reach service", status=0)

        monkeypatch.setattr(client, "_request_once", failing)

        def forbidden(_seconds):
            raise AssertionError("time.sleep must not be called")

        monkeypatch.setattr(time, "sleep", forbidden)
        start = time.monotonic()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()
        assert sleeps == [1.0, 2.0, 4.0]
        assert time.monotonic() - start < 1.0

    def test_get_succeeds_after_transient_failure(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=2, retry_backoff_s=0.001
        )
        calls = {"n": 0}

        def flaky(method, path, body=None, as_text=False):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ServiceError("cannot reach service", status=0)
            return {"status": "ok"}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client.healthz() == {"status": "ok"}
        assert calls["n"] == 3

    def test_post_never_retries_transport_failures(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=5, retry_backoff_s=0.001
        )
        attempts = []

        def failing(method, path, body=None, as_text=False):
            attempts.append(method)
            raise ServiceError("cannot reach service", status=0)

        monkeypatch.setattr(client, "_request_once", failing)
        with pytest.raises(ServiceError):
            client.lease("w1")
        assert attempts == ["POST"]  # submitting twice could queue twice

    def test_http_errors_never_retry(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=5, retry_backoff_s=0.001
        )
        attempts = []

        def not_found(method, path, body=None, as_text=False):
            attempts.append(method)
            raise ServiceError("no such job", status=404)

        monkeypatch.setattr(client, "_request_once", not_found)
        with pytest.raises(ServiceError):
            client.status("nope")
        assert len(attempts) == 1  # a 404 is an answer, not an outage

    def test_retry_rides_out_a_service_restart(self, tmp_path, server):
        """A GET issued while the service is briefly down succeeds once
        it comes back on the same port."""
        host, port = server.address
        client = ServiceClient(
            server.url, retries=8, retry_backoff_s=0.05
        )
        assert client.healthz()["status"] == "ok"
        server.stop()

        def restart():
            time.sleep(0.3)
            service = EvaluationService(tmp_path / "runs2")
            srv = ServiceServer(service, host=host, port=port)
            srv.start()
            restart.server = srv

        thread = threading.Thread(target=restart)
        thread.start()
        try:
            assert client.healthz()["status"] == "ok"
        finally:
            thread.join()
            restart.server.stop()

    def test_unreachable_still_fails_fast_by_default(self):
        # The default policy keeps worst-case latency well under a
        # second, so CLI verbs against a dead service stay snappy.
        client = ServiceClient("http://127.0.0.1:1", timeout_s=1)
        start = time.monotonic()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()
        assert time.monotonic() - start < 5


class _FaultHandler(http.server.BaseHTTPRequestHandler):
    """Answers every request with the server's ``fault``."""

    def do_GET(self):
        self.server.requests.append(self.command)
        self.server.fault(self)

    do_POST = do_GET

    def log_message(self, *args):
        pass


def cut_response(handler):
    """A 200 promising 100 bytes, cut off after 13."""
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b'{"status": "o')
    handler.wfile.flush()
    handler.connection.shutdown(socket.SHUT_RDWR)
    handler.close_connection = True


def html_response(handler):
    """A complete 200 whose body is not JSON."""
    body = b"<html><body>502 Bad Gateway</body></html>"
    handler.send_response(200)
    handler.send_header("Content-Type", "text/html")
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


@pytest.fixture()
def fault_server():
    """``start(fault)`` serves ``fault`` on a local port; returns the
    server, whose ``requests`` lists the methods it has seen."""
    servers = []

    def start(fault):
        server = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), _FaultHandler
        )
        server.fault = fault
        server.requests = []
        server.url = "http://127.0.0.1:%d" % server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestBrokenResponses:
    @pytest.mark.parametrize("fault", [cut_response, html_response])
    def test_get_retries_a_broken_response(self, fault_server, fault):
        server = fault_server(fault)
        sleeps = []
        client = ServiceClient(
            server.url, retries=2, retry_backoff_s=0.5, sleep=sleeps.append
        )
        with pytest.raises(ServiceError, match="response") as info:
            client.healthz()
        assert info.value.status == 0
        assert sleeps == [0.5, 1.0]
        assert server.requests == ["GET"] * 3

    @pytest.mark.parametrize("fault", [cut_response, html_response])
    def test_post_still_fails_fast(self, fault_server, fault):
        server = fault_server(fault)
        sleeps = []
        client = ServiceClient(server.url, retries=2, sleep=sleeps.append)
        with pytest.raises(ServiceError) as info:
            client.lease("w1")
        assert info.value.status == 0
        assert sleeps == []
        assert server.requests == ["POST"]

    def test_worker_thread_survives_a_cut_lease_answer(self, fault_server):
        server = fault_server(cut_response)
        worker = FleetWorker(
            ServiceClient(server.url, timeout_s=5),
            worker_id="w1",
            poll_s=0.01,
            engine_factory=stub_factory,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 10
            while len(server.requests) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server.requests) >= 3  # it leased again after a cut
            assert thread.is_alive()
        finally:
            worker.stop()
            thread.join(timeout=10)
        assert not thread.is_alive()
