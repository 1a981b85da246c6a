"""HTTP API end-to-end over a real socket (stub engine underneath)."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import CampaignSpec, StoppingConfig
from repro.errors import ServiceError
from repro.service import EvaluationService, ServiceClient, ServiceServer

from tests.campaign.stubs import BernoulliEngine, StubSampler

SPEC = CampaignSpec(
    seed=9, chunk_size=20, stopping=StoppingConfig(n_samples=60)
)


@pytest.fixture()
def server(tmp_path):
    # The small per-chunk delay keeps long campaigns pending long enough
    # for the cancel / not-ready assertions to observe them in flight.
    service = EvaluationService(
        tmp_path / "runs",
        engine_factory=lambda spec: (
            BernoulliEngine(p=0.3, delay_s=0.02),
            StubSampler(),
        ),
    )
    srv = ServiceServer(service, port=0)  # ephemeral port
    srv.start()
    yield srv
    srv.stop(cancel_running=True)


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


def raw_post(server, content_length: bytes) -> bytes:
    """Send a bodiless ``POST /v1/chunks`` with the given Content-Length
    header and read the reply until the server closes the connection."""
    import socket

    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            b"POST /v1/chunks HTTP/1.1\r\n"
            b"Content-Length: " + content_length + b"\r\n"
            b"\r\n"
        )
        chunks = []
        while True:
            data = sock.recv(4096)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


class TestEndToEnd:
    def test_submit_poll_result_report(self, client):
        response = client.submit(SPEC)
        assert response["cache_hit"] is False
        assert response["state"] == "queued"
        status = client.wait(response["job_id"], timeout_s=30)
        assert status["state"] == "done"
        assert status["n_samples"] == 60

        result = client.result(response["job_id"])
        assert result["n_samples"] == 60
        assert result["ci_low"] <= result["ssf"] <= result["ci_high"]

        report = client.report(response["job_id"])
        assert "Run report" in report
        assert "Outcome categories" in report

    def test_resubmission_is_a_cache_hit_with_identical_result(self, client):
        first = client.submit(SPEC)
        client.wait(first["job_id"], timeout_s=30)
        second = client.submit(SPEC)
        assert second["cache_hit"] is True
        assert second["state"] == "done"
        r1 = client.result(first["job_id"])
        r2 = client.result(second["job_id"])
        assert r1["ssf"] == r2["ssf"]
        assert r1["ci_low"] == r2["ci_low"]
        assert r1["run_id"] == r2["run_id"]

    def test_spec_document_body_without_wrapper(self, server, client):
        # POST the bare spec dict (no {"spec": ...} envelope).
        raw = json.dumps(SPEC.to_dict()).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/campaigns",
            data=raw,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            payload = json.loads(resp.read())
        assert payload["state"] in ("queued", "running", "done")
        client.wait(payload["job_id"], timeout_s=30)

    def test_healthz_and_metrics(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled",
        }
        job = client.submit(SPEC)
        client.wait(job["job_id"], timeout_s=30)
        client.submit(SPEC)
        text = client.metrics_text()
        assert "service_queue_depth" in text
        assert 'service_jobs{state="done"} 1' in text
        assert 'service_cache_requests_total{outcome="hit"} 1' in text
        assert "service_cache_hit_ratio 0.5" in text

    def test_cancel_over_http(self, client):
        slow = CampaignSpec(
            seed=3, chunk_size=10, stopping=StoppingConfig(n_samples=2000)
        )
        job = client.submit(slow)
        cancelled = client.cancel(job["job_id"])
        assert cancelled["state"] in ("cancelled", "running")
        final = client.wait(job["job_id"], timeout_s=30)
        assert final["state"] == "cancelled"

    def test_list_jobs(self, client):
        job = client.submit(SPEC)
        listing = client.list_jobs()
        assert any(j["job_id"] == job["job_id"] for j in listing["jobs"])


class TestErrors:
    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("nope")
        assert err.value.status == 404

    def test_result_not_ready_409(self, client):
        slow = CampaignSpec(
            seed=4, chunk_size=10, stopping=StoppingConfig(n_samples=2000)
        )
        job = client.submit(slow)
        with pytest.raises(ServiceError) as err:
            client.result(job["job_id"])
        assert err.value.status == 409
        client.cancel(job["job_id"])

    def test_invalid_spec_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"sampler": "quantum"})
        assert err.value.status == 400
        assert "quantum" in str(err.value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("benchmark", "nope"),
            ("variant", 5),
            ("window", 0),
            ("window", -5),
            ("subblock_fraction", 0.0),
            ("impact_cycles", 0),
            ("impact_cycles", -3),
        ],
    )
    def test_out_of_range_spec_400_and_nothing_queued(
        self, client, field, value
    ):
        """Rejected at the door, not failed later in a job thread (or,
        for ``impact_cycles`` below 1, run as 1 under a hash of its
        own)."""
        with pytest.raises(ServiceError) as err:
            client.submit({**SPEC.to_dict(), field: value})
        assert err.value.status == 400
        assert client.list_jobs()["jobs"] == []

    def test_surrogate_spec_400_then_default_submit_succeeds(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({**SPEC.to_dict(), "engine": "surrogate"})
        assert err.value.status == 400
        assert "surrogate" in str(err.value)
        job = client.submit(SPEC)
        assert client.wait(job["job_id"], timeout_s=30)["state"] == "done"

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/campaigns",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_oversized_body_answered_with_400_not_reset(self, server):
        """A Content-Length past the cap must get a real HTTP 400, not a
        bare connection close."""
        response = raw_post(server, b"999999999999")
        assert response.startswith(b"HTTP/1.1 400")
        assert b"request body too large" in response

    @pytest.mark.parametrize("length", [b"-5", b"lots"])
    def test_malformed_content_length_400(self, server, length):
        response = raw_post(server, length)
        assert response.startswith(b"HTTP/1.1 400")
        assert b"invalid Content-Length" in response

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{server.url}/v1/espresso", timeout=10
            )
        assert err.value.code == 404

    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:1", timeout_s=1)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()


def test_stop_returns_at_once(tmp_path):
    """stop() waits for the listener's next shutdown check, at most
    server.POLL_INTERVAL_S, not serve_forever's default half second."""
    for i in range(5):
        service = EvaluationService(
            tmp_path / f"runs{i}",
            engine_factory=lambda spec: (BernoulliEngine(), StubSampler()),
        )
        srv = ServiceServer(service, port=0)
        srv.start()
        ServiceClient(srv.url).healthz()
        started = time.monotonic()
        srv.stop()
        assert time.monotonic() - started < 0.15
