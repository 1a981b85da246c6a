"""``ServiceClient.wait`` follows the job's event stream: it returns
when the job ends, not at the next status poll (stub engine
underneath)."""

import contextlib
import time

from repro.campaign import CampaignSpec, StoppingConfig
from repro.service import EvaluationService, ServiceClient, ServiceServer

from tests.campaign.stubs import BernoulliEngine, StubSampler


def spec(n_samples: int) -> CampaignSpec:
    return CampaignSpec(
        seed=3, chunk_size=20, stopping=StoppingConfig(n_samples=n_samples)
    )


@contextlib.contextmanager
def serve(tmp_path, delay_s: float):
    """A live service whose stub engine sleeps ``delay_s`` per chunk, so
    each job is still running when its wait begins."""
    service = EvaluationService(
        tmp_path / "runs",
        engine_factory=lambda spec: (
            BernoulliEngine(p=0.3, delay_s=delay_s),
            StubSampler(),
        ),
    )
    server = ServiceServer(service, port=0)
    server.start()
    try:
        yield server
    finally:
        server.stop(cancel_running=True)


def timed_wait(client, job_id, **kwargs):
    start = time.monotonic()
    status = client.wait(job_id, **kwargs)
    return status, time.monotonic() - start


class TestWaitFollowsEvents:
    def test_wait_returns_when_the_job_ends(self, tmp_path):
        with serve(tmp_path, delay_s=0.05) as server:  # 4 chunks: ~0.2 s
            client = ServiceClient(server.url)
            job = client.submit(spec(80))
            status, elapsed = timed_wait(client, job["job_id"], poll_s=5)
        assert status["state"] == "done"
        assert status["n_samples"] == 80
        assert elapsed < 1.0

    def test_turns_stay_below_the_socket_timeout(self, tmp_path):
        # One 2.2 s chunk keeps the job's stream silent for longer than
        # the 2 s socket timeout; with no retries, a turn the socket
        # outlived would surface as a transport error.
        with serve(tmp_path, delay_s=2.2) as server:
            client = ServiceClient(server.url, timeout_s=2, retries=0)
            job = client.submit(spec(20))
            status, elapsed = timed_wait(client, job["job_id"], poll_s=60)
        assert status["state"] == "done"
        assert elapsed < 3.0
