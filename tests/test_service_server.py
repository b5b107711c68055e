"""HTTP end-to-end tests: a live daemon on an ephemeral port."""

from __future__ import annotations

import json
import threading

import pytest

from repro.exceptions import ServiceError
from repro.graph import ptg_to_dict
from repro.service import (
    QueueFullError,
    SchedulingService,
    ServiceClient,
)
from repro.workloads import generate_fft


def make_doc(size=4, seed=7, **extra):
    doc = {
        "ptg": ptg_to_dict(generate_fft(size, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": seed,
    }
    doc.update(extra)
    return doc


@pytest.fixture
def live_service(tmp_path):
    """A daemon on an ephemeral port; drained and joined on teardown."""
    import asyncio

    service = SchedulingService(port=0, workers=2)
    ready = threading.Event()

    def run():
        async def main():
            await service.start()
            ready.set()
            await service._drained.wait()
            assert service._server is not None
            service._server.close()
            await service._server.wait_closed()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=15), "service did not start"
    client = ServiceClient(port=service.bound_port, timeout=30.0)
    yield service, client
    service.request_drain()
    thread.join(timeout=30)


class TestEndpoints:
    def test_healthz(self, live_service):
        _, client = live_service
        assert client.healthz() == {"status": "ok"}

    def test_submit_and_wait(self, live_service):
        _, client = live_service
        doc = client.schedule(make_doc(), timeout=60)
        job, result = doc["job"], doc["result"]
        assert job["state"] == "done"
        assert job["served_from"] == "run"
        assert result["verified"] is True
        assert result["makespan"] > 0
        assert result["schedule"]["format"] == "repro-schedule"
        assert len(result["problem_fingerprint"]) == 64

    def test_repeat_request_hits_result_cache(self, live_service):
        service, client = live_service
        first = client.schedule(make_doc(seed=11), timeout=60)
        second = client.schedule(make_doc(seed=11), timeout=60)
        assert second["job"]["served_from"] == "result-cache"
        # bit-identical deterministic sections
        assert json.dumps(
            first["result"], sort_keys=True
        ) == json.dumps(second["result"], sort_keys=True)
        assert service.result_cache.stats.hits >= 1

    def test_poll_endpoint(self, live_service):
        _, client = live_service
        submitted = client.submit(make_doc(seed=13))
        job_id = submitted["job"]["id"]
        doc = client.wait_for(job_id, timeout=60)
        assert doc["job"]["id"] == job_id
        assert doc["job"]["state"] == "done"

    def test_unknown_job_404(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as err:
            client.get_job("job-nonsuch")
        assert err.value.status == 404

    def test_bad_request_400(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as err:
            client.submit({"ptg": {"format": "nope"}})
        assert err.value.status == 400

    def test_job_listing(self, live_service):
        _, client = live_service
        client.schedule(make_doc(seed=17), timeout=60)
        status, _, doc = client._request("GET", "/v1/jobs")
        assert status == 200
        assert any(j["seed"] == 17 for j in doc["jobs"])

    def test_metrics_exposition(self, live_service):
        _, client = live_service
        client.schedule(make_doc(seed=19), timeout=60)
        text = client.metrics_text()
        assert "repro_service_jobs_submitted" in text
        assert "repro_service_request_seconds" in text
        assert "repro_service_queue_depth" in text

    def test_stats_endpoint(self, live_service):
        _, client = live_service
        client.schedule(make_doc(seed=23), timeout=60)
        stats = client.stats()
        assert stats["queue"]["depth"] >= 0
        assert stats["latency"]["p99_seconds"] >= 0
        assert stats["draining"] is False

    def test_404_for_unknown_route(self, live_service):
        _, client = live_service
        status, _, _ = client._request("GET", "/nonsuch")
        assert status == 404


def _raw_exchange(port: int, request: bytes) -> tuple[int, dict]:
    """Send raw request bytes; return the status and the JSON body."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


class TestMalformedContentLength:
    """A bad ``Content-Length`` gets a typed 400, not a dropped
    connection."""

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_rejected_with_400(self, live_service, value):
        service, _ = live_service
        status, doc = _raw_exchange(
            service.bound_port,
            (
                "POST /v1/jobs HTTP/1.1\r\n"
                "Host: localhost\r\n"
                f"Content-Length: {value}\r\n"
                "\r\n"
            ).encode("latin-1"),
        )
        assert status == 400
        assert doc["error"]["code"] == "bad-request"
        assert repr(value) in doc["error"]["message"]

    def test_daemon_still_serves_afterwards(self, live_service):
        service, client = live_service
        status, _ = _raw_exchange(
            service.bound_port,
            b"GET /healthz HTTP/1.1\r\nContent-Length: x1\r\n\r\n",
        )
        assert status == 400
        assert client.healthz() == {"status": "ok"}


class TestBackpressureHTTP:
    def test_429_with_retry_after(self, tmp_path):
        import asyncio

        # one worker, tiny queue: the flood must hit backpressure
        service = SchedulingService(
            port=0, workers=1, queue_limit=1, tenant_quota=1
        )
        ready = threading.Event()

        def run():
            async def main():
                await service.start()
                ready.set()
                await service._drained.wait()

            asyncio.run(main())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=15)
        client = ServiceClient(port=service.bound_port, timeout=30.0)
        try:
            rejected = None
            # distinct seeds so nothing is served from the result cache
            for seed in range(40):
                try:
                    client.submit(make_doc(seed=100 + seed))
                except QueueFullError as exc:
                    rejected = exc
                    break
            assert rejected is not None, "flood never saw a 429"
            assert rejected.status == 429
            assert rejected.retry_after is not None
        finally:
            service.request_drain()
            thread.join(timeout=30)
