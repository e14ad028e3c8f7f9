"""v1 payloads over the HTTP boundary: every request/result dataclass
round-trips through a live server, byte-identical with direct execute().

The server runs with an **in-thread** agent (no subprocess) so the test
is fast and deterministic; the cross-*process* drill lives in
``scripts/ci_queue_check.py``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro.service.api import TuningService
from repro.serve.agent import AgentWorker
from repro.serve.httpd import ServeHTTPServer
from repro.serve.queue import JobQueue

WORKLOAD = "micro-tiny"
SCALE = "tiny"


# ----------------------------------------------------------------------
# One live server + one in-thread agent for the whole module.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    queue_dir = tmp_path_factory.mktemp("serve-http")
    queue = JobQueue(queue_dir, lease=30.0, max_depth=64)
    key_service = TuningService(cache_dir=queue_dir / "cache")
    server = ServeHTTPServer(
        ("127.0.0.1", 0),
        queue,
        dedup_key_fn=lambda request: key_service.request_key(
            request
        ).digest(),
    )
    server_thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    server_thread.start()

    worker = AgentWorker(queue_dir, poll_interval=0.02)
    stop = threading.Event()
    agent_thread = threading.Thread(
        target=worker.run_forever, kwargs={"stop": stop}, daemon=True
    )
    agent_thread.start()

    base = f"http://{server.server_address[0]}:{server.server_address[1]}"
    try:
        yield base, queue
    finally:
        stop.set()
        agent_thread.join(timeout=10.0)
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=5.0)


def _post(base: str, payload: dict, query: str = ""):
    request = urllib.request.Request(
        f"{base}/v1/jobs{query}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def _delete(base: str, job_id: str):
    request = urllib.request.Request(
        f"{base}/v1/jobs/{job_id}", method="DELETE"
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def _get(base: str, path: str):
    with urllib.request.urlopen(f"{base}{path}") as response:
        return response.status, json.load(response)


def _await_result(base: str, job_id: str, timeout: float = 120.0) -> dict:
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, job = _get(base, f"/v1/jobs/{job_id}")
        if job["state"] == "done":
            _, result = _get(base, f"/v1/results/{job_id}")
            return result
        if job["state"] in ("failed", "lost"):
            raise AssertionError(f"job ended {job['state']}: {job['error']}")
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not done after {timeout}s")


#: Every v1 request type, exercised end-to-end over HTTP.
REQUESTS = [
    api.ProfileRequest(workload=WORKLOAD, scale=SCALE),
    api.RunRequest(workload=WORKLOAD, scale=SCALE, scheme="baseline"),
    api.RunRequest(workload=WORKLOAD, scale=SCALE, scheme="aj", distance=8),
    api.RunRequest(workload=WORKLOAD, scale=SCALE, scheme="apt-get"),
    api.SiteReportRequest(workload=WORKLOAD, scale=SCALE),
    api.SuiteRequest(scale=SCALE, workloads=(WORKLOAD,)),
    api.SweepRequest(
        workload=WORKLOAD, scale=SCALE, schemes=("aj",), distances=(2, 4)
    ),
]


@pytest.mark.parametrize(
    "request_obj", REQUESTS, ids=lambda r: f"{type(r).__name__}"
    + (f"-{r.scheme}" if isinstance(r, api.RunRequest) else ""),
)
def test_http_round_trip_is_byte_identical(served, request_obj):
    """Submitting over HTTP and fetching the result must byte-match
    executing the same request directly against a fresh service."""
    base, _ = served
    status, submitted = _post(base, request_obj.to_payload())
    assert status in (200, 202)
    served_payload = _await_result(base, submitted["id"])

    # The wire payload rehydrates into the right dataclass...
    result = api.result_from_payload(served_payload)
    assert type(result).__name__ == type(request_obj).__name__.replace(
        "Request", "Result"
    )
    # ...and is byte-identical with an in-process execution.
    direct = api.execute(request_obj, service=TuningService())
    assert direct.to_json() == json.dumps(served_payload, sort_keys=True)


@pytest.mark.parametrize(
    "request_obj",
    [REQUESTS[0], REQUESTS[3]],
    ids=["ProfileResult", "RunResult"],
)
def test_result_is_served_as_stored_bytes(served, request_obj):
    """``/v1/results/<id>`` sends the stored result text without a
    decode/encode round trip, and the bytes equal what that round trip
    made of it."""
    base, queue = served
    _, submitted = _post(base, request_obj.to_payload())
    _await_result(base, submitted["id"])
    stored = queue.get(submitted["id"]).result_text
    with urllib.request.urlopen(
        f"{base}/v1/results/{submitted['id']}"
    ) as response:
        assert response.headers["Content-Type"] == "application/json"
        body = response.read()
    assert body == json.dumps(json.loads(stored), sort_keys=True).encode()


def test_duplicate_submission_dedups_over_http(served):
    base, _ = served
    payload = api.RunRequest(
        workload=WORKLOAD, scale=SCALE, scheme="baseline"
    ).to_payload()
    status1, first = _post(base, payload)
    status2, second = _post(base, payload)
    assert second["id"] == first["id"]
    assert second["deduped"]
    assert status2 == 200


def test_equivalent_requests_share_one_artifact_key(served):
    """Dedup keys come from the artifact cache keys, so two payloads
    that differ only in spelling (default vs explicit scale) collide."""
    base, _ = served
    implicit = api.RunRequest(workload=WORKLOAD, scale=SCALE)
    explicit = api.RunRequest(
        workload=WORKLOAD, scale=SCALE, scheme="baseline", distance=99
    )  # distance is ignored for non-aj schemes in the artifact key
    _, first = _post(base, implicit.to_payload())
    _, second = _post(base, explicit.to_payload())
    assert second["id"] == first["id"]


class TestHTTPErrors:
    def test_malformed_json_is_400(self, served):
        base, _ = served
        request = urllib.request.Request(
            f"{base}/v1/jobs", data=b"{nope", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_kind_is_400(self, served):
        base, _ = served
        request = urllib.request.Request(
            f"{base}/v1/jobs",
            data=json.dumps({"kind": "EvilRequest"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        body = json.load(excinfo.value)
        assert "EvilRequest" in body["error"]

    def test_invalid_request_field_is_400(self, served):
        base, _ = served
        payload = {"kind": "RunRequest", "v": 1, "workload": WORKLOAD,
                   "scheme": "not-a-scheme"}
        request = urllib.request.Request(
            f"{base}/v1/jobs", data=json.dumps(payload).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_job_is_404(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/v1/jobs/j-nope")
        assert excinfo.value.code == 404

    def test_unknown_path_is_404(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/v1/nope")
        assert excinfo.value.code == 404

    def test_pending_result_is_409(self, tmp_path):
        # A queue with no agent: the result can never be ready.
        queue = JobQueue(tmp_path / "q")
        service = TuningService()
        server = ServeHTTPServer(
            ("127.0.0.1", 0), queue,
            dedup_key_fn=lambda r: service.request_key(r).digest(),
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            base = (
                f"http://{server.server_address[0]}:"
                f"{server.server_address[1]}"
            )
            _, submitted = _post(
                base,
                api.RunRequest(
                    workload=WORKLOAD, scale=SCALE
                ).to_payload(),
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{base}/v1/results/{submitted['id']}"
                )
            assert excinfo.value.code == 409
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


@pytest.fixture()
def idle_server(tmp_path):
    """A live server with **no** agent: jobs stay queued, so priority
    and cancellation can be asserted without racing a worker."""
    queue = JobQueue(tmp_path / "q")
    service = TuningService()
    server = ServeHTTPServer(
        ("127.0.0.1", 0), queue,
        dedup_key_fn=lambda r: service.request_key(r).digest(),
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    base = f"http://{server.server_address[0]}:{server.server_address[1]}"
    try:
        yield base, queue
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestPriorityAndCancelOverHTTP:
    PAYLOAD = api.RunRequest(workload=WORKLOAD, scale=SCALE).to_payload()

    def test_priority_query_param_is_recorded(self, idle_server):
        base, queue = idle_server
        _, submitted = _post(base, self.PAYLOAD, query="?priority=5")
        _, job = _get(base, f"/v1/jobs/{submitted['id']}")
        assert job["priority"] == 5
        assert queue.get(submitted["id"]).priority == 5

    def test_bad_priority_is_400(self, idle_server):
        base, _ = idle_server
        request = urllib.request.Request(
            f"{base}/v1/jobs?priority=soon",
            data=json.dumps(self.PAYLOAD).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "priority" in json.load(excinfo.value)["error"]

    def test_delete_cancels_queued_job(self, idle_server):
        base, _ = idle_server
        _, submitted = _post(base, self.PAYLOAD)
        status, body = _delete(base, submitted["id"])
        assert status == 200
        assert body["state"] == "cancelled"
        _, job = _get(base, f"/v1/jobs/{submitted['id']}")
        assert job["state"] == "cancelled"

    def test_delete_running_job_reports_cancelling(self, idle_server):
        base, queue = idle_server
        _, submitted = _post(base, self.PAYLOAD)
        job = queue.claim("a")
        queue.start(job.id, "a")
        status, body = _delete(base, submitted["id"])
        assert status == 200
        assert body["state"] == "cancelling"

    def test_delete_unknown_job_is_404(self, idle_server):
        base, _ = idle_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _delete(base, "j-nope")
        assert excinfo.value.code == 404

    def test_delete_terminal_job_is_409(self, idle_server):
        base, queue = idle_server
        _, submitted = _post(base, self.PAYLOAD)
        job = queue.claim("a")
        queue.complete(job.id, "a", {"v": 1})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _delete(base, submitted["id"])
        assert excinfo.value.code == 409
        assert "terminal" in json.load(excinfo.value)["error"]

    def test_cancelled_result_is_410(self, idle_server):
        base, _ = idle_server
        _, submitted = _post(base, self.PAYLOAD)
        _delete(base, submitted["id"])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/v1/results/{submitted['id']}")
        assert excinfo.value.code == 410


def test_healthz_and_metrics(served):
    base, queue = served
    status, health = _get(base, "/healthz")
    assert status == 200
    assert health["ok"] is True
    assert "by_state" in health["queue"]

    with urllib.request.urlopen(f"{base}/metrics") as response:
        assert response.status == 200
        text = response.read().decode()
    assert "repro_queue_depth" in text
    assert 'repro_queue_jobs{state="done"}' in text
    # Queue counters surface with sanitized Prometheus names.
    assert "repro_serve_submitted_total" in text
