"""The telemetry-facing HTTP surface: the ``/v1/jobs/<id>/events``
stream (terminal replay is byte-identical, live jobs stream chunked),
the structured access log, the Prometheus exposition's TYPE/quantile
lines, the v1 ``trace`` field over the wire, and the ``top``/
``timeline`` CLI views.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro.obs.telemetry import (
    Telemetry,
    read_records,
    span_balance_problems,
    telemetry_dir,
)
from repro.obs.timeline import validate_chrome_trace
from repro.serve.agent import AgentWorker
from repro.serve.httpd import (
    METRICS_CONTENT_TYPE,
    ServeHTTPServer,
    render_metrics_text,
)
from repro.serve.queue import JobQueue, local_agent_prefix, wake_dir
from repro.service.api import TuningService
from repro.service.metrics import MetricsRegistry

WORKLOAD = "micro-tiny"
SCALE = "tiny"


def start_server(queue_dir, queue, **kwargs):
    key_service = TuningService(cache_dir=queue_dir / "cache")
    server = ServeHTTPServer(
        ("127.0.0.1", 0),
        queue,
        dedup_key_fn=lambda request: key_service.request_key(
            request
        ).digest(),
        **kwargs,
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    base = f"http://{server.server_address[0]}:{server.server_address[1]}"
    return server, thread, base


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Live server + in-thread agent, telemetry and access log on."""
    queue_dir = tmp_path_factory.mktemp("serve-events")
    telemetry = Telemetry(telemetry_dir(queue_dir))
    # One registry for front end + agent: the in-process stand-in for
    # the controller's snapshot merge, so /metrics sees span histograms.
    metrics = MetricsRegistry()
    queue = JobQueue(
        queue_dir, lease=30.0, max_depth=64, telemetry=telemetry,
        metrics=metrics,
    )
    server, server_thread, base = start_server(
        queue_dir, queue,
        telemetry_dir=telemetry_dir(queue_dir), access_log=True,
    )
    worker = AgentWorker(queue_dir, poll_interval=0.02, metrics=metrics)
    stop = threading.Event()
    agent_thread = threading.Thread(
        target=worker.run_forever, kwargs={"stop": stop}, daemon=True
    )
    agent_thread.start()
    try:
        yield base, queue, queue_dir
    finally:
        stop.set()
        agent_thread.join(timeout=10.0)
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=5.0)


def _post(base, payload):
    request = urllib.request.Request(
        f"{base}/v1/jobs",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def _await_done(base, job_id, timeout=120.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with urllib.request.urlopen(f"{base}/v1/jobs/{job_id}") as resp:
            job = json.load(resp)
        if job["state"] == "done":
            return job
        if job["state"] in ("failed", "lost"):
            raise AssertionError(f"job ended {job['state']}: {job['error']}")
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not done after {timeout}s")


_DISTINCT = iter(range(8, 10_000))


def _finished_job(base):
    """Submit a unique job (distinct aj distance -> distinct dedup key)
    and wait for it; repeated identical payloads would dedup onto one
    job and append ``dedup`` points after its root span closed."""
    request = api.RunRequest(
        workload=WORKLOAD, scale=SCALE, scheme="aj",
        distance=next(_DISTINCT),
    )
    _, submitted = _post(base, request.to_payload())
    _await_done(base, submitted["id"])
    return submitted


# ----------------------------------------------------------------------
# Terminal replay
# ----------------------------------------------------------------------
class TestTerminalReplay:
    def test_replay_is_byte_identical_across_reads(self, served):
        base, _, _ = served
        submitted = _finished_job(base)
        url = f"{base}/v1/jobs/{submitted['id']}/events"
        with urllib.request.urlopen(url) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == (
                "application/x-ndjson"
            )
            # Fixed-length response, not chunked: replayable.
            assert response.headers["Content-Length"] is not None
            first = response.read()
        with urllib.request.urlopen(url) as response:
            second = response.read()
        assert first == second
        assert first

    def test_replay_matches_journal_and_balances(self, served):
        base, _, queue_dir = served
        submitted = _finished_job(base)
        url = f"{base}/v1/jobs/{submitted['id']}/events"
        with urllib.request.urlopen(url) as response:
            records = [
                json.loads(line)
                for line in response.read().decode().splitlines()
            ]
        assert span_balance_problems(records) == []
        names = [r["name"] for r in records]
        assert names[0] == "job"
        assert names[-1] == "job"
        assert "execute" in names
        assert "engine.run" in names
        # The stream serves exactly the job's journal slice.
        journal = read_records(
            telemetry_dir(queue_dir), job=submitted["id"]
        )
        assert records == journal
        # Every record carries the job's one trace id.
        assert {r["trace"] for r in records} == {submitted["trace"]}

    def test_trace_field_round_trips_over_the_wire(self, served):
        base, _, _ = served
        request = api.SiteReportRequest(
            workload=WORKLOAD, scale=SCALE, trace="tr-caller-supplied"
        )
        _, submitted = _post(base, request.to_payload())
        assert submitted["trace"] == "tr-caller-supplied"
        job = _await_done(base, submitted["id"])
        assert job["trace"] == "tr-caller-supplied"


# ----------------------------------------------------------------------
# Live streaming
# ----------------------------------------------------------------------
class TestLiveStream:
    def test_queued_job_streams_chunked_until_timeout(self, tmp_path):
        # No agent: the job never leaves ``queued``; the stream must
        # deliver the submit-time spans and end at the timeout.
        telemetry = Telemetry(telemetry_dir(tmp_path))
        queue = JobQueue(tmp_path, telemetry=telemetry)
        server, thread, base = start_server(
            tmp_path, queue, telemetry_dir=telemetry_dir(tmp_path)
        )
        try:
            _, submitted = _post(
                base,
                api.RunRequest(
                    workload=WORKLOAD, scale=SCALE
                ).to_payload(),
            )
            url = (
                f"{base}/v1/jobs/{submitted['id']}/events?timeout=0.5"
            )
            with urllib.request.urlopen(url, timeout=10.0) as response:
                assert response.headers["Transfer-Encoding"] == "chunked"
                body = response.read().decode()
            records = [
                json.loads(line) for line in body.splitlines()
            ]
            names = [(r["ev"], r["name"]) for r in records]
            assert ("open", "job") in names
            assert ("open", "queued") in names
            # In-flight: opens may be pending, but never close-first.
            assert span_balance_problems(
                records, require_closed=False
            ) == []
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_bad_timeout_param_falls_back(self, served):
        base, _, _ = served
        submitted = _finished_job(base)
        url = (
            f"{base}/v1/jobs/{submitted['id']}/events?timeout=bogus"
        )
        with urllib.request.urlopen(url) as response:
            assert response.status == 200


# ----------------------------------------------------------------------
# Error surface
# ----------------------------------------------------------------------
class TestEventsErrors:
    def test_unknown_job_is_404(self, served):
        base, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/v1/jobs/j-nope/events")
        assert excinfo.value.code == 404

    def test_telemetry_disabled_is_404(self, tmp_path):
        queue = JobQueue(tmp_path)
        server, thread, base = start_server(tmp_path, queue)
        try:
            _, submitted = _post(
                base,
                api.RunRequest(
                    workload=WORKLOAD, scale=SCALE
                ).to_payload(),
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{base}/v1/jobs/{submitted['id']}/events"
                )
            assert excinfo.value.code == 404
            body = json.load(excinfo.value)
            assert "telemetry" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Access log
# ----------------------------------------------------------------------
def test_access_log_emits_structured_json(served, caplog):
    base, _, _ = served
    with caplog.at_level(logging.INFO, logger="repro.serve.http"):
        with urllib.request.urlopen(f"{base}/healthz") as response:
            response.read()
    lines = [
        json.loads(r.message)
        for r in caplog.records
        if r.name == "repro.serve.http"
        and r.message.startswith("{")
    ]
    health = [l for l in lines if l["path"] == "/healthz"]
    assert health, f"no /healthz access line in {lines}"
    entry = health[0]
    assert entry["method"] == "GET"
    assert entry["status"] == 200
    assert entry["duration_ms"] >= 0.0


# ----------------------------------------------------------------------
# Metrics exposition
# ----------------------------------------------------------------------
class TestMetricsText:
    def test_wake_counters_are_exposed(self, served):
        """Wake-ups, idle-poll timeouts and stale endpoints removed by a
        submission are all counted where ``/metrics`` renders them."""
        base, _, queue_dir = served
        stale = wake_dir(queue_dir) / f"{local_agent_prefix()}dead"
        os.mkfifo(stale)
        _finished_job(base)
        assert not stale.exists()
        names = [
            f"repro_serve_wake_{name}_total"
            for name in ("wakeups", "timeouts", "stale_removed")
        ]
        deadline = time.monotonic() + 10.0
        while True:
            with urllib.request.urlopen(f"{base}/metrics") as response:
                text = response.read().decode()
            if all(f"\n{name} " in text for name in names):
                break
            assert time.monotonic() < deadline, text
            time.sleep(0.05)

    def test_content_type_declares_version(self, served):
        base, _, _ = served
        with urllib.request.urlopen(f"{base}/metrics") as response:
            assert response.headers["Content-Type"] == (
                METRICS_CONTENT_TYPE
            )
            assert "version=0.0.4" in response.headers["Content-Type"]

    def test_families_have_type_lines_and_quantiles(self, served):
        base, _, _ = served
        _finished_job(base)
        with urllib.request.urlopen(f"{base}/metrics") as response:
            text = response.read().decode()
        assert "# TYPE repro_queue_jobs gauge" in text
        assert "# TYPE repro_serve_submitted_total counter" in text
        # Every histogram family is typed and carries p50/p90/p99.
        assert "# TYPE repro_serve_span_job_seconds histogram" in text
        for label in ("p50", "p90", "p99"):
            assert f"repro_serve_span_job_seconds_{label} " in text
            assert (
                f"# TYPE repro_serve_span_job_seconds_{label} gauge"
                in text
            )

    def test_render_quantiles_interpolate(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "unit.seconds", (0.1, 1.0, 10.0)
        )
        for value in (0.5, 0.5, 0.5, 5.0):
            hist.observe(value)
        text = render_metrics_text(registry)
        assert "# TYPE repro_unit_seconds histogram" in text
        p50 = [
            line for line in text.splitlines()
            if line.startswith("repro_unit_seconds_p50 ")
        ]
        assert p50, text
        value = float(p50[0].split()[1])
        # Median falls inside the (0.1, 1.0] bucket.
        assert 0.1 <= value <= 1.0

    def test_empty_histogram_renders_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("unit.seconds", (0.1, 1.0))
        text = render_metrics_text(registry)
        assert "repro_unit_seconds_p50" not in text


# ----------------------------------------------------------------------
# CLI: top + timeline
# ----------------------------------------------------------------------
class TestCLIViews:
    def test_top_renders_queue_and_percentiles(self, served, capsys):
        from repro.cli import main

        base, _, queue_dir = served
        _finished_job(base)
        code = main(
            ["top", "--queue-dir", str(queue_dir), "--iterations", "1",
             "--no-clear"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repro.serve top" in out
        assert "done=" in out
        assert "workers" in out
        assert "serve.span.job_seconds" in out
        assert "p99=" in out

    def test_timeline_exports_valid_merged_document(
        self, served, tmp_path, capsys
    ):
        from repro.cli import main

        base, _, queue_dir = served
        submitted = _finished_job(base)
        out_path = tmp_path / "merged.json"
        code = main(
            ["timeline", "--queue-dir", str(queue_dir),
             "--output", str(out_path), "--job", submitted["id"]]
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        assert validate_chrome_trace(document) == []
        assert "perfetto" in capsys.readouterr().out

    def test_timeline_empty_queue_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["timeline", "--queue-dir", str(tmp_path / "empty-q"),
             "--output", str(tmp_path / "out.json")]
        )
        assert code == 1
        assert "no telemetry records" in capsys.readouterr().err
