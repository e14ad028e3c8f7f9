"""Unit tests for the agent worker loop (repro.serve.agent)."""

from __future__ import annotations

import json
import os
import threading

import pytest

import repro.api as api
from repro.service.api import TuningService
from repro.service.metrics import MetricsRegistry
from repro.serve.agent import AgentWorker, default_agent_id, metrics_dir
from repro.serve.queue import JobQueue


def _submit(queue: JobQueue, request) -> str:
    record, _ = queue.submit(type(request).__name__, request.to_payload())
    return record.id


@pytest.fixture()
def queue_dir(tmp_path):
    return tmp_path / "q"


@pytest.fixture()
def worker(queue_dir) -> AgentWorker:
    return AgentWorker(queue_dir, poll_interval=0.01)


class TestRunOne:
    def test_executes_a_job_to_done(self, worker):
        request = api.RunRequest(workload="micro-tiny", scale="tiny")
        job_id = _submit(worker.queue, request)
        assert worker.run_one()
        final = worker.queue.get(job_id)
        assert final.state == "done"
        result = api.result_from_payload(final.result)
        assert isinstance(result, api.RunResult)
        assert result.workload == "micro-tiny"

    def test_result_matches_direct_execute(self, worker):
        request = api.ProfileRequest(workload="micro-tiny", scale="tiny")
        job_id = _submit(worker.queue, request)
        worker.run_one()
        served = worker.queue.get(job_id).result
        direct = api.execute(request, service=TuningService())
        assert direct.to_json() == json.dumps(served, sort_keys=True)

    def test_turbo_twin_of_a_default_job_simulates_nothing(
        self, queue_dir, monkeypatch, machine_runs
    ):
        """``fast`` (the default) and ``turbo`` run one compiled form:
        the twins dedup apart, and the second is answered from the
        first's simulation entries."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        worker = AgentWorker(queue_dir, poll_interval=0.01)
        default = api.RunRequest(workload="micro-tiny", scale="tiny")
        turbo = api.RunRequest(
            workload="micro-tiny", scale="tiny", engine="turbo"
        )
        ids = []
        for request in (default, turbo):
            record, deduped = worker.queue.submit(
                type(request).__name__, request.to_payload(),
                dedup_key=worker.service.request_key(request).digest(),
            )
            assert not deduped
            ids.append(record.id)
        assert worker.run_one()
        assert worker.queue.get(ids[0]).state == "done"
        assert len(machine_runs) == 1
        misses = worker.metrics.get("sim.misses")
        assert worker.run_one()
        final = worker.queue.get(ids[1])
        assert final.state == "done"
        assert len(machine_runs) == 1
        assert worker.metrics.get("sim.misses") == misses
        direct = api.execute(turbo, service=TuningService())
        assert direct.to_json() == json.dumps(final.result, sort_keys=True)

    def test_empty_queue_is_a_noop(self, worker):
        assert not worker.run_one()

    def test_second_run_hits_the_artifact_cache(self, worker):
        request = api.ProfileRequest(workload="micro-tiny", scale="tiny")
        _submit(worker.queue, request)
        worker.run_one()
        misses = worker.metrics.get("cache.misses") or 0
        # Same request under a fresh dedup-free job: pure cache hit.
        _submit(worker.queue, request)
        worker.run_one()
        assert (worker.metrics.get("cache.misses") or 0) == misses
        assert (worker.metrics.get("cache.hits") or 0) >= 1


class TestFailures:
    def test_bad_request_retries_then_parks_failed(self, queue_dir):
        worker = AgentWorker(queue_dir, poll_interval=0.01)
        record, _ = worker.queue.submit(
            "RunRequest",
            {"kind": "RunRequest", "v": 1, "workload": "no-such-workload"},
            max_attempts=2,
        )
        assert worker.run_one()
        mid = worker.queue.get(record.id)
        assert mid.state == "queued"  # retry with backoff scheduled
        assert mid.attempts == 1
        assert mid.error  # traceback preserved

        # The retry is behind the backoff window; wait it out.
        deadline = __import__("time").monotonic() + 10.0
        while not worker.run_one():
            assert __import__("time").monotonic() < deadline
            __import__("time").sleep(0.05)
        final = worker.queue.get(record.id)
        assert final.state == "failed"
        assert "no-such-workload" in final.error

    def test_unparseable_payload_fails_cleanly(self, worker):
        record, _ = worker.queue.submit("X", {"kind": "NotARequest"})
        assert worker.run_one()
        final = worker.queue.get(record.id)
        assert final.state in ("queued", "failed")  # retried, not crashed
        assert "NotARequest" in final.error


class TestMetricsPublishing:
    def test_snapshot_file_written_after_each_job(self, worker, queue_dir):
        _submit(
            worker.queue, api.RunRequest(workload="micro-tiny", scale="tiny")
        )
        worker.run_one()
        path = metrics_dir(queue_dir) / f"metrics-{os.getpid()}.json"
        assert path.exists()
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"].get("serve.claimed") == 1
        assert snapshot["histograms"]["serve.job_seconds"]["count"] == 1

    def test_agent_never_writes_shared_metrics_json(self, worker, queue_dir):
        _submit(
            worker.queue, api.RunRequest(workload="micro-tiny", scale="tiny")
        )
        worker.run_one()
        # auto_flush=False keeps the shared cumulative file untouched;
        # only the controller folds snapshots into it.
        assert not (queue_dir / "cache" / "metrics.json").exists()


class TestLeaseHandoff:
    def test_lapsed_job_is_reclaimed_by_a_sibling(self, queue_dir):
        """A worker that stops heartbeating (SIGKILL-shaped) loses the
        job to whichever sibling claims after the lease lapses."""
        clock = {"now": 1000.0}
        queue = JobQueue(
            queue_dir, lease=5.0, backoff=0.1, clock=lambda: clock["now"]
        )
        request = api.RunRequest(workload="micro-tiny", scale="tiny")
        record, _ = queue.submit(type(request).__name__, request.to_payload())

        dead = queue.claim("agent-dead")
        assert dead.id == record.id
        clock["now"] += 6.0  # lease lapses, backoff window passes
        assert queue.requeue_lapsed() == 1
        clock["now"] += 1.0

        survivor = AgentWorker(
            queue_dir, agent_id="agent-live", poll_interval=0.01
        )
        # The survivor shares the durable queue but runs on real time;
        # the sqlite rows written under the fake clock are still visible.
        assert survivor.run_one()
        final = survivor.queue.get(record.id)
        assert final.state == "done"
        # The dead agent's stale completion is rejected.
        assert not queue.complete(record.id, "agent-dead", {"stale": True})
        assert final.result != {"stale": True}


class TestRunForever:
    def test_drains_until_max_jobs(self, worker):
        for scheme in ("baseline", "apt-get"):
            _submit(
                worker.queue,
                api.RunRequest(
                    workload="micro-tiny", scale="tiny", scheme=scheme
                ),
            )
        executed = worker.run_forever(max_jobs=2)
        assert executed == 2
        assert worker.queue.stats()["by_state"]["done"] == 2

    def test_stop_event_ends_the_loop(self, worker):
        stop = threading.Event()
        thread = threading.Thread(
            target=worker.run_forever, kwargs={"stop": stop}, daemon=True
        )
        thread.start()
        stop.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def test_default_agent_id_is_unique_per_process():
    agent_id = default_agent_id()
    assert agent_id.startswith("agent-")
    assert agent_id.endswith(f"-{os.getpid()}")


def test_worker_accepts_injected_service_and_metrics(queue_dir, tmp_path):
    metrics = MetricsRegistry()
    service = TuningService(cache_dir=tmp_path / "c", metrics=metrics,
                            auto_flush=False)
    worker = AgentWorker(queue_dir, metrics=metrics, service=service)
    assert worker.service is service
    assert worker.metrics is metrics
    assert worker.queue.metrics is metrics
