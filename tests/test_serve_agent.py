"""Unit tests for the agent worker loop (repro.serve.agent)."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.api as api
from repro.service.api import TuningService
from repro.service.metrics import MetricsRegistry
from repro.serve.agent import AgentWorker, default_agent_id, metrics_dir
from repro.serve.queue import JobQueue, wake_dir


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


def _local_id(suffix: str) -> str:
    """An agent id that names this host, as default ids do."""
    return f"agent-{socket.gethostname()}-{suffix}"


def _wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def _reader(path: Path) -> int:
    """A hand-made endpoint: a FIFO with an open, non-blocking reader."""
    path.parent.mkdir(parents=True, exist_ok=True)
    os.mkfifo(path)
    return os.open(path, os.O_RDONLY | os.O_NONBLOCK)


def _pending(fd: int) -> bytes:
    try:
        return os.read(fd, 4096)
    except BlockingIOError:
        return b""


class TestWake:
    """Submissions wake an idle agent; the poll is only the fallback."""

    def _idle_agent(self, queue_dir, suffix: str):
        worker = AgentWorker(
            queue_dir, agent_id=_local_id(suffix), poll_interval=60.0
        )
        endpoint = wake_dir(queue_dir) / worker.agent_id
        stop = threading.Event()
        thread = threading.Thread(
            target=worker.run_forever,
            kwargs={"stop": stop, "max_jobs": 1},
            daemon=True,
        )
        thread.start()
        _wait_for(endpoint.exists)
        time.sleep(0.5)  # past the first empty claim, into the wait
        return worker, endpoint, stop, thread

    def test_submission_wakes_an_idle_agent(self, queue_dir):
        worker, endpoint, stop, thread = self._idle_agent(queue_dir, "w1")
        job_id = _submit(
            JobQueue(queue_dir),
            api.RunRequest(workload="micro-tiny", scale="tiny"),
        )
        thread.join(timeout=10.0)
        stop.set()
        assert not thread.is_alive(), "the agent slept out its poll"
        assert worker.queue.get(job_id).state == "done"
        assert worker.metrics.get("serve.wake.wakeups") == 1
        assert not endpoint.exists()  # unlinked on exit

    def test_revived_failed_job_wakes_an_idle_agent(self, queue_dir):
        queue = JobQueue(queue_dir, backoff=0.0)
        bad = {"kind": "RunRequest", "v": 1, "workload": "no-such-workload"}
        record, _ = queue.submit("RunRequest", bad, dedup_key="bad",
                                 max_attempts=1)
        AgentWorker(queue_dir, agent_id="agent-first").run_one()
        assert queue.get(record.id).state == "failed"
        worker, _, stop, thread = self._idle_agent(queue_dir, "w2")
        revived, deduped = queue.submit("RunRequest", bad, dedup_key="bad",
                                        max_attempts=1)
        assert not deduped and revived.state == "queued"
        thread.join(timeout=10.0)
        stop.set()
        assert not thread.is_alive(), "the revive did not wake the agent"
        final = queue.get(record.id)
        assert final.state == "failed" and final.agent is None
        assert worker.metrics.get("serve.wake.wakeups") == 1

    def test_idle_agent_does_not_spin(self, queue_dir):
        """With nothing submitted the agent re-checks once per poll:
        holding its own write end, it never sees the FIFO's EOF."""
        worker = AgentWorker(
            queue_dir, agent_id=_local_id("idle"), poll_interval=0.05
        )
        stop = threading.Event()
        thread = threading.Thread(
            target=worker.run_forever, kwargs={"stop": stop}, daemon=True
        )
        thread.start()
        time.sleep(0.5)
        stop.set()
        worker.wake()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert not worker.metrics.get("serve.wake.wakeups")
        assert 1 <= worker.metrics.get("serve.wake.timeouts") <= 11

    def test_dedup_hit_writes_no_wake_byte(self, queue_dir):
        queue = JobQueue(queue_dir)
        fd = _reader(wake_dir(queue_dir) / _local_id("t1"))
        try:
            record, _ = queue.submit("X", {"n": 1}, dedup_key="k")
            assert _pending(fd) == b"\0"
            _, deduped = queue.submit("X", {"n": 1}, dedup_key="k")
            assert deduped and _pending(fd) == b""
            job = queue.claim("a")
            queue.complete(job.id, "a", {})
            _, deduped = queue.submit("X", {"n": 1}, dedup_key="k")
            assert deduped and _pending(fd) == b""
        finally:
            os.close(fd)

    def test_sigterm_stops_an_idle_agent_at_once(self, queue_dir):
        agent_id = _local_id("sig")
        endpoint = wake_dir(queue_dir) / agent_id
        src = Path(api.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "agent",
             "--queue-dir", str(queue_dir), "--agent-id", agent_id,
             "--poll", "60", "--no-telemetry"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for(endpoint.exists, timeout=60.0)
            time.sleep(0.2)
            started = time.monotonic()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=2.0) == 0
            assert time.monotonic() - started < 2.0
            assert not endpoint.exists()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


class TestStaleEndpoints:
    """A submission survives whatever it finds in ``wake/``."""

    def test_fifo_without_reader_is_unlinked(self, queue_dir):
        queue = JobQueue(queue_dir)
        stale = wake_dir(queue_dir) / _local_id("dead")
        stale.parent.mkdir(parents=True)
        os.mkfifo(stale)
        record, deduped = queue.submit("X", {"n": 1})
        assert record.state == "queued" and not deduped
        assert not stale.exists()
        assert queue.metrics.get("serve.wake.stale_removed") == 1

    def test_regular_file_is_ignored(self, queue_dir):
        queue = JobQueue(queue_dir)
        plain = wake_dir(queue_dir) / _local_id("file")
        plain.parent.mkdir(parents=True)
        plain.write_bytes(b"x")
        queue.submit("X", {"n": 1})
        assert plain.read_bytes() == b"x"
        assert not queue.metrics.get("serve.wake.stale_removed")

    def test_other_hosts_endpoint_is_left_alone(self, queue_dir):
        queue = JobQueue(queue_dir)
        foreign = wake_dir(queue_dir) / (
            f"agent-{socket.gethostname()}x-elsewhere-1"
        )
        foreign.parent.mkdir(parents=True)
        os.mkfifo(foreign)
        queue.submit("X", {"n": 1})
        assert foreign.exists()
        assert not queue.metrics.get("serve.wake.stale_removed")

    def test_agent_without_fifo_support_polls(self, queue_dir, monkeypatch):
        monkeypatch.delattr(os, "mkfifo")
        worker = AgentWorker(
            queue_dir, agent_id=_local_id("nofifo"), poll_interval=0.01
        )
        _submit(worker.queue, api.RunRequest(workload="micro-tiny",
                                             scale="tiny"))
        assert worker.run_forever(max_jobs=1) == 1
        assert worker.metrics.get("serve.wake.setup_failures") == 1
        assert not list(wake_dir(queue_dir).iterdir())


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
