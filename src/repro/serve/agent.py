"""Agent workers: claim jobs from the durable queue and execute them.

An :class:`AgentWorker` is the unit of horizontal scale in the
controller/agent architecture.  Any number of agents — spawned by the
controller (``repro.cli serve --agents N``) or started standalone on
the same filesystem (``repro.cli agent --queue-dir …``) — share one
queue and one content-addressed artifact cache:

* **claim** the oldest runnable job (reaping lapsed leases on the way,
  so a SIGKILLed sibling's work is picked up by whoever claims next);
  when the queue is empty, **wait** on the agent's wake endpoint until a
  submission pokes it or the poll interval (``--poll``) runs out;
* **execute** it through the frozen v1 :mod:`repro.api` dataclasses —
  the queue's journaled payloads *are* the wire format, so rehydrating
  a request and running it is one ``request_from_payload`` +
  ``execute`` pair;
* **heartbeat** from a background thread while the (potentially long)
  simulation runs, keeping the lease alive;
* **complete** with the result payload (artifacts land in the shared
  :class:`~repro.service.store.ArtifactStore` as a side effect of
  execution, so a later duplicate request is a pure cache hit), or
  **fail** and let the queue decide between retry-with-backoff and a
  terminal ``failed``.

Agents are *warm workers*: their :class:`TuningService` points at the
queue's shared cache directory, which auto-enables the persistent AOT
code cache (:mod:`repro.machine.codecache`) in the same store — the
first agent to compile a workload's turbo superblocks publishes them as
``codecache`` artifacts, and every later agent (or respawn) loads the
marshaled code objects instead of re-running codegen.  Cold-build cost
is paid once per (IR, engine, config) across the whole fleet, not once
per process; ``codecache.hit/miss/invalidated`` counters ride the
normal per-pid metric snapshots.

Wake endpoint: before its first claim, :meth:`AgentWorker.run_forever`
publishes a FIFO at ``<queue-dir>/wake/<agent-id>`` — made under a
temporary name, opened for reading (and for writing, so the reader
never sees end-of-file), then renamed into place — so a live endpoint
always has a reader and a submission that lands after an empty claim
always finds a byte waiting.  The poll interval is only the fallback
that re-checks retry backoff (``not_before``), lapsed leases, and
file systems without FIFOs; ids that do not carry this host's name
(``--agent-id``) publish no endpoint and poll.  The agent unlinks its
endpoint on exit, and SIGTERM/SIGINT poke it so an idle agent stops at
once.

Metrics: each agent owns one :class:`MetricsRegistry` shared by its
queue handle and its :class:`TuningService` (``auto_flush=False``), and
republishes it as ``metrics/metrics-<pid>.json`` after every job — the
controller merges these for ``/metrics`` and the cumulative
``metrics.json``; the agent itself never touches a shared file.
"""

from __future__ import annotations

import contextlib
import os
import select
import socket
import threading
import time
import traceback
from pathlib import Path
from typing import Optional

from repro.machine.config import MachineConfig
from repro.obs import telemetry as obs_telemetry
from repro.service.api import TuningService
from repro.service.metrics import MetricsRegistry, write_snapshot
from repro.serve.queue import (
    JobQueue,
    JobRecord,
    local_agent_prefix,
    poke,
    wake_dir,
)

#: Job-execution wall-clock histogram buckets (seconds).
_JOB_SECONDS_BUCKETS = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
)


def default_agent_id() -> str:
    """``agent-<host>-<pid>``: unique per process, greppable per host."""
    return f"agent-{socket.gethostname()}-{os.getpid()}"


def metrics_dir(queue_dir: str | os.PathLike) -> Path:
    """Where per-process metric snapshots live for one queue."""
    return Path(queue_dir) / "metrics"


class AgentWorker:
    """One worker process's claim/execute/heartbeat loop."""

    def __init__(
        self,
        queue_dir: str | os.PathLike,
        cache_dir: Optional[str | os.PathLike] = None,
        *,
        agent_id: Optional[str] = None,
        lease: float = 30.0,
        poll_interval: float = 0.2,
        heartbeat_interval: Optional[float] = None,
        engine: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        service: Optional[TuningService] = None,
        telemetry: bool = True,
    ) -> None:
        self.queue_dir = Path(queue_dir)
        self.agent_id = agent_id or default_agent_id()
        self.poll_interval = float(poll_interval)
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None
            else max(0.05, lease / 3.0)
        )
        self.metrics = metrics or MetricsRegistry()
        self.telemetry = (
            obs_telemetry.Telemetry(obs_telemetry.telemetry_dir(queue_dir))
            if telemetry
            else None
        )
        self.queue = JobQueue(
            queue_dir, lease=lease, metrics=self.metrics,
            telemetry=self.telemetry,
        )
        if service is not None:
            self.service = service
        else:
            if cache_dir is None:
                cache_dir = self.queue_dir / "cache"
            config = MachineConfig(engine=engine) if engine else None
            self.service = TuningService(
                cache_dir=cache_dir,
                metrics=self.metrics,
                machine_config=config,
                auto_flush=False,
            )
        #: ``(read fd, write fd)`` of the published wake endpoint.
        self._wake: Optional[tuple[int, int]] = None

    # ------------------------------------------------------------------
    def run_one(self) -> bool:
        """Claim and execute at most one job; ``True`` if one ran."""
        job = self.queue.claim(self.agent_id)
        if job is None:
            return False
        self._execute(job)
        return True

    def run_forever(
        self,
        stop: Optional[threading.Event] = None,
        max_jobs: Optional[int] = None,
    ) -> int:
        """Drain the queue until stopped; returns jobs executed."""
        stop = stop or threading.Event()
        executed = 0
        self._open_wake()
        try:
            self.publish_metrics()
            while not stop.is_set():
                if self.run_one():
                    executed += 1
                    if max_jobs is not None and executed >= max_jobs:
                        break
                else:
                    self._idle(stop)
        finally:
            self._close_wake()
        self.publish_metrics()
        return executed

    def wake(self) -> None:
        """Poke this agent's own endpoint (a stop request uses it to
        end an idle wait at once).  Safe from any thread or a signal
        handler: it opens the endpoint by name, never this agent's
        descriptors, which ``run_forever`` may be closing."""
        if self._wake is not None:
            poke(self._endpoint())

    # ------------------------------------------------------------------
    def _endpoint(self) -> Optional[Path]:
        if not self.agent_id.startswith(local_agent_prefix()):
            return None
        return wake_dir(self.queue_dir) / self.agent_id

    def _open_wake(self) -> None:
        path = self._endpoint()
        if path is None:
            return
        temp = path.with_name(f".{path.name}.tmp")
        fds: list[int] = []
        try:
            path.parent.mkdir(exist_ok=True)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)  # left by a crashed agent with this id
            os.mkfifo(temp, 0o600)
            fds.append(os.open(temp, os.O_RDONLY | os.O_NONBLOCK))
            fds.append(os.open(temp, os.O_WRONLY | os.O_NONBLOCK))
            os.replace(temp, path)
        except (OSError, AttributeError):  # AttributeError: no os.mkfifo
            for fd in fds:
                os.close(fd)
            with contextlib.suppress(OSError):
                os.unlink(temp)
            self.metrics.inc("serve.wake.setup_failures")
            return
        self._wake = (fds[0], fds[1])

    def _close_wake(self) -> None:
        wake, self._wake = self._wake, None
        if wake is None:
            return
        path = self._endpoint()
        try:
            # Only our own FIFO: a successor with this id may own the name.
            if os.lstat(path).st_ino == os.fstat(wake[0]).st_ino:
                os.unlink(path)
        except OSError:
            pass
        for fd in wake:
            os.close(fd)

    def _idle(self, stop: threading.Event) -> None:
        """Wait for a wake byte or the poll interval, whichever first."""
        if self._wake is None:
            stop.wait(self.poll_interval)
            return
        fd = self._wake[0]
        ready, _, _ = select.select([fd], [], [], self.poll_interval)
        if not ready:
            self.metrics.inc("serve.wake.timeouts")
            return
        try:
            while os.read(fd, 4096):
                pass
        except BlockingIOError:
            pass
        if not stop.is_set():
            self.metrics.inc("serve.wake.wakeups")

    # ------------------------------------------------------------------
    def _execute(self, job: JobRecord) -> None:
        if not self.queue.start(job.id, self.agent_id):
            # Cancelled (or reclaimed) between claim and start; don't
            # burn a simulation on work nobody wants.
            self.metrics.inc("serve.start_rejected")
            return
        stop_heartbeat = threading.Event()
        beats = threading.Thread(
            target=self._heartbeat_loop,
            args=(job.id, stop_heartbeat),
            daemon=True,
        )
        beats.start()
        started = time.perf_counter()
        try:
            result, error = self._run_job(job)
            if error is not None:
                self.queue.fail(job.id, self.agent_id, error)
            else:
                self.queue.complete(job.id, self.agent_id, result.to_payload())
        finally:
            stop_heartbeat.set()
            beats.join()
            self.metrics.histogram(
                "serve.job_seconds", _JOB_SECONDS_BUCKETS
            ).observe(time.perf_counter() - started)
            self.publish_metrics()

    def _run_job(self, job: JobRecord):
        """Execute one journaled payload under an ``execute`` telemetry
        span (when the job carries a trace id and telemetry is on).
        Returns ``(result, error)``; exactly one is non-``None``.  The
        span closes *before* the queue records the outcome, so the
        execute span nests cleanly inside the ``running`` state span.
        """
        from repro import api as api_v1

        def run():
            request = api_v1.request_from_payload(job.request)
            return api_v1.execute(request, service=self.service), None

        if self.telemetry is None or not job.trace_id:
            try:
                return run()
            except Exception:
                return None, traceback.format_exc(limit=8).strip()
        with obs_telemetry.job_scope(
            self.telemetry,
            trace=job.trace_id,
            job=job.id,
            attempts=job.attempts,
            agent=self.agent_id,
            kind=job.kind,
        ) as span_attrs:
            try:
                return run()
            except Exception:
                error = traceback.format_exc(limit=8).strip()
                span_attrs["error"] = error.splitlines()[-1][:200]
                return None, error

    def _heartbeat_loop(self, job_id: str, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            if not self.queue.heartbeat(job_id, self.agent_id):
                # Either the lease lapsed and the job was reclaimed, or
                # a cancel request was honored (the queue flipped the
                # job to ``cancelled``); in both cases our eventual
                # complete/fail will be rejected as stale.
                self.metrics.inc("serve.heartbeat_rejected")
                return

    # ------------------------------------------------------------------
    def publish_metrics(self) -> None:
        """Atomically rewrite this process's ``metrics-<pid>.json``."""
        write_snapshot(self.metrics, metrics_dir(self.queue_dir))


def main_loop(worker: AgentWorker, max_jobs: Optional[int] = None) -> int:
    """CLI entry: run until SIGTERM/SIGINT (installed only when possible —
    i.e. on the main thread), then exit cleanly with jobs-executed."""
    import signal

    stop = threading.Event()

    def _stop(signum, frame):  # pragma: no cover - signal plumbing
        stop.set()
        worker.wake()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    return worker.run_forever(stop=stop, max_jobs=max_jobs)
