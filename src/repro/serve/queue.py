"""Durable on-disk job queue for the controller/agent service.

One sqlite database (``<queue-dir>/queue.sqlite3``) holds every job the
service has ever been asked to run.  All state transitions happen
inside ``BEGIN IMMEDIATE`` transactions, so they are atomic across
processes and crash-safe: a SIGKILL at any point leaves the queue in
the last committed state, never a torn one.

Job lifecycle::

    submit ──> queued ──claim──> claimed ──start──> running ──complete──> done
                 ▲                  │                  │
                 │                  ├──fail (retries left, backoff)──┐
                 │                  │                  │             │
                 ├──────────────────┴──────────────────┴─────────────┘
                 │                  │                  │
                 │       lease lapses (reap): retries left -> queued
                 │                  │                  │
                 │                  └──> lost   (no retries left)
                 ├── fail with no retries left ──> failed
                 └── cancel ──> cancelled   (queued: immediately;
                                claimed/running: at the agent's next
                                start/heartbeat check-in)

* **Leases + heartbeats** — a claim grants a time-bounded lease; the
  agent extends it by heartbeating.  A job whose lease lapses (agent
  SIGKILLed, wedged, partitioned) is *reaped*: requeued with backoff if
  attempts remain, else marked ``lost``.  Reaping happens inside every
  ``claim`` and in the controller's reaper loop, so lost work is
  recovered even when only agents (or only the controller) survive.
* **Retry with backoff** — an application failure requeues the job with
  ``not_before = now + backoff * 2**(attempts-1)`` until
  ``max_attempts`` claims have been burned, then parks it as
  ``failed`` (terminal, with the error recorded).
* **Idempotent dedup** — jobs are keyed by the same engine-aware
  artifact-key digests :class:`~repro.service.api.TuningService`
  computes (see :meth:`TuningService.request_key`), so submitting the
  same request twice returns the same job; resubmitting a terminal
  ``failed``/``lost`` job revives it with a fresh retry budget.
* **Backpressure** — an optional ``max_depth`` bounds live (queued +
  claimed + running) jobs; past it, ``submit`` raises
  :class:`QueueFull` (the HTTP front end maps this to 429).
* **Priority** — claims pop the highest ``priority`` first, oldest
  ``queued_at`` breaking ties, so urgent work preempts the backlog
  without starving equal-priority jobs.
* **Cancellation** — ``cancel`` flips queued jobs straight to the
  terminal ``cancelled`` state; for active jobs it sets a
  ``cancel_requested`` flag honored at the agent's next
  ``start``/``heartbeat`` (and by the reaper if the agent died), while
  a ``complete`` that races the flag wins — finished work is kept.
  Cancelled jobs revive on resubmit exactly like ``failed``/``lost``.

Every mutation is attributed: completes/fails/heartbeats must name the
agent holding the lease, so a zombie agent whose job was reclaimed
cannot clobber the rightful owner's result.  Reads (``get``,
``list_jobs``, ``stats`` and a resubmission of a ``done`` job) take no
write lock: they run as plain SELECTs beside a writer's transaction.

**Wake-ups** — each idle agent listens on a FIFO at
``<queue-dir>/wake/<agent-id>`` (see :mod:`repro.serve.agent`).  A
``submit`` that inserts or revives a job writes one byte to every
endpoint of its own host after COMMIT, so an idle agent claims the job
at once instead of at its next poll.  An endpoint with no reader (its
agent died) is unlinked by the submitter; endpoints named for another
host (agent ids carry the host name) are never touched.

**Telemetry** — every job carries a ``trace_id`` correlation id, and
when a :class:`~repro.obs.telemetry.Telemetry` sink is attached each
lifecycle transition journals span events (deterministic ids
``<job>:<state>:a<attempt>`` under a ``job`` root span, plus
``dedup``/``resubmit``/``retry``/``lease-reclaim`` instants).  Events
are collected *inside* the transaction but emitted only after COMMIT,
so a rolled-back transition never journals phantom spans; whichever
process commits a transition emits its events, which is why span ids
are deterministic rather than process-local.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import sqlite3
import stat
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.obs.telemetry import Telemetry
from repro.service.metrics import MetricsRegistry

#: Valid job states (the journal/state-machine vocabulary).
STATES = (
    "queued", "claimed", "running", "done", "failed", "lost", "cancelled",
)

#: States a job can be in while an agent may still act on it.
ACTIVE_STATES = ("claimed", "running")

#: States counting against the ``max_depth`` backpressure bound.
LIVE_STATES = ("queued", "claimed", "running")

#: Terminal states (nothing will happen without a resubmit).
TERMINAL_STATES = ("done", "failed", "lost", "cancelled")

DEFAULT_LEASE = 30.0
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF = 0.5

#: Buckets for the submit->claim latency histogram (seconds).
CLAIM_LATENCY_BUCKETS = (
    0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0, 300.0,
)

#: Buckets for the span-latency histograms (claimed/running/whole-job).
SPAN_SECONDS_BUCKETS = (
    0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0, 300.0,
    1800.0,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id            TEXT PRIMARY KEY,
    dedup_key     TEXT NOT NULL UNIQUE,
    kind          TEXT NOT NULL,
    request       TEXT NOT NULL,
    state         TEXT NOT NULL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL,
    agent         TEXT,
    created       REAL NOT NULL,
    updated       REAL NOT NULL,
    queued_at     REAL NOT NULL,
    not_before    REAL NOT NULL DEFAULT 0,
    lease_expires REAL,
    result        TEXT,
    error         TEXT,
    trace_id      TEXT,
    priority      INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs(state, not_before, queued_at);
CREATE INDEX IF NOT EXISTS jobs_claim_order
    ON jobs(state, not_before, priority DESC, queued_at);
"""

_COLUMNS = (
    "id", "dedup_key", "kind", "request", "state", "attempts",
    "max_attempts", "agent", "created", "updated", "queued_at",
    "not_before", "lease_expires", "result", "error", "trace_id",
    "priority", "cancel_requested",
)

#: Columns added after the v1 schema; existing databases are migrated
#: in place with ``ALTER TABLE`` (CREATE TABLE IF NOT EXISTS never adds
#: columns to an existing table).
_MIGRATIONS = (
    ("trace_id", "ALTER TABLE jobs ADD COLUMN trace_id TEXT"),
    ("priority",
     "ALTER TABLE jobs ADD COLUMN priority INTEGER NOT NULL DEFAULT 0"),
    ("cancel_requested",
     "ALTER TABLE jobs ADD COLUMN cancel_requested INTEGER NOT NULL"
     " DEFAULT 0"),
)


def wake_dir(queue_dir: str | os.PathLike) -> Path:
    """Where the agents' wake endpoints (FIFOs) live for one queue."""
    return Path(queue_dir) / "wake"


def local_agent_prefix() -> str:
    """Prefix of every default agent id on this host (``agent-<host>-``).

    Only endpoints whose names carry it are opened or unlinked: on a
    shared file system a FIFO of another host has no reader here, and
    unlinking it would cut that host's agent off from its wake-ups.
    """
    return f"agent-{socket.gethostname()}-"


def poke(path: str | os.PathLike) -> bool:
    """Write one wake byte to the FIFO at ``path`` without blocking.

    ``False`` means the FIFO has no reader (ENXIO): its agent is gone.
    A full FIFO already holds a pending wake, and a missing one has
    nobody to wake; both count as done.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
    except OSError as error:
        return error.errno != errno.ENXIO
    try:
        os.write(fd, b"\0")
    except OSError:
        pass  # EAGAIN: a wake is already pending.
    finally:
        os.close(fd)
    return True


class QueueFull(RuntimeError):
    """``submit`` refused: the queue is at its ``max_depth`` bound."""


@dataclass
class JobRecord:
    """One job row.  ``request`` is decoded; the result stays the JSON
    text ``complete`` stored (``result_text``), since serving it needs
    no decode, and :attr:`result` decodes it on each read."""

    id: str
    dedup_key: str
    kind: str
    request: dict
    state: str
    attempts: int
    max_attempts: int
    agent: Optional[str]
    created: float
    updated: float
    queued_at: float
    not_before: float
    lease_expires: Optional[float]
    result_text: Optional[str]
    error: Optional[str]
    trace_id: Optional[str] = None
    priority: int = 0
    cancel_requested: int = 0

    @classmethod
    def from_row(cls, row) -> "JobRecord":
        data = dict(zip(_COLUMNS, row))
        data["request"] = json.loads(data["request"])
        data["result_text"] = data.pop("result")
        return cls(**data)

    @property
    def result(self) -> Optional[dict]:
        """The result payload (``None`` until ``done``)."""
        if self.result_text is None:
            return None
        return json.loads(self.result_text)

    def as_dict(self, include_request: bool = False) -> dict:
        """JSON-safe status view (what ``GET /v1/jobs/<id>`` serves)."""
        out = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "agent": self.agent,
            "created": self.created,
            "updated": self.updated,
            "error": self.error,
            "trace": self.trace_id,
            "priority": self.priority,
            "cancel_requested": bool(self.cancel_requested),
        }
        if include_request:
            out["request"] = self.request
        return out


class JobQueue:
    """The durable queue; see the module docstring for semantics.

    ``clock`` is injectable so tests (including the stateful property
    tests) can drive lease expiry deterministically.  Every public
    method opens its own short-lived sqlite connection, so one
    :class:`JobQueue` instance is safe to share across threads and the
    same directory is safe to share across processes.
    """

    def __init__(
        self,
        queue_dir: str | os.PathLike,
        *,
        lease: float = DEFAULT_LEASE,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff: float = DEFAULT_BACKOFF,
        max_depth: Optional[int] = None,
        clock: Callable[[], float] = time.time,
        metrics: Optional[MetricsRegistry] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.queue_dir = Path(queue_dir)
        self.db_path = self.queue_dir / "queue.sqlite3"
        self.lease = float(lease)
        self.max_attempts = max(1, int(max_attempts))
        self.backoff = float(backoff)
        self.max_depth = max_depth
        self.clock = clock
        self.metrics = metrics or MetricsRegistry()
        self.telemetry = telemetry
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        # executescript() commits on its own; no transaction wrapper.
        conn = sqlite3.connect(self.db_path, timeout=30.0)
        try:
            conn.executescript(_SCHEMA)
            columns = {
                row[1] for row in conn.execute("PRAGMA table_info(jobs)")
            }
            migrated = False
            for column, statement in _MIGRATIONS:
                if column not in columns:
                    conn.execute(statement)
                    migrated = True
            if migrated:
                conn.commit()
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Connection / transaction plumbing.
    # ------------------------------------------------------------------
    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        # connect(timeout=) is sqlite's busy timeout for every statement.
        conn = sqlite3.connect(self.db_path, timeout=30.0, isolation_level=None)
        try:
            conn.execute("BEGIN IMMEDIATE")
            yield conn
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        finally:
            conn.close()

    @contextmanager
    def _read(self) -> Iterator[sqlite3.Connection]:
        """An autocommit connection: each SELECT is its own snapshot and
        takes only a shared lock, so it never waits for another
        process's ``BEGIN IMMEDIATE`` to finish (only for its COMMIT)."""
        conn = sqlite3.connect(self.db_path, timeout=30.0, isolation_level=None)
        try:
            yield conn
        finally:
            conn.close()

    def _fetch(self, conn: sqlite3.Connection, job_id: str) -> Optional[JobRecord]:
        row = conn.execute(
            f"SELECT {', '.join(_COLUMNS)} FROM jobs WHERE id=?", (job_id,)
        ).fetchone()
        return JobRecord.from_row(row) if row is not None else None

    # ------------------------------------------------------------------
    # Span-event plumbing (collected in-tx, emitted after COMMIT).
    # ------------------------------------------------------------------
    @staticmethod
    def _span(job_id: str, state: str, attempts: int) -> str:
        """Deterministic cross-process span id for one state visit."""
        return f"{job_id}:{state}:a{attempts}"

    def _note(
        self, pending: list, ev: str, trace: Optional[str], name: str,
        *, span: str, job: str, t: float, parent: Optional[str] = None,
        **attrs,
    ) -> None:
        if self.telemetry is None or not trace:
            return
        base = {"trace": trace, "name": name, "span": span, "job": job,
                "t": t}
        if parent is not None:
            base["parent"] = parent
        pending.append((ev, base, attrs))

    def _flush_events(self, pending: list) -> None:
        if self.telemetry is None:
            return
        for ev, base, attrs in pending:
            self.telemetry.emit(ev, **base, **attrs)

    def _terminal_events(
        self, pending: list, job_id: str, trace: Optional[str],
        state: str, attempts: int, now: float, updated: float,
        created: float, outcome: str, error: Optional[str] = None,
    ) -> None:
        """Close the active state span and the ``job`` root span."""
        attrs = {} if error is None else {"error": error}
        if state in ACTIVE_STATES:
            self.metrics.histogram(
                "serve.span.running_seconds", SPAN_SECONDS_BUCKETS
            ).observe(max(0.0, now - updated))
            self._note(pending, "close", trace, state,
                       span=self._span(job_id, state, attempts),
                       job=job_id, t=now, **attrs)
        self.metrics.histogram(
            "serve.span.job_seconds", SPAN_SECONDS_BUCKETS
        ).observe(max(0.0, now - created))
        self._note(pending, "close", trace, "job", span=job_id,
                   job=job_id, t=now, state=outcome, **attrs)

    @staticmethod
    def _short_error(error: Optional[str]) -> Optional[str]:
        """Last line of a traceback, bounded — span attrs, not logs."""
        if not error:
            return error
        line = error.strip().splitlines()[-1]
        return line[:200]

    # ------------------------------------------------------------------
    # Submission + dedup.
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        request: dict,
        *,
        dedup_key: Optional[str] = None,
        max_attempts: Optional[int] = None,
        trace_id: Optional[str] = None,
        priority: int = 0,
    ) -> tuple[JobRecord, bool]:
        """Enqueue a request; returns ``(record, deduped)``.

        ``dedup_key`` is normally the request's artifact-key digest.  A
        live or ``done`` job with the same key is returned as-is
        (``deduped=True``); a terminal ``failed``/``lost``/``cancelled``
        one is revived in place with a fresh attempt budget.  With no
        key, the job id itself is used (no dedup).  ``trace_id``
        propagates a caller-supplied correlation id; omitted, a fresh
        one is minted.  A dedup hit keeps the original job's trace id
        (the duplicate submission is journaled as a ``dedup`` instant).

        ``priority`` orders claims: higher first, age breaking ties
        (default 0; negative deprioritizes).  A dedup hit on a *queued*
        job raises its priority to the larger of the two, so a later
        urgent submission accelerates the queued duplicate instead of
        being swallowed by it.
        """
        now = self.clock()
        pending: list = []
        if dedup_key is not None:
            # ``done`` is terminal, so a resubmission of finished work
            # (the cache-hit path) is answered without the write lock.
            with self._read() as conn:
                row = conn.execute(
                    f"SELECT {', '.join(_COLUMNS)} FROM jobs"
                    " WHERE dedup_key=? AND state='done'",
                    (dedup_key,),
                ).fetchone()
            if row is not None:
                record = JobRecord.from_row(row)
                self._dedup_hit(pending, record, now)
                self._flush_events(pending)
                return record, True
        encoded = json.dumps(request, sort_keys=True)
        budget = self.max_attempts if max_attempts is None else max(1, int(max_attempts))
        job_id = "j-" + uuid.uuid4().hex[:12]
        key = dedup_key if dedup_key is not None else job_id
        with self._tx() as conn:
            self._reap(conn, now, pending)
            row = conn.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM jobs WHERE dedup_key=?",
                (key,),
            ).fetchone()
            if row is not None:
                record = JobRecord.from_row(row)
                if record.state in ("failed", "lost", "cancelled"):
                    prior = record.state
                    conn.execute(
                        "UPDATE jobs SET state='queued', attempts=0, agent=NULL,"
                        " lease_expires=NULL, result=NULL, error=NULL,"
                        " not_before=0, queued_at=?, updated=?, max_attempts=?,"
                        " priority=?, cancel_requested=0,"
                        " trace_id=COALESCE(trace_id, ?) WHERE id=?",
                        (now, now, budget, int(priority), trace_id, record.id),
                    )
                    self.metrics.inc("serve.resubmitted")
                    record = self._fetch(conn, record.id)
                    trace = record.trace_id
                    self._note(pending, "point", trace, "resubmit",
                               span=record.id, job=record.id, t=now,
                               prior=prior)
                    self._note(pending, "open", trace, "job", span=record.id,
                               job=record.id, t=now, kind=record.kind,
                               revived=True)
                    self._note(pending, "open", trace, "queued",
                               span=self._span(record.id, "queued", 0),
                               job=record.id, t=now, parent=record.id)
                    outcome = (record, False)
                else:
                    if (
                        record.state == "queued"
                        and int(priority) > record.priority
                    ):
                        conn.execute(
                            "UPDATE jobs SET priority=?, updated=?"
                            " WHERE id=? AND state='queued'",
                            (int(priority), now, record.id),
                        )
                        record = self._fetch(conn, record.id)
                    self._dedup_hit(pending, record, now)
                    outcome = (record, True)
            else:
                if self.max_depth is not None:
                    live = conn.execute(
                        "SELECT COUNT(*) FROM jobs WHERE state IN (?,?,?)",
                        LIVE_STATES,
                    ).fetchone()[0]
                    if live >= self.max_depth:
                        self.metrics.inc("serve.rejected_full")
                        raise QueueFull(
                            f"queue at max depth {self.max_depth} "
                            f"({live} live job(s))"
                        )
                trace = trace_id or ("tr-" + uuid.uuid4().hex[:12])
                conn.execute(
                    "INSERT INTO jobs (id, dedup_key, kind, request, state,"
                    " attempts, max_attempts, created, updated, queued_at,"
                    " not_before, trace_id, priority)"
                    " VALUES (?,?,?,?, 'queued', 0, ?, ?, ?, ?, 0, ?, ?)",
                    (job_id, key, kind, encoded, budget, now, now, now, trace,
                     int(priority)),
                )
                self.metrics.inc("serve.submitted")
                self._note(pending, "open", trace, "job", span=job_id,
                           job=job_id, t=now, kind=kind)
                self._note(pending, "open", trace, "queued",
                           span=self._span(job_id, "queued", 0), job=job_id,
                           t=now, parent=job_id)
                outcome = (self._fetch(conn, job_id), False)
        self._flush_events(pending)
        if not outcome[1]:
            self._wake_agents()
        return outcome

    def _dedup_hit(self, pending: list, record: JobRecord, now: float) -> None:
        self.metrics.inc("serve.deduped")
        self._note(pending, "point", record.trace_id, "dedup",
                   span=record.id, job=record.id, t=now)

    def _wake_agents(self) -> None:
        """Poke each wake FIFO of this host's agents; unlink the ones
        whose agent is gone.  Anything else in ``wake/`` is ignored."""
        prefix = local_agent_prefix()
        try:
            entries = os.scandir(wake_dir(self.queue_dir))
        except OSError:
            return
        with entries:
            for entry in entries:
                if not entry.name.startswith(prefix):
                    continue
                try:
                    mode = entry.stat(follow_symlinks=False).st_mode
                except OSError:
                    continue
                if stat.S_ISFIFO(mode) and not poke(entry.path):
                    self._unlink_stale(entry.path)

    def _unlink_stale(self, path: str) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            return  # another submitter got there first
        self.metrics.inc("serve.wake.stale_removed")

    # ------------------------------------------------------------------
    # Claim / heartbeat / transitions.
    # ------------------------------------------------------------------
    def claim(self, agent: str) -> Optional[JobRecord]:
        """Claim the best runnable job for ``agent`` (or ``None``).

        "Best" is highest priority first, then oldest (``queued_at``),
        then id — so priority preempts age but never starves equal-
        priority work.  Also reaps lapsed leases first, so a dead
        agent's work is recovered by whichever live agent claims next —
        no controller required.
        """
        now = self.clock()
        pending: list = []
        with self._tx() as conn:
            self._reap(conn, now, pending)
            row = conn.execute(
                "SELECT id, queued_at, attempts, trace_id FROM jobs"
                " WHERE state='queued' AND not_before<=?"
                " ORDER BY priority DESC, queued_at, id LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                record = None
            else:
                job_id, queued_at, attempts, trace = row
                conn.execute(
                    "UPDATE jobs SET state='claimed', agent=?, attempts=attempts+1,"
                    " lease_expires=?, updated=? WHERE id=? AND state='queued'",
                    (agent, now + self.lease, now, job_id),
                )
                self.metrics.inc("serve.claimed")
                self.metrics.histogram(
                    "serve.claim_seconds", CLAIM_LATENCY_BUCKETS
                ).observe(max(0.0, now - queued_at))
                self._note(pending, "close", trace, "queued",
                           span=self._span(job_id, "queued", attempts),
                           job=job_id, t=now)
                self._note(pending, "open", trace, "claimed",
                           span=self._span(job_id, "claimed", attempts + 1),
                           job=job_id, t=now, parent=job_id, agent=agent)
                record = self._fetch(conn, job_id)
        self._flush_events(pending)
        return record

    def start(self, job_id: str, agent: str) -> bool:
        """claimed -> running (lease also refreshed).

        ``False`` also covers a cancel that raced the claim: the job is
        flipped to ``cancelled`` before any work starts.
        """
        now = self.clock()
        pending: list = []
        with self._tx() as conn:
            row = conn.execute(
                "SELECT attempts, trace_id, updated, created,"
                " cancel_requested FROM jobs"
                " WHERE id=? AND agent=? AND state='claimed'",
                (job_id, agent),
            ).fetchone()
            if row is not None and row[4]:
                attempts, trace, claimed_at, created, _ = row
                self._cancel_active(
                    conn, pending, job_id, "claimed", attempts, trace,
                    claimed_at, created, now,
                )
                self._flush_events(pending)
                return False
            cur = conn.execute(
                "UPDATE jobs SET state='running', lease_expires=?, updated=?"
                " WHERE id=? AND agent=? AND state='claimed'",
                (now + self.lease, now, job_id, agent),
            )
            ok = cur.rowcount == 1
            if ok and row is not None:
                attempts, trace, claimed_at = row[:3]
                self.metrics.histogram(
                    "serve.span.claimed_seconds", SPAN_SECONDS_BUCKETS
                ).observe(max(0.0, now - claimed_at))
                self._note(pending, "close", trace, "claimed",
                           span=self._span(job_id, "claimed", attempts),
                           job=job_id, t=now)
                self._note(pending, "open", trace, "running",
                           span=self._span(job_id, "running", attempts),
                           job=job_id, t=now, parent=job_id, agent=agent)
        self._flush_events(pending)
        return ok

    def heartbeat(self, job_id: str, agent: str) -> bool:
        """Extend the lease; ``False`` means stop working on the job.

        ``False`` covers both "reclaimed from under us" and "cancel
        requested": a cancellation that lands while the job is active is
        honored here, at the next heartbeat — the job flips to
        ``cancelled`` and the agent abandons the work.
        """
        now = self.clock()
        pending: list = []
        with self._tx() as conn:
            row = conn.execute(
                "SELECT state, attempts, trace_id, updated, created,"
                " cancel_requested FROM jobs"
                " WHERE id=? AND agent=? AND state IN (?, ?)",
                (job_id, agent, *ACTIVE_STATES),
            ).fetchone()
            if row is None:
                ok = False
            elif row[5]:
                state, attempts, trace, updated, created, _ = row
                self._cancel_active(
                    conn, pending, job_id, state, attempts, trace,
                    updated, created, now,
                )
                ok = False
            else:
                conn.execute(
                    "UPDATE jobs SET lease_expires=?, updated=?"
                    " WHERE id=? AND agent=? AND state IN (?, ?)",
                    (now + self.lease, now, job_id, agent, *ACTIVE_STATES),
                )
                ok = True
        if ok:
            self.metrics.inc("serve.heartbeats")
        self._flush_events(pending)
        return ok

    def _cancel_active(
        self, conn: sqlite3.Connection, pending: list, job_id: str,
        state: str, attempts: int, trace: Optional[str], updated: float,
        created: float, now: float,
    ) -> None:
        """Flip an active job with a pending cancel to ``cancelled``."""
        conn.execute(
            "UPDATE jobs SET state='cancelled', agent=NULL,"
            " lease_expires=NULL, updated=?,"
            " error=COALESCE(error, 'cancelled') WHERE id=?",
            (now, job_id),
        )
        self.metrics.inc("serve.cancelled")
        self._terminal_events(
            pending, job_id, trace, state, attempts, now, updated,
            created, "cancelled", error="cancelled",
        )

    def complete(self, job_id: str, agent: str, result: dict) -> bool:
        """running|claimed -> done, recording the result payload."""
        now = self.clock()
        pending: list = []
        with self._tx() as conn:
            row = conn.execute(
                "SELECT state, attempts, trace_id, updated, created FROM jobs"
                " WHERE id=? AND agent=? AND state IN (?, ?)",
                (job_id, agent, *ACTIVE_STATES),
            ).fetchone()
            cur = conn.execute(
                "UPDATE jobs SET state='done', result=?, error=NULL,"
                " lease_expires=NULL, cancel_requested=0, updated=?"
                " WHERE id=? AND agent=? AND state IN (?, ?)",
                (
                    json.dumps(result, sort_keys=True),
                    now, job_id, agent, *ACTIVE_STATES,
                ),
            )
            ok = cur.rowcount == 1
            if ok and row is not None:
                state, attempts, trace, updated, created = row
                self._terminal_events(
                    pending, job_id, trace, state, attempts, now, updated,
                    created, "done",
                )
        if ok:
            self.metrics.inc("serve.done")
        else:
            self.metrics.inc("serve.stale_completions")
        self._flush_events(pending)
        return ok

    def fail(self, job_id: str, agent: str, error: str) -> Optional[str]:
        """Record an application failure.

        Returns the job's new state (``queued`` if it will be retried,
        ``failed`` if its attempt budget is spent, ``cancelled`` if a
        cancel was pending — no point retrying work nobody wants) or
        ``None`` when the job was not ours to fail (reclaimed from
        under us).
        """
        now = self.clock()
        pending: list = []
        with self._tx() as conn:
            row = conn.execute(
                "SELECT attempts, max_attempts, state, trace_id, updated,"
                " created, cancel_requested FROM jobs"
                " WHERE id=? AND agent=? AND state IN (?, ?)",
                (job_id, agent, *ACTIVE_STATES),
            ).fetchone()
            if row is None:
                self.metrics.inc("serve.stale_failures")
                return None
            (attempts, max_attempts, state, trace, updated, created,
             cancel_requested) = row
            brief = self._short_error(error)
            if cancel_requested:
                self._cancel_active(
                    conn, pending, job_id, state, attempts, trace,
                    updated, created, now,
                )
                self._flush_events(pending)
                return "cancelled"
            if attempts >= max_attempts:
                conn.execute(
                    "UPDATE jobs SET state='failed', error=?, agent=NULL,"
                    " lease_expires=NULL, updated=? WHERE id=?",
                    (error, now, job_id),
                )
                self.metrics.inc("serve.failed")
                self._terminal_events(
                    pending, job_id, trace, state, attempts, now, updated,
                    created, "failed", error=brief,
                )
                new_state = "failed"
            else:
                delay = self._backoff_delay(attempts)
                conn.execute(
                    "UPDATE jobs SET state='queued', error=?, agent=NULL,"
                    " lease_expires=NULL, not_before=?, queued_at=?, updated=?"
                    " WHERE id=?",
                    (error, now + delay, now, now, job_id),
                )
                self.metrics.inc("serve.retries")
                self._note(pending, "close", trace, state,
                           span=self._span(job_id, state, attempts),
                           job=job_id, t=now, error=brief)
                self._note(pending, "point", trace, "retry", span=job_id,
                           job=job_id, t=now, attempt=attempts,
                           backoff=round(delay, 6))
                self._note(pending, "open", trace, "queued",
                           span=self._span(job_id, "queued", attempts),
                           job=job_id, t=now, parent=job_id)
                new_state = "queued"
        self._flush_events(pending)
        return new_state

    def _backoff_delay(self, attempts: int) -> float:
        return self.backoff * (2 ** max(0, attempts - 1))

    # ------------------------------------------------------------------
    # Cancellation.
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Optional[str]:
        """Request cancellation; returns the job's resulting state.

        * ``queued`` jobs flip to ``cancelled`` immediately (terminal).
        * Active (``claimed``/``running``) jobs get ``cancel_requested``
          set and keep running until the owning agent next checks in —
          ``start``/``heartbeat`` then flip the job to ``cancelled``
          and tell the agent to abandon the work.  Returns
          ``"cancelling"``.  A ``complete``/``fail`` that lands before
          that check-in wins the race: finished work is kept.
        * Terminal jobs are left untouched (their state is returned, so
          the HTTP layer can answer 409 for ``done``/``failed``/``lost``
          and idempotent 200 for ``cancelled``).
        * Unknown ids return ``None``.
        """
        now = self.clock()
        pending: list = []
        with self._tx() as conn:
            record = self._fetch(conn, job_id)
            if record is None:
                return None
            if record.state == "queued":
                conn.execute(
                    "UPDATE jobs SET state='cancelled', agent=NULL,"
                    " lease_expires=NULL, updated=?,"
                    " error=COALESCE(error, 'cancelled') WHERE id=?",
                    (now, job_id),
                )
                self.metrics.inc("serve.cancelled")
                self._note(pending, "close", record.trace_id, "queued",
                           span=self._span(job_id, "queued", record.attempts),
                           job=job_id, t=now, cancelled=True)
                self._note(pending, "close", record.trace_id, "job",
                           span=job_id, job=job_id, t=now, state="cancelled")
                outcome = "cancelled"
            elif record.state in ACTIVE_STATES:
                if not record.cancel_requested:
                    conn.execute(
                        "UPDATE jobs SET cancel_requested=1, updated=?"
                        " WHERE id=?",
                        (now, job_id),
                    )
                    self.metrics.inc("serve.cancel_requested")
                    self._note(pending, "point", record.trace_id,
                               "cancel-request", span=job_id, job=job_id,
                               t=now, state=record.state)
                outcome = "cancelling"
            else:
                outcome = record.state
        self._flush_events(pending)
        return outcome

    # ------------------------------------------------------------------
    # Lease reaping (crash recovery).
    # ------------------------------------------------------------------
    def _reap(
        self, conn: sqlite3.Connection, now: float,
        pending: Optional[list] = None,
    ) -> int:
        """Requeue (or park as ``lost``) every job whose lease lapsed."""
        if pending is None:
            pending = []
        rows = conn.execute(
            "SELECT id, attempts, max_attempts, state, trace_id, updated,"
            " created, cancel_requested FROM jobs"
            " WHERE state IN (?, ?) AND lease_expires IS NOT NULL"
            " AND lease_expires<?",
            (*ACTIVE_STATES, now),
        ).fetchall()
        for (job_id, attempts, max_attempts, state, trace, updated,
             created, cancel_requested) in rows:
            self._note(pending, "point", trace, "lease-reclaim", span=job_id,
                       job=job_id, t=now, attempt=attempts, state=state)
            if cancel_requested:
                # A cancel was pending when the agent died; honor it
                # instead of requeueing work nobody wants anymore.
                self._cancel_active(
                    conn, pending, job_id, state, attempts, trace,
                    updated, created, now,
                )
            elif attempts >= max_attempts:
                conn.execute(
                    "UPDATE jobs SET state='lost', agent=NULL,"
                    " lease_expires=NULL, updated=?,"
                    " error=COALESCE(error, 'lease expired') WHERE id=?",
                    (now, job_id),
                )
                self.metrics.inc("serve.lost")
                self._terminal_events(
                    pending, job_id, trace, state, attempts, now, updated,
                    created, "lost", error="lease expired",
                )
            else:
                conn.execute(
                    "UPDATE jobs SET state='queued', agent=NULL,"
                    " lease_expires=NULL, not_before=?, queued_at=?,"
                    " updated=? WHERE id=?",
                    (now + self._backoff_delay(attempts), now, now, job_id),
                )
                self.metrics.inc("serve.requeued")
                self._note(pending, "close", trace, state,
                           span=self._span(job_id, state, attempts),
                           job=job_id, t=now, reclaimed=True)
                self._note(pending, "open", trace, "queued",
                           span=self._span(job_id, "queued", attempts),
                           job=job_id, t=now, parent=job_id)
        return len(rows)

    def requeue_lapsed(self) -> int:
        """Reap now (the controller's reaper loop); returns jobs moved."""
        pending: list = []
        with self._tx() as conn:
            count = self._reap(conn, self.clock(), pending)
        self._flush_events(pending)
        return count

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._read() as conn:
            return self._fetch(conn, job_id)

    def list_jobs(
        self,
        state: Optional[str] = None,
        agent: Optional[str] = None,
        limit: int = 100,
    ) -> list[JobRecord]:
        query = f"SELECT {', '.join(_COLUMNS)} FROM jobs"
        clauses, params = [], []
        if state is not None:
            clauses.append("state=?")
            params.append(state)
        if agent is not None:
            clauses.append("agent=?")
            params.append(agent)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY created LIMIT ?"
        params.append(int(limit))
        with self._read() as conn:
            rows = conn.execute(query, params).fetchall()
        return [JobRecord.from_row(row) for row in rows]

    def stats(self) -> dict:
        """Job counts by state plus the live depth."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        by_state = {state: 0 for state in STATES}
        by_state.update(dict(rows))
        return {
            "by_state": by_state,
            "depth": sum(by_state[s] for s in LIVE_STATES),
            "total": sum(by_state.values()),
        }
