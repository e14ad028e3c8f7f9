"""Unit tests for the durable job queue (repro.serve.queue)."""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.service.metrics import MetricsRegistry
from repro.serve.queue import JobQueue, QueueFull


class Clock:
    """A manually advanced clock injected into the queue under test."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture()
def clock() -> Clock:
    return Clock()


@pytest.fixture()
def queue(tmp_path, clock) -> JobQueue:
    return JobQueue(
        tmp_path / "q",
        lease=10.0,
        max_attempts=3,
        backoff=1.0,
        clock=clock,
        metrics=MetricsRegistry(),
    )


REQ = {"kind": "RunRequest", "v": 1, "workload": "micro-tiny"}


class TestLifecycle:
    def test_submit_claim_start_complete(self, queue):
        record, deduped = queue.submit("RunRequest", REQ, dedup_key="k")
        assert record.state == "queued" and not deduped
        assert record.attempts == 0

        job = queue.claim("a1")
        assert job.id == record.id
        assert job.state == "claimed"
        assert job.attempts == 1
        assert job.agent == "a1"

        assert queue.start(job.id, "a1")
        assert queue.get(job.id).state == "running"

        assert queue.complete(job.id, "a1", {"ok": True})
        final = queue.get(job.id)
        assert final.state == "done"
        assert final.result == {"ok": True}
        assert final.error is None

    def test_claim_order_is_fifo(self, queue, clock):
        first, _ = queue.submit("X", REQ, dedup_key="k1")
        clock.advance(1.0)
        second, _ = queue.submit("X", REQ, dedup_key="k2")
        assert queue.claim("a").id == first.id
        assert queue.claim("a").id == second.id
        assert queue.claim("a") is None

    def test_request_payload_round_trips(self, queue):
        record, _ = queue.submit("RunRequest", REQ, dedup_key="k")
        assert queue.get(record.id).request == REQ


class TestDedup:
    def test_duplicate_submission_dedups_to_one_job(self, queue):
        record, deduped = queue.submit("X", REQ, dedup_key="same")
        again, deduped2 = queue.submit("X", REQ, dedup_key="same")
        assert not deduped and deduped2
        assert again.id == record.id
        assert queue.stats()["total"] == 1

    def test_done_job_dedups_with_result_available(self, queue):
        record, _ = queue.submit("X", REQ, dedup_key="same")
        job = queue.claim("a")
        queue.complete(job.id, "a", {"value": 7})
        again, deduped = queue.submit("X", REQ, dedup_key="same")
        assert deduped and again.state == "done"
        assert again.result == {"value": 7}

    def test_dedup_answer_does_not_decode_the_result(
        self, queue, monkeypatch
    ):
        queue.submit("X", REQ, dedup_key="same")
        job = queue.claim("a")
        queue.complete(job.id, "a", {"value": 7})
        decoded = []
        loads = json.loads
        monkeypatch.setattr(
            json, "loads", lambda text: decoded.append(text) or loads(text)
        )
        again, deduped = queue.submit("X", REQ, dedup_key="same")
        assert deduped and again.result_text == '{"value": 7}'
        assert again.result_text not in decoded

    def test_terminal_failure_is_revived_by_resubmit(self, queue, clock):
        record, _ = queue.submit("X", REQ, dedup_key="same", max_attempts=1)
        job = queue.claim("a")
        assert queue.fail(job.id, "a", "boom") == "failed"
        revived, deduped = queue.submit("X", REQ, dedup_key="same")
        assert not deduped
        assert revived.id == record.id
        assert revived.state == "queued"
        assert revived.attempts == 0
        assert revived.error is None

    def test_no_dedup_key_means_distinct_jobs(self, queue):
        a, _ = queue.submit("X", REQ)
        b, _ = queue.submit("X", REQ)
        assert a.id != b.id
        assert queue.stats()["total"] == 2


class TestReadsTakeNoWriteLock:
    """Status reads and resubmissions of finished work are plain
    SELECTs: another process's open write transaction does not hold
    them up (it blocks only writers)."""

    @staticmethod
    def _while_write_locked(queue, fn):
        holder = sqlite3.connect(queue.db_path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        out = {}
        thread = threading.Thread(
            target=lambda: out.setdefault("value", fn()), daemon=True
        )
        try:
            thread.start()
            thread.join(timeout=2.0)
            finished = not thread.is_alive()
        finally:
            holder.execute("ROLLBACK")
            holder.close()
            thread.join(timeout=35.0)
        assert finished, "read waited for another connection's write lock"
        return out["value"]

    def test_get_list_and_stats(self, queue):
        record, _ = queue.submit("X", REQ, dedup_key="k")
        assert self._while_write_locked(
            queue, lambda: queue.get(record.id)
        ).id == record.id
        assert len(self._while_write_locked(queue, queue.list_jobs)) == 1
        assert self._while_write_locked(queue, queue.stats)["total"] == 1

    def test_resubmitting_a_done_job(self, queue):
        record, _ = queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        queue.complete(job.id, "a", {"value": 7})
        deduped_before = queue.metrics.get("serve.deduped") or 0
        again, deduped = self._while_write_locked(
            queue, lambda: queue.submit("X", REQ, dedup_key="k")
        )
        assert deduped and again.id == record.id
        assert again.result == {"value": 7}
        assert queue.metrics.get("serve.deduped") == deduped_before + 1


class TestRetryAndBackoff:
    def test_fail_requeues_with_backoff(self, queue, clock):
        queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        assert queue.fail(job.id, "a", "transient") == "queued"
        # Still inside the backoff window: not claimable.
        assert queue.claim("a") is None
        clock.advance(1.5)
        retry = queue.claim("a")
        assert retry.id == job.id
        assert retry.attempts == 2
        assert retry.error == "transient"  # last error kept for debugging

    def test_backoff_doubles_per_attempt(self, queue, clock):
        queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        queue.fail(job.id, "a", "e1")
        assert queue.get(job.id).not_before == pytest.approx(clock.now + 1.0)
        clock.advance(2.0)
        job = queue.claim("a")
        queue.fail(job.id, "a", "e2")
        assert queue.get(job.id).not_before == pytest.approx(clock.now + 2.0)

    def test_attempt_budget_exhaustion_parks_failed(self, queue, clock):
        queue.submit("X", REQ, dedup_key="k", max_attempts=2)
        for _ in range(2):
            clock.advance(10.0)
            job = queue.claim("a")
            assert job is not None
            state = queue.fail(job.id, "a", "boom")
        assert state == "failed"
        final = queue.get(job.id)
        assert final.state == "failed"
        assert final.error == "boom"
        clock.advance(100.0)
        assert queue.claim("a") is None


class TestLeases:
    def test_lapsed_lease_is_reaped_on_claim(self, queue, clock):
        queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("dead-agent")
        queue.start(job.id, "dead-agent")
        # Nobody heartbeats; the lease lapses.  The next claim reaps
        # the job back to queued (with a retry backoff), and the claim
        # after the backoff picks it up.
        clock.advance(12.0)
        assert queue.claim("live-agent") is None
        assert queue.get(job.id).state == "queued"
        clock.advance(1.5)
        reclaimed = queue.claim("live-agent")
        assert reclaimed.id == job.id
        assert reclaimed.agent == "live-agent"
        assert reclaimed.attempts == 2

    def test_heartbeat_extends_the_lease(self, queue, clock):
        queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        for _ in range(5):
            clock.advance(8.0)
            assert queue.heartbeat(job.id, "a")
        # Kept alive far past the original lease.
        assert queue.claim("b") is None
        assert queue.get(job.id).state == "claimed"

    def test_zombie_agent_cannot_clobber_the_new_owner(self, queue, clock):
        queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("zombie")
        clock.advance(12.0)
        queue.requeue_lapsed()
        clock.advance(1.5)
        assert queue.claim("owner").id == job.id
        assert not queue.heartbeat(job.id, "zombie")
        assert not queue.complete(job.id, "zombie", {"stale": True})
        assert queue.fail(job.id, "zombie", "stale") is None
        assert queue.complete(job.id, "owner", {"fresh": True})
        assert queue.get(job.id).result == {"fresh": True}

    def test_exhausted_lapse_parks_lost(self, queue, clock):
        queue.submit("X", REQ, dedup_key="k", max_attempts=1)
        job = queue.claim("a")
        clock.advance(12.0)
        assert queue.requeue_lapsed() == 1
        final = queue.get(job.id)
        assert final.state == "lost"
        assert final.error == "lease expired"
        assert queue.metrics.get("serve.lost") == 1


class TestBackpressureAndDurability:
    def test_max_depth_rejects_with_queue_full(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", max_depth=2, clock=clock)
        queue.submit("X", REQ, dedup_key="k1")
        queue.submit("X", REQ, dedup_key="k2")
        with pytest.raises(QueueFull):
            queue.submit("X", REQ, dedup_key="k3")
        # Dedup onto an existing job is not new depth: still accepted.
        _, deduped = queue.submit("X", REQ, dedup_key="k1")
        assert deduped
        # Draining frees depth.
        job = queue.claim("a")
        queue.complete(job.id, "a", {})
        queue.submit("X", REQ, dedup_key="k3")

    def test_state_survives_reopen(self, tmp_path, clock):
        queue = JobQueue(tmp_path / "q", clock=clock, lease=10.0)
        record, _ = queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        # A brand-new handle (fresh process after a crash) sees the
        # same committed state and can finish the job.
        reopened = JobQueue(tmp_path / "q", clock=clock, lease=10.0)
        seen = reopened.get(record.id)
        assert seen.state == "claimed"
        assert seen.agent == "a"
        assert reopened.complete(job.id, "a", {"v": 1})
        assert queue.get(record.id).state == "done"

    def test_stats_counts_by_state(self, queue, clock):
        queue.submit("X", REQ, dedup_key="k1")
        queue.submit("X", REQ, dedup_key="k2")
        job = queue.claim("a")
        queue.complete(job.id, "a", {})
        stats = queue.stats()
        assert stats["by_state"]["queued"] == 1
        assert stats["by_state"]["done"] == 1
        assert stats["depth"] == 1
        assert stats["total"] == 2

    def test_claim_latency_histogram_observed(self, queue, clock):
        queue.submit("X", REQ, dedup_key="k")
        clock.advance(3.0)
        queue.claim("a")
        data = queue.metrics.get("serve.claim_seconds")
        assert data["count"] == 1
        assert data["min"] == pytest.approx(3.0)

    def test_list_jobs_filters(self, queue):
        queue.submit("X", REQ, dedup_key="k1")
        queue.submit("X", REQ, dedup_key="k2")
        queue.claim("a1")
        assert len(queue.list_jobs()) == 2
        assert len(queue.list_jobs(state="queued")) == 1
        mine = queue.list_jobs(agent="a1")
        assert len(mine) == 1 and mine[0].agent == "a1"


class TestPriority:
    def test_higher_priority_claims_first(self, queue, clock):
        low, _ = queue.submit("X", REQ, dedup_key="low", priority=0)
        clock.advance(1.0)
        high, _ = queue.submit("X", REQ, dedup_key="high", priority=5)
        assert queue.claim("a").id == high.id
        assert queue.claim("a").id == low.id

    def test_fifo_within_equal_priority(self, queue, clock):
        first, _ = queue.submit("X", REQ, dedup_key="k1", priority=3)
        clock.advance(1.0)
        second, _ = queue.submit("X", REQ, dedup_key="k2", priority=3)
        assert queue.claim("a").id == first.id
        assert queue.claim("a").id == second.id

    def test_dedup_hit_bumps_queued_priority(self, queue):
        record, _ = queue.submit("X", REQ, dedup_key="same", priority=0)
        again, deduped = queue.submit("X", REQ, dedup_key="same", priority=7)
        assert deduped and again.id == record.id
        assert again.priority == 7
        # A lower resubmit never demotes.
        again, _ = queue.submit("X", REQ, dedup_key="same", priority=2)
        assert again.priority == 7

    def test_revived_job_takes_new_priority(self, queue, clock):
        queue.submit("X", REQ, dedup_key="same", max_attempts=1, priority=9)
        job = queue.claim("a")
        assert queue.fail(job.id, "a", "boom") == "failed"
        revived, _ = queue.submit("X", REQ, dedup_key="same", priority=1)
        assert revived.state == "queued"
        assert revived.priority == 1


class TestCancellation:
    def test_cancel_queued_is_immediate(self, queue):
        record, _ = queue.submit("X", REQ, dedup_key="k")
        assert queue.cancel(record.id) == "cancelled"
        final = queue.get(record.id)
        assert final.state == "cancelled"
        assert queue.claim("a") is None
        assert queue.metrics.get("serve.cancelled") == 1

    def test_cancel_unknown_returns_none(self, queue):
        assert queue.cancel("no-such-job") is None

    def test_cancel_terminal_reports_state(self, queue):
        record, _ = queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        queue.complete(job.id, "a", {})
        assert queue.cancel(record.id) == "done"

    def test_cancel_running_lands_at_heartbeat(self, queue, clock):
        """Cancel-vs-running race: the flag is honored at the next
        heartbeat, and the agent's eventual complete is stale."""
        record, _ = queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        assert queue.start(job.id, "a")
        assert queue.cancel(record.id) == "cancelling"
        assert queue.get(record.id).state == "running"  # not yet honored
        assert not queue.heartbeat(job.id, "a")
        assert queue.get(record.id).state == "cancelled"
        assert not queue.complete(job.id, "a", {"late": True})
        assert queue.get(record.id).result is None

    def test_cancel_vs_claim_race(self, queue):
        """A cancel that lands between claim and start wins: start is
        refused, so the agent never burns the simulation."""
        record, _ = queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        assert queue.cancel(record.id) == "cancelling"
        assert not queue.start(job.id, "a")
        assert queue.get(record.id).state == "cancelled"

    def test_complete_beats_pending_cancel(self, queue):
        """A cancel that lands after the work finished keeps the result:
        finished work is never thrown away."""
        record, _ = queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        queue.start(job.id, "a")
        assert queue.cancel(record.id) == "cancelling"
        assert queue.complete(job.id, "a", {"v": 42})
        final = queue.get(record.id)
        assert final.state == "done"
        assert final.result == {"v": 42}
        assert not final.cancel_requested  # flag cleared, not latched

    def test_fail_honors_pending_cancel(self, queue):
        record, _ = queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        queue.start(job.id, "a")
        queue.cancel(record.id)
        assert queue.fail(job.id, "a", "boom") == "cancelled"
        assert queue.get(record.id).state == "cancelled"

    def test_reap_honors_pending_cancel(self, queue, clock):
        """A cancelled job whose agent died is parked cancelled by the
        reaper instead of being requeued for a retry nobody wants."""
        record, _ = queue.submit("X", REQ, dedup_key="k")
        job = queue.claim("a")
        queue.start(job.id, "a")
        queue.cancel(record.id)
        clock.advance(12.0)
        queue.requeue_lapsed()
        assert queue.get(record.id).state == "cancelled"

    def test_cancel_is_idempotent(self, queue):
        record, _ = queue.submit("X", REQ, dedup_key="k")
        assert queue.cancel(record.id) == "cancelled"
        assert queue.cancel(record.id) == "cancelled"
        assert queue.metrics.get("serve.cancelled") == 1

    def test_cancelled_revives_on_resubmit(self, queue):
        record, _ = queue.submit("X", REQ, dedup_key="same")
        queue.cancel(record.id)
        revived, deduped = queue.submit(
            "X", REQ, dedup_key="same", priority=4
        )
        assert not deduped
        assert revived.id == record.id
        assert revived.state == "queued"
        assert revived.priority == 4
        assert not revived.cancel_requested
