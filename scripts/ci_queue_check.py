#!/usr/bin/env python3
"""CI guard for the controller/agent job-queue service.

The drill the service exists to survive:

1. execute a suite **directly** (single process) — the baseline bytes;
2. start a controller with two agent subprocesses and a short lease,
   submit a batch of jobs plus the suite over HTTP (and the suite
   twice — the duplicate must dedup onto the same job id);
3. once an agent has claimed the suite job, **SIGKILL** that agent
   mid-run;
4. assert the lapsed job is reaped and requeued (attempts grew, the
   requeue/lost counters ticked), every submitted job still reaches
   ``done``, and the suite result served over HTTP is **byte-identical**
   to the single-process baseline;
5. submit one more job: the submission must unlink the killed agent's
   wake endpoint (a FIFO with no reader) and leave the survivor's, and
   once the agents stop, their merged metrics must count a wake-up.

Usage:
    python scripts/ci_queue_check.py [--scale tiny] [--lease 2.0]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import repro.api as api
from repro.serve.controller import Controller
from repro.serve.queue import ACTIVE_STATES, local_agent_prefix, wake_dir
from repro.service.api import TuningService

WORKLOADS = ("micro-tiny", "BFS-tiny", "IS-tiny")


def http_json(base: str, path: str, payload: dict | None = None):
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if payload is not None else "GET",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def wait_for(predicate, timeout: float, interval: float = 0.02, what: str = ""):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise SystemExit(f"FAIL: timed out after {timeout:.0f}s waiting for {what}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--lease", type=float, default=2.0)
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()

    suite_request = api.SuiteRequest(scale=args.scale, workloads=WORKLOADS)
    run_requests = [
        api.RunRequest(workload=name, scale=args.scale, scheme=scheme)
        for name in WORKLOADS
        for scheme in ("baseline", "apt-get")
    ]

    # ------------------------------------------------------------------
    # 1. Single-process baseline.
    # ------------------------------------------------------------------
    print(f"[1/5] single-process baseline suite over {WORKLOADS} ...")
    baseline = api.execute(suite_request, service=TuningService())
    baseline_json = baseline.to_json()

    with tempfile.TemporaryDirectory(prefix="repro-ci-queue-") as tmp:
        controller = Controller(
            Path(tmp) / "queue",
            agents=2,
            port=0,  # any free port
            lease=args.lease,
            backoff=0.1,
        )
        controller.start()
        base = f"http://{controller.host}:{controller.port}"
        try:
            # ----------------------------------------------------------
            # 2. Submit the batch over HTTP (suite first: the long job).
            # ----------------------------------------------------------
            print(f"[2/5] submitting {1 + len(run_requests)} jobs to {base}")
            _, suite_job = http_json(
                base, "/v1/jobs", suite_request.to_payload()
            )
            status, duplicate = http_json(
                base, "/v1/jobs", suite_request.to_payload()
            )
            if not (duplicate["id"] == suite_job["id"] and duplicate["deduped"]
                    and status == 200):
                raise SystemExit(f"FAIL: duplicate did not dedup: {duplicate}")
            job_ids = [suite_job["id"]]
            for request in run_requests:
                _, submitted = http_json(
                    base, "/v1/jobs", request.to_payload()
                )
                job_ids.append(submitted["id"])

            # ----------------------------------------------------------
            # 3. SIGKILL the agent holding the suite job, mid-run.
            # ----------------------------------------------------------
            def suite_owner():
                record = controller.queue.get(suite_job["id"])
                if record.state == "done":
                    raise SystemExit(
                        "FAIL: suite finished before the kill window; "
                        "use a larger --scale"
                    )
                if record.state in ACTIVE_STATES and record.agent:
                    return record.agent
                return None

            owner = wait_for(
                suite_owner, args.timeout, what="an agent to claim the suite"
            )
            owner_pid = int(owner.rsplit("-", 1)[1])
            victims = [
                p for p in controller.agents if p.pid == owner_pid
            ]
            if not victims:
                raise SystemExit(
                    f"FAIL: suite owner {owner} is not a spawned agent"
                )
            victims[0].kill()
            victims[0].wait()
            print(f"[3/5] SIGKILLed {owner} while it held {suite_job['id']}")

            # ----------------------------------------------------------
            # 4. The fleet must absorb the loss and finish everything.
            # ----------------------------------------------------------
            def all_done():
                records = [controller.queue.get(i) for i in job_ids]
                if any(r.state in ("failed", "lost") for r in records):
                    details = [(r.id, r.state, r.error) for r in records]
                    raise SystemExit(f"FAIL: terminal failure: {details}")
                return all(r.state == "done" for r in records)

            wait_for(
                all_done, args.timeout, interval=0.1,
                what="every job to finish",
            )

            suite_record = controller.queue.get(suite_job["id"])
            if suite_record.attempts < 2:
                raise SystemExit(
                    "FAIL: suite finished with attempts="
                    f"{suite_record.attempts}; the kill did not force a "
                    "reclaim"
                )
            merged = controller.merged_metrics()
            requeues = merged.get("serve.requeued") + merged.get("serve.lost")
            if not requeues:
                raise SystemExit("FAIL: no requeue/lost recorded after kill")

            _, health = http_json(base, "/healthz")
            if health["agents"]["alive"] >= health["agents"]["spawned"]:
                raise SystemExit(f"FAIL: dead agent still 'alive': {health}")

            _, served = http_json(base, f"/v1/results/{suite_job['id']}")
            if json.dumps(served, sort_keys=True) != baseline_json:
                raise SystemExit(
                    "FAIL: served suite result is not byte-identical to the "
                    "single-process baseline"
                )
            print(
                "[4/5] suite requeued (attempts="
                f"{suite_record.attempts}) and byte-identical to baseline; "
                f"{len(job_ids)} jobs done"
            )

            # ----------------------------------------------------------
            # 5. The next submission clears the victim's wake endpoint.
            # ----------------------------------------------------------
            endpoints = wake_dir(controller.queue_dir)
            victim_endpoint = endpoints / owner
            survivor_endpoints = [
                endpoints / f"{local_agent_prefix()}{p.pid}"
                for p in controller.agents if p.pid != owner_pid
            ]
            if not victim_endpoint.exists():
                raise SystemExit(
                    f"FAIL: no wake endpoint {victim_endpoint} left by the "
                    "killed agent"
                )
            _, extra = http_json(
                base, "/v1/jobs",
                api.RunRequest(
                    workload=WORKLOADS[0], scale=args.scale, scheme="aj"
                ).to_payload(),
            )
            if victim_endpoint.exists():
                raise SystemExit(
                    "FAIL: the submission left the dead agent's wake "
                    f"endpoint {victim_endpoint}"
                )
            missing = [p for p in survivor_endpoints if not p.exists()]
            if missing:
                raise SystemExit(
                    f"FAIL: live agents' wake endpoints vanished: {missing}"
                )
            if not controller.metrics.get("serve.wake.stale_removed"):
                raise SystemExit("FAIL: serve.wake.stale_removed not counted")
            wait_for(
                lambda: controller.queue.get(extra["id"]).state == "done",
                args.timeout, interval=0.05, what="the post-kill job",
            )
        finally:
            controller.stop()
        # Agents publish their counters when they exit.
        wakeups = controller.merged_metrics().get("serve.wake.wakeups")
        if not wakeups:
            raise SystemExit("FAIL: no agent counted a wake-up")
        print(
            f"[5/5] dead agent's wake endpoint removed; {wakeups} wake-up(s)"
        )

    print(
        "queue check OK: lease reclaim, retry, dedup, bit-identical result, "
        "wake endpoints"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
