"""Run one benchmark workload in this (fresh) interpreter.

Started by ``run.py`` with a cleaned environment, ``PYTHONPATH`` set to the
checkout's ``src`` and its own temp directory.  Prints ``READY`` on stdout
once set-up is done (``run.py`` times set-up from process start to that
line), then runs the workload once and writes its raw measurements as JSON
to ``--out``.  ``--probe`` stops right after ``READY``: it is how ``run.py``
samples set-up time more than once per run.

Every workload is a list of requests answered by the program, each either
*fresh* (the program simulated to answer it) or a *hit* (answered without
simulating); each output is checked against the golden files in
``golden/``.  ``--cpu`` pins the worker, and every process it starts, to
one CPU: ``run.py`` runs two replicas at once on different CPUs.  Each
request is recorded as ``(start, seconds)``, and the worker runs the
host-speed probe of ``hostspeed.py`` beside it for its whole life, so
``run.py`` can divide each time by the host's slowdown while it was
measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path

import hostspeed
import serve_mix
import tracer as tracing

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

SWEEP = {
    "workload": "HJ8-NPO",
    "scale": "small",
    "engine": "turbo",
    "schemes": ("baseline", "aj", "apt-get"),
    "distances": (4, 8, 16, 32, 64, 128),
    "cache_scales": (1, 2),
}
#: Times the sweep is sent again once it is answered; every repeat is
#: answered from the service cache (the ``all cached`` rerun).  Enough
#: that the repeats span several seconds, not one burst of host noise.
SWEEP_REPEATS = 4000
#: Result-poll interval of the serve clients (seconds).
RESULT_POLL_S = 0.01
#: Longest a served request may take before it counts as lost.
REQUEST_TIMEOUT_S = 60.0
#: Experiment columns / summary keys holding host timings: they differ
#: between runs, so the output check leaves them out.
HOST_MARKERS = ("host", "wall")


def ready() -> None:
    print("READY", flush=True)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def digest(payload) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


class Operations:
    """``(start, seconds)`` of each fresh and hit request, plus checked
    outputs."""

    def __init__(self) -> None:
        self.fresh: list[float] = []
        self.hit: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def to_dict(self) -> dict:
        return {
            "fresh_s": self.fresh,
            "hit_s": self.hit,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }


# ----------------------------------------------------------------------
# paper-tiny
# ----------------------------------------------------------------------
def experiment_output(result) -> dict:
    """An experiment's rows and summary with host timings masked."""
    masked = {
        index for index, header in enumerate(result.headers)
        if any(marker in header.lower() for marker in HOST_MARKERS)
    }
    rows = [
        [None if index in masked else value for index, value in enumerate(row)]
        for row in result.rows
    ]
    summary = {
        key: value for key, value in result.summary.items()
        if not any(marker in key.lower() for marker in HOST_MARKERS)
    }
    return json.loads(canonical(
        {"headers": result.headers, "rows": rows, "summary": summary}
    ))


def paper_pass(tracer=None):
    """Run every experiment at tiny scale, in order, on a fresh
    process-global service and graph cache.  Yields ``(id, output or the
    error text)`` per experiment."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.service.api import configure_service
    from repro.workloads.graphs import clear_graph_cache

    clear_graph_cache()
    configure_service()
    for experiment_id, module in ALL_EXPERIMENTS.items():
        run = module.run if tracer is None else tracer.wrap(
            f"experiments.{experiment_id}", module.run
        )
        try:
            output = experiment_output(run("tiny"))
        except Exception as error:  # a failed experiment is a failed op
            output = {"error": repr(error)}
        yield experiment_id, output


def paper_tiny(args, ops: Operations, tracer) -> dict:
    from repro.experiments import ALL_EXPERIMENTS  # noqa: F401
    from repro.service.api import configure_service

    sim = tracing.SimCounter()
    tracing.wrap_runs(sim, tracer, ops.fresh)
    tracing.time_cache_hits(ops.hit)
    configure_service()
    ready()
    if args.probe:
        return {}
    golden = load_golden("paper-tiny")
    start = time.perf_counter()
    for experiment_id, output in paper_pass(tracer):
        ops.check(
            output == golden["experiments"][experiment_id],
            f"{experiment_id}: output differs from golden",
        )
    wall = time.perf_counter() - start
    return {
        "start": start, "wall": wall,
        "sim": sim.totals, "sim_golden": golden["sim"],
    }


# ----------------------------------------------------------------------
# sweep-small
# ----------------------------------------------------------------------
def sweep_request():
    import repro.api as api

    return api.SweepRequest(**SWEEP)


def cell_id(cell: dict) -> str:
    return f"{cell['scheme']}/{cell['distance']}/{cell['cache_scale']}"


def sweep_small(args, ops: Operations, tracer) -> dict:
    import repro.api as api
    from repro.service.api import TuningService

    tracing.wrap_runs(None, tracer)
    service = TuningService()
    request = sweep_request()
    ready()
    if args.probe:
        return {}
    golden = load_golden("sweep-small")
    start = time.perf_counter()
    result = api.execute(request, service=service)
    ops.fresh.append((start, time.perf_counter() - start))
    ops.check(len(result.cells) == len(golden["cells"]), "sweep cell count")
    sim: dict = {}
    for cell in result.cells:
        expected = golden["cells"].get(cell_id(cell))
        run = cell["run"]
        ops.check(
            not cell["cached"] and expected is not None
            and run["value"] == expected["value"]
            and run["counters"] == expected["counters"],
            f"sweep cell {cell_id(cell)} differs from golden",
        )
        tracing.add_counts(sim, tracing.sim_counts(run["counters"]))
    for _ in range(SWEEP_REPEATS):
        sent = time.perf_counter()
        again = api.execute(request, service=service)
        ops.hit.append((sent, time.perf_counter() - sent))
        ops.check(
            [cell["run"] for cell in again.cells]
            == [cell["run"] for cell in result.cells]
            and all(cell["cached"] for cell in again.cells),
            "repeated sweep was not answered from the cache unchanged",
        )
    wall = time.perf_counter() - start
    return {
        "start": start,
        "wall": wall,
        "sim": sim,
        "sim_golden": golden["sim"],
        "replay_cells": sum(
            group["cells"] for group in result.execution["groups"]
            if not group["batched"]
        ),
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def http_call(port: int, method: str, path: str, body=None):
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """A ``repro.cli serve`` controller with one agent on fresh dirs.

    It stays in this process's group, which ``run.py`` started as a new
    session, so ``run.py`` can end the whole tree if this process dies.
    """

    def __init__(self, directory: Path, env: dict) -> None:
        directory.mkdir(parents=True)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--queue-dir", str(directory / "queue"),
             "--cache-dir", str(directory / "cache"),
             "--agents", "1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=dict(env, PYTHONUNBUFFERED="1"), text=True,
        )
        try:
            for line in self.process.stdout:
                if "listening on http://" in line:
                    break
            else:
                raise RuntimeError("controller exited before listening")
            address = line.split("http://", 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])
            deadline = time.monotonic() + 30
            while True:
                status, body = http_call(self.port, "GET", "/healthz")
                if status == 200 and json.loads(body)["agents"]["alive"]:
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError("controller never became healthy")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def agent_pids(self) -> list[int]:
        """Children of the controller (its agents), from ``/proc``."""
        pids = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == self.process.pid:
                pids.append(int(entry.name))
        return pids

    def agent_peak_rss_mb(self) -> float:
        peak = 0.0
        for pid in self.agent_pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def stop(self) -> None:
        """SIGINT lets the controller stop its agent and exit cleanly."""
        if self.process.poll() is None:
            agents = self.agent_pids()
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                for pid in agents:
                    os.kill(pid, signal.SIGKILL)
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def serve_request(port: int, payload: dict) -> dict:
    """Submit one request and wait for its result (closed loop)."""
    start = time.perf_counter()
    status, body = http_call(port, "POST", "/v1/jobs", payload)
    submit_s = time.perf_counter() - start
    if status not in (200, 202):
        return {"ok": False, "error": f"submit replied {status}"}
    reply = json.loads(body)
    deadline = start + REQUEST_TIMEOUT_S
    while True:
        asked = time.perf_counter()
        status, body = http_call(port, "GET", f"/v1/results/{reply['id']}")
        if status != 409:
            break
        if asked > deadline:
            return {"ok": False, "error": "lost: no result in time"}
        time.sleep(RESULT_POLL_S)
    done = time.perf_counter()
    if status != 200:
        return {"ok": False, "error": f"result replied {status}"}
    return {
        "ok": True, "id": reply["id"], "deduped": reply["deduped"],
        "start": start, "latency_s": done - start, "submit_s": submit_s,
        "result_s": done - asked, "result": json.loads(body),
    }


def span_durations(port: int, job_id: str) -> dict:
    """Seconds the job spent in its ``queued`` and ``running`` spans,
    read from the public event stream."""
    status, body = http_call(port, "GET", f"/v1/jobs/{job_id}/events")
    opened: dict = {}
    spent = {"queued": 0.0, "running": 0.0}
    if status != 200:
        return spent
    for line in body.decode().splitlines():
        record = json.loads(line)
        name = record.get("name")
        if name not in spent:
            continue
        if record["ev"] == "open":
            opened[record["span"]] = record["t"]
        elif record["ev"] == "close" and record["span"] in opened:
            spent[name] += record["t"] - opened.pop(record["span"])
    return spent


def result_counters(payload: dict) -> dict:
    """The simulated counters carried by a Run or Profile result."""
    if payload["kind"] == "ProfileResult":
        return payload["profile"]["counters"]
    return payload["counters"]


def serve_mixed(args, ops: Operations, tracer) -> dict:
    env = dict(os.environ)
    trace_dir = Path(args.tmp) / "serve-trace"
    if args.trace:
        trace_dir.mkdir()
        env["PYTHONPATH"] += os.pathsep + str(HERE / "inject")
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    streams = serve_mix.client_streams(args.seed, args.replica)
    server = Server(Path(args.tmp) / "serve", env)
    try:
        ready()
        if args.probe:
            return {}
        golden = load_golden("serve-mixed")["requests"]
        canary = serve_request(server.port, serve_mix.CANARY)
        if not canary["ok"]:
            raise RuntimeError(f"canary request failed: {canary['error']}")
        samples: list[list[dict]] = [[] for _ in streams]

        def client(index: int) -> None:
            for expected, payload in streams[index]:
                try:
                    outcome = serve_request(server.port, payload)
                    if args.trace and outcome["ok"] and not outcome["deduped"]:
                        outcome["spans"] = span_durations(
                            server.port, outcome["id"]
                        )
                except (OSError, HTTPException, ValueError) as error:
                    outcome = {"ok": False, "error": repr(error)}
                outcome["expected"] = expected
                outcome["key"] = serve_mix.request_id(payload)
                samples[index].append(outcome)

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(len(streams))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        rss = server.agent_peak_rss_mb()
    finally:
        server.stop()

    sim: dict = {}
    sim_golden: dict = {}
    submits, results, queued, running = [], [], [], []
    outcomes = [outcome for stream in samples for outcome in stream]
    deduped = 0
    for outcome in outcomes:
        if not outcome["ok"]:
            ops.check(False, f"{outcome['key']}: {outcome['error']}")
            continue
        expected = golden.get(outcome["key"], {})
        hit = outcome["deduped"]
        ops.check(
            digest(outcome["result"]) == expected.get("sha256")
            and ("hit" if hit else "fresh") == outcome["expected"],
            f"{outcome['key']}: result or class differs",
        )
        deduped += hit
        (ops.hit if hit else ops.fresh).append(
            (outcome["start"], outcome["latency_s"])
        )
        submits.append(outcome["submit_s"])
        results.append(outcome["result_s"])
        if not hit:
            tracing.add_counts(sim, tracing.sim_counts(
                result_counters(outcome["result"])
            ))
            tracing.add_counts(sim_golden, expected.get("sim", {}))
            if "spans" in outcome:
                queued.append(outcome["spans"]["queued"])
                running.append(outcome["spans"]["running"])
    return {
        "start": start,
        "wall": wall,
        "peak_rss_mb": rss,
        "sim": sim,
        "sim_golden": sim_golden,
        "serve": {
            "submit_s": submits, "result_s": results,
            "queued_s": queued, "running_s": running,
            "dedup_ratio": deduped / max(1, len(outcomes)),
        },
        "snapshots": [
            json.loads(path.read_text())
            for path in sorted(trace_dir.glob("trace-*.json"))
        ],
    }


WORKLOADS = {
    "paper-tiny": paper_tiny,
    "sweep-small": sweep_small,
    "serve-mixed": serve_mixed,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument(
        "--replica", type=int, default=0,
        help="which of the replicas run together this worker is",
    )
    parser.add_argument(
        "--cpu", type=int,
        help="pin this process (and the processes it starts) to one CPU",
    )
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    speed = hostspeed.SpeedProbe()
    try:
        tracer = None
        if args.trace and args.workload != "serve-mixed":
            tracer = tracing.Tracer(f"{args.workload}-{args.seed}")
            tracing.install(tracer)
        ops = Operations()
        raw = WORKLOADS[args.workload](args, ops, tracer)
    finally:
        samples = speed.stop()
    raw["speed"] = samples
    if args.probe:
        Path(args.out).write_text(json.dumps(raw))
        return 0
    raw.update(ops.to_dict())
    raw.setdefault(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        raw["snapshots"] = [tracer.snapshot()]
    Path(args.out).write_text(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
