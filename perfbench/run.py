#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-tiny --seed 1 --seconds 40 --trace 0

Each run measures one pass of its workload in each of two replicas at once,
pinned to different CPUs, 25-45 s on a 2-core x86-64 host; ``--seconds``
is recorded with the result but does not change the work, so every run
measures the same work.  Every host time is divided by the slowdown of the
host that its worker measured beside it (``hostspeed.py``), so it reads as
seconds on the quiet reference host; the raw times are printed and
recorded too.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run, plus the tracing overhead against an
untraced run made alongside it on the other CPU.  Every metric is printed as
``name = value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each workload runs in a fresh
interpreter (``worker.py``) with the ``REPRO_*`` knobs removed from its
environment and its own temp directory under ``.perfbench/``, so neither
a developer's shell nor a warm cache from an earlier run changes what is
measured.  ``README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("paper-tiny", "sweep-small", "serve-mixed")
#: Workers that run the same workload at the same time, each pinned to its
#: own CPU; every metric pools their samples.  The CPUs of a shared host
#: slow down independently of each other, so two replicas halve the weight
#: of a burst on either.
REPLICAS = 2
#: Extra rounds of set-up-only worker starts per untraced run; ``setup_s``
#: is the median over these and the measured workers' own starts.
SETUP_PROBE_ROUNDS = 1
#: Every worker of one run must end within this many seconds in total.
RUN_BUDGET_S = 170.0
HERMETIC_UNSET = (
    "REPRO_ENGINE", "REPRO_CACHE_DIR", "REPRO_CODE_CACHE", "REPRO_JOBS",
    "REPRO_BATCH_VECTOR_CELLS",
)
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4",
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "ideal", "profiling_overhead",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
)

PER_LAYER = tuple(
    (f"experiments.{experiment_id}.s", "s") for experiment_id in EXPERIMENT_IDS
) + (
    ("workloads.build.calls", "count"),
    ("workloads.build.s", "s"),
    ("workloads.graph.misses", "count"),
    ("passes.aj.calls", "count"),
    ("passes.aj.s", "s"),
    ("passes.aptget.calls", "count"),
    ("passes.aptget.s", "s"),
    ("profiling.collect.calls", "count"),
    ("profiling.collect.s", "s"),
    ("core.analyze.calls", "count"),
    ("core.analyze.s", "s"),
    ("machine.run.calls", "count"),
    ("machine.run.self_s", "s"),
    ("machine.compile_s", "s"),
    ("machine.ns_per_instr", "ns/instr"),
    ("machine.batch.calls", "count"),
    ("machine.batch.s", "s"),
    ("machine.batch.replay_cells", "count"),
    ("mem.load.calls", "count"),
    ("mem.store.calls", "count"),
    ("mem.prefetch.calls", "count"),
    ("mem.port.s", "s"),
    ("service.store.get.calls", "count"),
    ("service.store.get.s", "s"),
    ("service.store.put.calls", "count"),
    ("service.store.put.s", "s"),
    ("service.cache.hits", "count"),
    ("service.cache.lookups", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.queued_ms", "ms"),
    ("serve.running_ms", "ms"),
    ("serve.dedup_ratio", "ratio"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.llc_misses", "count"),
    ("sim.sw_prefetches", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
#: Units of the per-layer metrics that are host times.
HOST_TIME_UNITS = ("s", "ms", "ns/instr")


class WorkerFailed(RuntimeError):
    pass


def hermetic_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_UNSET}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def stop_group(pgid: int) -> None:
    """End every process left in a worker's process group and wait
    until none remains."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


class Worker:
    """One started ``worker.py`` process, in a process group of its own."""

    def __init__(
        self, runner: "Runner", trace: int, probe: bool, cpu, replica: int,
    ) -> None:
        runner.count += 1
        tmp = runner.work / f"w{runner.count}"
        tmp.mkdir()
        self.out = tmp / "raw.json"
        self.argv = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", runner.args.workload,
            "--seed", str(runner.args.seed), "--replica", str(replica),
            "--trace", str(trace), "--tmp", str(tmp), "--out", str(self.out),
        ] + (["--probe"] if probe else []) + (
            [] if cpu is None else ["--cpu", str(cpu)]
        )
        self.ready_at: list[float] = []
        self.start = time.perf_counter()
        self.process = subprocess.Popen(
            self.argv, cwd=runner.root, env=dict(runner.env, TMPDIR=str(tmp)),
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.reader = threading.Thread(target=self.read, daemon=True)
        self.reader.start()

    def read(self) -> None:
        for line in self.process.stdout:
            if not self.ready_at and line.strip() == "READY":
                self.ready_at.append(time.perf_counter())

    def wait(self, deadline: float):
        """Wait for the worker, then end whatever is left of its group."""
        try:
            return self.process.wait(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            return None
        finally:
            self.stop()

    def stop(self) -> None:
        stop_group(self.process.pid)
        self.process.wait()
        self.reader.join(timeout=5)
        self.process.stdout.close()

    def result(self, code):
        """``(raw measurements, (start, set-up seconds))`` of a finished
        worker."""
        if code != 0 or not self.ready_at:
            raise WorkerFailed(
                f"worker {' '.join(self.argv[2:])} ended with "
                f"{'a timeout' if code is None else f'code {code}'}"
            )
        raw = json.loads(self.out.read_text())
        return raw, (self.start, self.ready_at[0] - self.start)


class Runner:
    """Starts the workers of one benchmark run inside ``work``."""

    def __init__(self, args, root: Path, work: Path) -> None:
        self.args = args
        self.root = root
        self.work = work
        self.env = hermetic_env(root)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0))[:REPLICAS]

    def together(self, specs, first_replica: int = 0):
        """Run one worker per ``(trace, probe)`` spec, at the same time and
        each pinned to its own CPU (one after another if there are fewer
        CPUs than specs); returns their :meth:`Worker.result`."""
        if len(self.cpus) < len(specs):
            return [
                self.together([spec], replica)[0]
                for replica, spec in enumerate(specs)
            ]
        started: list[Worker] = []
        try:
            for replica, ((trace, probe), cpu) in enumerate(
                zip(specs, self.cpus)
            ):
                started.append(Worker(
                    self, trace, probe, cpu, first_replica + replica
                ))
            codes = [worker.wait(self.deadline) for worker in started]
        finally:
            for worker in started:
                if worker.process.returncode is None:
                    worker.stop()
        return [worker.result(code) for worker, code in zip(started, codes)]


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def replica_ms(percentile, classes: list[list[float]]) -> float:
    """One percentile of each replica's samples of a class, averaged over
    the replicas, in ms.  The replicas' CPUs run at different speeds, so
    a percentile of their pooled samples would sit where two offset
    distributions meet and jump with the gap between them.  A class with
    fewer than 100 samples in the run has no p90 with 10 samples beyond
    it, so its p90 reads its median."""
    if percentile is p90 and sum(map(len, classes)) < 100:
        percentile = p50
    return statistics.mean(
        percentile(values) if len(values) > 1 else p50(values)
        for values in classes
    ) * 1e3


class Clock:
    """Turns the times one worker measured into reported seconds: with
    ``adjust``, each is divided by the host's slowdown while it was being
    measured (``hostspeed.py``); without, they stay raw."""

    def __init__(self, raw: dict, adjust: bool) -> None:
        self.speed = hostspeed.Speed(raw["speed"]) if adjust else None

    def __call__(self, start: float, seconds: float) -> float:
        if self.speed is None:
            return seconds
        return seconds / self.speed.slowdown(start, start + seconds)


def end_to_end(measured: list, setups: list, adjust: bool) -> dict:
    """Metrics over replicas: percentiles and wall seconds averaged.
    ``measured`` and ``setups`` hold :meth:`Worker.result` pairs."""
    hits, freshes, walls = [], [], []
    for raw, _ in measured:
        clock = Clock(raw, adjust)
        hits.append([clock(start, seconds) for start, seconds in raw["hit_s"]])
        freshes.append([
            clock(start, seconds) for start, seconds in raw["fresh_s"]
        ])
        walls.append(clock(raw["start"], raw["wall"]))
    wall = statistics.mean(walls)
    jobs = sum(map(len, hits)) + sum(map(len, freshes))
    return {
        "setup_s": p50([
            Clock(raw, adjust)(*setup) for raw, setup in setups
        ]),
        "wall_s": wall,
        "peak_rss_mb": max(raw["peak_rss_mb"] for raw, _ in measured),
        "hit_p50_ms": replica_ms(p50, hits),
        "hit_p90_ms": replica_ms(p90, hits),
        "fresh_p50_ms": replica_ms(p50, freshes),
        "fresh_p90_ms": replica_ms(p90, freshes),
        "jobs_per_s": jobs / len(measured) / wall,
    }


def per_layer(untraced: dict, traced: dict, adjust: bool) -> dict:
    """Metrics of the traced worker.  With ``adjust``, its host times are
    divided by the host's slowdown over its whole measured pass, and the
    untraced wall by the slowdown over the untraced pass."""
    snapshots = traced.get("snapshots", [])
    metrics = tracing.layer_metrics(snapshots)
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"experiments.{experiment_id}.s"] = sum(
            snap["totals"].get(f"experiments.{experiment_id}", [0, 0.0])[1]
            for snap in snapshots
        )
    metrics["machine.batch.replay_cells"] = traced.get("replay_cells", 0)
    serve = traced.get("serve", {})
    for name in ("submit", "result", "queued", "running"):
        metrics[f"serve.{name}_ms"] = p50(serve.get(f"{name}_s", [])) * 1e3
    metrics["serve.dedup_ratio"] = serve.get("dedup_ratio", 0.0)
    for name, _ in tracing.SIM_FIELDS:
        metrics[name] = traced["sim"].get(name, 0)
    wall = Clock(traced, adjust)(traced["start"], traced["wall"])
    for name, unit in PER_LAYER:
        if unit in HOST_TIME_UNITS and name in metrics:
            metrics[name] *= wall / traced["wall"]
    metrics["trace.untraced_wall_s"] = Clock(untraced, adjust)(
        untraced["start"], untraced["wall"]
    )
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    )
    return metrics


def environment(root: Path) -> dict:
    """What a result was measured on: interpreter, cores and source."""
    commit = None
    if (root / ".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True,
        )
        commit = head.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": source.hexdigest(),
    }


def measure(args, runner: Runner):
    """Returns ``(metrics, units, raw measurements of every worker, the
    metrics before the host-speed adjustment)``."""
    if args.trace:
        (untraced, _), (traced, _) = runner.together([(0, False), (1, False)])
        return (
            per_layer(untraced, traced, adjust=True), dict(PER_LAYER),
            [untraced, traced], per_layer(untraced, traced, adjust=False),
        )
    setups = [
        started
        for _ in range(SETUP_PROBE_ROUNDS)
        for started in runner.together([(0, True)] * REPLICAS)
    ]
    measured = runner.together([(0, False)] * REPLICAS)
    setups += measured
    return (
        end_to_end(measured, setups, adjust=True), dict(END_TO_END),
        [raw for raw, _ in measured],
        end_to_end(measured, setups, adjust=False),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="recorded with the result; every run measures one pass",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {root / 'src' / 'repro'}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    base = root / ".perfbench"
    work = base / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, units, raws, unadjusted = measure(
            args, Runner(args, root, work)
        )
    except WorkerFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(raw["attempted"] for raw in raws) + len(raws)
    failed = sum(raw["failed"] for raw in raws)
    errors = [error for raw in raws for error in raw["errors"]]
    for raw in raws:
        if raw["sim"] != raw["sim_golden"]:
            failed += 1
            errors.append(
                f"sim counts {raw['sim']} differ from golden "
                f"{raw['sim_golden']}"
            )
    slowdowns = [
        hostspeed.Speed(raw["speed"]).slowdown(
            raw["start"], raw["start"] + raw["wall"]
        )
        for raw in raws
    ]
    env = environment(root)
    results = base / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "metrics": metrics, "unadjusted": unadjusted,
        "slowdowns": slowdowns, "walls": [raw.get("wall") for raw in raws],
        "attempted": attempted, "failed": failed,
        "errors": errors,
        "spans": [raw.get("snapshots", []) for raw in raws],
    }))

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{key}={value}" for key, value in env.items())
    )
    print("# " + " ".join(
        f"{key}={value}" for key, value in sorted(raws[-1]["sim"].items())
    ))
    print("# host slowdown per worker: " + " ".join(
        f"{value:.3f}" for value in slowdowns
    ) + "; unadjusted: " + " ".join(
        f"{key}={unadjusted[key]:.6g}" for key in units
    ))
    for error in errors[:20]:
        print(f"# FAILED: {error}")
    for metric, unit in units.items():
        print(f"{metric} = {metrics[metric]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
