#!/usr/bin/env python3
"""CI guard for the tuning-service artifact cache.

Runs one experiment twice against a temporary cache directory and
asserts that (a) the second run is served from the cache (persisted
``cache.hits`` grew, zero misses on the warm pass) and (b) the two
reproduced tables are byte-identical.  Exercises the store, the job
pool and the metrics layer end-to-end on every push.

For the experiments that ask for a workload's profile before its
baseline (``SHARES_SIMULATIONS``), the cold pass must also answer some
run from a simulation entry (``sim.hits`` > 0): the baselines come
from the profiling runs.

With ``--sweep <workload>`` it checks a batched sweep instead: one
``repro.cli sweep`` over every scheme, two distances and two cache
scales, cold and then warm against one cache directory.  The warm pass
must record no miss, mark every cell ``cached``, return the cold
pass's runs, and add exactly one cache hit: the sweep's own entry
answers the whole grid.

Usage:
    python scripts/ci_cache_check.py [--experiment fig6] [--scale tiny]
    python scripts/ci_cache_check.py --sweep micro-tiny [--scale tiny]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.service.store import ArtifactStore


#: Experiments whose cold pass must reuse simulations: they profile a
#: workload before measuring its baseline.
SHARES_SIMULATIONS = ("fig8", "fig9", "fig10")

#: The ``--sweep`` grid: every scheme, two distances, two cache scales.
SWEEP_AXES = (
    "schemes=baseline,aj,apt-get", "distances=4,8", "cache-scales=1,2",
)


def run_experiment(name: str, scale: str, cache_dir: str, out: Path) -> None:
    code = cli_main(
        [
            "experiment", name,
            "--scale", scale,
            "--jobs", "2",
            "--cache-dir", cache_dir,
            "--output", str(out),
        ]
    )
    if code != 0:
        raise SystemExit(f"experiment {name} exited with {code}")


def run_sweep(workload: str, scale: str, cache_dir: str, out: Path) -> list:
    """One ``repro.cli sweep`` of :data:`SWEEP_AXES`; returns its cells."""
    argv = [
        "sweep", "--workload", workload,
        "--scale", scale,
        "--cache-dir", cache_dir,
        "--output", str(out),
    ]
    for axis in SWEEP_AXES:
        argv += ["--sweep", axis]
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"sweep of {workload} exited with {code}")
    return json.loads(out.read_text())["cells"]


def check_sweep(workload: str, scale: str) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-ci-cache-") as tmp:
        cache_dir = str(Path(tmp) / "cache")
        cold = run_sweep(workload, scale, cache_dir, Path(tmp) / "cold.json")
        store = ArtifactStore(cache_dir)
        cold_metrics = store.read_metrics()
        warm = run_sweep(workload, scale, cache_dir, Path(tmp) / "warm.json")
        warm_metrics = store.read_metrics()

        problems = []
        for counter in ("cache.misses", "sim.misses"):
            if warm_metrics.get(counter, 0) != cold_metrics.get(counter, 0):
                problems.append(f"warm sweep recorded {counter}")
        hits = warm_metrics.get("cache.hits", 0) - cold_metrics.get(
            "cache.hits", 0
        )
        if hits != 1:
            problems.append(f"warm sweep added {hits} cache hit(s), not 1")
        if not all(cell["cached"] for cell in warm):
            problems.append("a warm sweep cell was not cached")
        if [cell["run"] for cell in warm] != [cell["run"] for cell in cold]:
            problems.append("warm sweep runs differ from the cold sweep")
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"OK: {workload}@{scale} sweep of {len(warm)} cells answered "
            "warm by one cache hit, runs identical"
        )
        cli_main(["cache", "stats", "--cache-dir", cache_dir])
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--experiment", default="fig6")
    parser.add_argument("--scale", default="tiny")
    parser.add_argument(
        "--sweep", metavar="WORKLOAD",
        help="check a sweep cache round trip over WORKLOAD instead",
    )
    args = parser.parse_args()
    if args.sweep:
        return check_sweep(args.sweep, args.scale)

    with tempfile.TemporaryDirectory(prefix="repro-ci-cache-") as tmp:
        cache_dir = str(Path(tmp) / "cache")
        cold_out = Path(tmp) / "cold.json"
        warm_out = Path(tmp) / "warm.json"

        run_experiment(args.experiment, args.scale, cache_dir, cold_out)
        store = ArtifactStore(cache_dir)
        cold_metrics = store.read_metrics()
        cold_hits = cold_metrics.get("cache.hits", 0)
        if store.stats()["entries"] == 0:
            print("FAIL: cold run stored no artifacts", file=sys.stderr)
            return 1
        sim_hits = cold_metrics.get("sim.hits", 0)
        if args.experiment in SHARES_SIMULATIONS and not sim_hits:
            print(
                "FAIL: cold run answered no run from a simulation entry "
                "(sim.hits = 0)",
                file=sys.stderr,
            )
            return 1

        run_experiment(args.experiment, args.scale, cache_dir, warm_out)
        warm_metrics = store.read_metrics()
        warm_hits = warm_metrics.get("cache.hits", 0)

        if warm_hits <= cold_hits:
            print(
                f"FAIL: warm run added no cache hits "
                f"(cold={cold_hits}, warm={warm_hits})",
                file=sys.stderr,
            )
            return 1
        for counter in ("cache.misses", "sim.misses"):
            if warm_metrics.get(counter, 0) != cold_metrics.get(counter, 0):
                print(
                    f"FAIL: warm run recorded {counter}", file=sys.stderr
                )
                return 1
        if json.loads(cold_out.read_text()) != json.loads(warm_out.read_text()):
            print("FAIL: warm table differs from cold table", file=sys.stderr)
            return 1

        print(
            f"OK: {args.experiment}@{args.scale} warm run served from cache "
            f"({warm_hits - cold_hits} hit(s)), tables identical; cold run "
            f"reused {sim_hits} simulation(s)"
        )
        cli_main(["cache", "stats", "--cache-dir", cache_dir])
    return 0


if __name__ == "__main__":
    sys.exit(main())
