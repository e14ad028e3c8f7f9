"""Engine-tier ladder benchmark: reference / translate / turbo.

Times each execution engine end-to-end (workload build + run) on a set
of loop-heavy suite workloads, twice per engine:

* **cold** — graph-generation cache cleared first, so the measurement
  includes dataset generation and engine compilation; and
* **warm** — a fresh workload built immediately after, so graph
  generation is served by the content-addressed ``repro.service`` store
  and the wall-clock isolates engine compile + execute.

The ``fast`` engine name runs turbo's compiled form, so it has no
column of its own: ``turbo`` is the superblock tier under either name.

Every measurement rebuilds the workload from scratch: running two
engines over one module/address-space is invalid (the first run mutates
the workload's data segments).  Counter signatures are collected per
engine and must agree bit-identically — a benchmark that silently
compared engines computing different things would be meaningless.

Standalone use (writes ``BENCH_engines.json`` next to this file)::

    PYTHONPATH=src python benchmarks/bench_engines.py [--scale small]

or as a bench test::

    pytest benchmarks/bench_engines.py --benchmark-only

See docs/PERFORMANCE.md for how to read the emitted JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.machine import ENGINES, Machine
from repro.workloads.graphs import clear_graph_cache, graph_store
from repro.workloads.registry import make_workload

#: Slowest tier first so the JSON reads as a ladder (``fast`` is a
#: name for the ``turbo`` tier, not a tier).
ENGINE_ORDER = ("reference", "translate", "turbo")

#: Loop-heavy suite members (the tier the turbo engine targets): a
#: nested hash join, a Kronecker BFS, and the pointer-chasing update
#: kernel.  Overridable from the CLI.
DEFAULT_WORKLOADS = ("HJ8-NPO", "Graph500", "randAccess")

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_engines.json"


def _timed_run(name: str, engine: str, scale: str) -> tuple[float, float, dict]:
    """Build a fresh workload and run it.

    Returns ``(build_seconds, run_seconds, signature)`` — build covers
    workload construction (dataset generation included), run covers
    engine compilation + execution, which is the part the tiers differ
    on.
    """
    start = time.perf_counter()
    workload = make_workload(name, scale)
    module, space = workload.build()
    built = time.perf_counter()
    machine = Machine(module, space, engine=engine)
    result = machine.run(workload.entry)
    finished = time.perf_counter()
    signature = {"value": result.value, **machine.counters.as_dict()}
    return built - start, finished - built, signature


def measure_workload(name: str, scale: str, reps: int = 3) -> dict:
    """Cold + warm wall-clock for every engine tier on one workload."""
    rows: dict[str, dict] = {}
    signatures: dict[str, dict] = {}
    generated = 0
    for engine in ENGINE_ORDER:
        clear_graph_cache()
        cold_build, cold_run, signature = _timed_run(name, engine, scale)
        generated = graph_store().metrics.get("graph_cache.misses")
        rows[engine] = {
            "cold_build_s": round(cold_build, 6),
            "cold_run_s": round(cold_run, 6),
            "warm_build_s": float("inf"),
            "warm_run_s": float("inf"),
        }
        signatures[engine] = signature

    # Warm = best of ``reps`` reruns, *interleaved across engines* so
    # slow drift in background load cancels out of the ratios instead
    # of landing on whichever engine happened to run last.  Rebuilding
    # per run is mandatory (a run mutates the workload's data segments).
    for _ in range(reps):
        for engine in ENGINE_ORDER:
            b, r, warm_signature = _timed_run(name, engine, scale)
            if warm_signature != signatures[engine]:
                raise AssertionError(
                    f"{name}/{engine}: warm rerun diverged from the cold "
                    "run (graph cache returned a different graph?)"
                )
            row = rows[engine]
            row["warm_build_s"] = min(row["warm_build_s"], round(b, 6))
            row["warm_run_s"] = min(row["warm_run_s"], round(r, 6))
    for engine in ENGINE_ORDER:
        row = rows[engine]
        row["cold_s"] = round(row["cold_build_s"] + row["cold_run_s"], 6)
        row["warm_s"] = round(row["warm_build_s"] + row["warm_run_s"], 6)
    # Non-graph workloads (hash join, randAccess) never touch the
    # store; for graph workloads the warm builds must be cache hits.
    if generated and graph_store().metrics.get("graph_cache.hits") < generated:
        raise AssertionError(
            f"{name}: warm reruns regenerated graphs instead of hitting "
            "the cache"
        )

    baseline = signatures[ENGINE_ORDER[0]]
    for engine, signature in signatures.items():
        if signature != baseline:
            diverging = sorted(
                k for k in baseline if signature.get(k) != baseline[k]
            )
            raise AssertionError(
                f"{name}: engine {engine!r} is not bit-identical with "
                f"{ENGINE_ORDER[0]!r}; diverging fields: {diverging}"
            )

    rows["signature"] = {
        k: baseline[k]
        for k in ("value", "instructions", "cycles", "loads", "stores")
    }
    return rows


def run_benchmark(
    workloads=DEFAULT_WORKLOADS, scale: str = "small", reps: int = 3
) -> dict:
    assert set(ENGINE_ORDER) == set(ENGINES) - {"fast"}
    report: dict = {"scale": scale, "workloads": {}, "summary": {}}
    for name in workloads:
        report["workloads"][name] = measure_workload(name, scale, reps=reps)

    # Speedups compare warm *run* time: workload construction is
    # engine-independent, so folding it in only dilutes the ladder.
    def speedups(numerator: str, denominator: str) -> dict:
        return {
            name: round(
                rows[numerator]["warm_run_s"]
                / max(rows[denominator]["warm_run_s"], 1e-9),
                3,
            )
            for name, rows in report["workloads"].items()
        }

    report["summary"] = {
        "turbo_vs_translate": speedups("translate", "turbo"),
        "turbo_vs_reference": speedups("reference", "turbo"),
    }
    return report


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_engine_tier_ladder(benchmark, scale):
    report = benchmark.pedantic(
        lambda: run_benchmark(scale=scale), iterations=1, rounds=1
    )
    print()
    print(json.dumps(report["summary"], indent=2))
    # The bulk-stepping tier must beat the reference interpreter; the
    # ratio against translate, its fastest simpler alternative, is
    # recorded rather than gated.
    for name, speedup in report["summary"]["turbo_vs_reference"].items():
        assert speedup > 1.0, f"turbo slower than reference on {name}: {speedup}x"


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small")
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(DEFAULT_WORKLOADS),
        metavar="NAME",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, metavar="PATH"
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="interleaved warm repetitions per engine (min is kept)",
    )
    args = parser.parse_args()

    report = run_benchmark(tuple(args.workloads), args.scale, reps=args.reps)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"wrote {args.output}")
    for name, rows in report["workloads"].items():
        ladder = "  ".join(
            f"{engine}={rows[engine]['warm_run_s']:.2f}s"
            for engine in ENGINE_ORDER
        )
        print(f"  {name:14s} {ladder}")
    for pair, ratios in report["summary"].items():
        pretty = "  ".join(f"{n}={r:.2f}x" for n, r in ratios.items())
        print(f"  {pair:18s} {pretty}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
