#!/usr/bin/env python3
"""CI perf-smoke for the compiled execution engines.

Runs the Figure-5-style suite comparison (every registered workload at
the given scale, baseline/A&J/APT-GET — the same work ``benchmarks/
bench_fig05.py`` measures) once per engine through the v1 ``repro.api``
surface, then asserts:

* **bit-identical results** — every workload's per-scheme payload
  (values, counters, injection reports, hints) matches the reference
  interpreter exactly, under both the ``fast`` and the ``turbo`` engine
  names (``fast`` is the default name and runs turbo's compiled form),
  and
* **the engine ladder holds** — wall-clock for the default ``fast``
  engine, i.e. the superblock tier, must beat the reference
  interpreter by ``--min-speedup``.

With ``--max-telemetry-overhead`` it additionally runs the
service-telemetry overhead probe (``benchmarks/bench_obs.py
measure_telemetry``): executing a tiny suite inside a telemetry job
scope must cost at most the given fraction over the bare execution
(default gate in CI: 0.05 = 5%; the median ratio over interleaved
plain-traced-traced-plain blocks), and the results must stay
byte-identical — telemetry observes, never perturbs.

With ``--min-batch-speedup`` it additionally runs the batched-sweep
probe (``benchmarks/bench_sweep.py measure_sweep``): an 8-cell A&J
distance sweep executed in one :func:`repro.machine.batch.run_batch`
pass is timed against a fresh ``turbo`` Machine per cell — the fastest
sequential alternative — over interleaved pairs, and the median
per-pair ratio must reach the given floor (CI gate: 1.1x).  Every
batched cell is checked bit-identical against its per-cell twin
inside the probe.

With ``--min-codecache-speedup`` it additionally runs the persistent
code-cache probe (``benchmarks/bench_codecache.py
measure_codecache``): loading the turbo engine's compiled form from a
warm cache must beat a cold superblock build by at least the given
ratio (CI gate: 3.0x) over a multi-workload compile ladder; the probe
asserts internally that the warm run is a real cache hit and that
cached-load results are bit-identical with fresh compiles.

Usage:
    python scripts/ci_perf_check.py [--scale tiny] [--min-speedup 1.2]
        [--max-telemetry-overhead 0.05] [--min-batch-speedup 1.1]
        [--min-codecache-speedup 3.0]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import repro.api as api
from repro.service.api import TuningService

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from bench_obs import TELEMETRY_BLOCKS, measure_telemetry  # noqa: E402


def timed_suite(engine: str, scale: str) -> tuple[api.SuiteResult, float]:
    # A fresh, uncached in-memory service per engine: every run is a
    # cold compute, so the wall-clock comparison is engine vs engine.
    service = TuningService()
    start = time.perf_counter()
    result = api.compare_suite(scale, engine=engine, service=service)
    return result, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="tiny")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.2,
        help="required fast-vs-reference wall-clock ratio (default 1.2)",
    )
    parser.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=None,
        help="also gate service-telemetry overhead: max allowed "
        "traced/plain wall-clock excess as a fraction (e.g. 0.05); "
        "omitted, the probe is skipped",
    )
    parser.add_argument(
        "--telemetry-repeats",
        type=int,
        default=TELEMETRY_BLOCKS,
        help="plain-traced-traced-plain suite blocks for the telemetry "
        f"probe (median block ratio; default {TELEMETRY_BLOCKS})",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=None,
        help="also gate the batched sweep: required median wall-clock "
        "ratio of per-cell turbo runs over one batched pass on an "
        "8-cell distance sweep (e.g. 1.1); omitted, the probe is skipped",
    )
    parser.add_argument(
        "--min-codecache-speedup",
        type=float,
        default=None,
        help="also gate the persistent AOT code cache: required warm-"
        "load-vs-cold-turbo-build wall-clock ratio over the compile "
        "ladder (e.g. 3.0); omitted, the probe is skipped",
    )
    args = parser.parse_args()

    turbo, turbo_seconds = timed_suite("turbo", args.scale)
    fast, fast_seconds = timed_suite("fast", args.scale)
    reference, reference_seconds = timed_suite("reference", args.scale)

    if fast.workloads != reference.workloads or turbo.workloads != fast.workloads:
        print(
            f"FAIL: workload sets differ: turbo={turbo.workloads} "
            f"fast={fast.workloads} reference={reference.workloads}",
            file=sys.stderr,
        )
        return 1

    for engine, suite in (("fast", fast), ("turbo", turbo)):
        mismatches = [
            name
            for name in suite.workloads
            if suite.rows[name] != reference.rows[name]
        ]
        if mismatches:
            print(
                f"FAIL: {engine} engine is not bit-identical with the "
                f"reference interpreter on: {', '.join(mismatches)}",
                file=sys.stderr,
            )
            return 1

    errors = [
        name
        for name in fast.workloads
        if fast.rows[name].get("error") is not None
    ]
    if errors:
        print(f"FAIL: suite errors on: {', '.join(errors)}", file=sys.stderr)
        return 1

    speedup = reference_seconds / max(fast_seconds, 1e-9)
    print(
        f"suite@{args.scale}: {len(fast.workloads)} workload(s), "
        f"turbo={turbo_seconds:.2f}s fast={fast_seconds:.2f}s "
        f"reference={reference_seconds:.2f}s "
        f"fast/reference={speedup:.2f}x (floor {args.min_speedup:.2f}x)"
    )
    if speedup < args.min_speedup:
        print(
            f"FAIL: fast engine speedup {speedup:.2f}x is below the "
            f"{args.min_speedup:.2f}x floor",
            file=sys.stderr,
        )
        return 1

    if args.max_telemetry_overhead is not None:
        probe = measure_telemetry(repeats=args.telemetry_repeats)
        print(
            f"telemetry probe: plain={probe['plain_s']:.2f}s "
            f"traced={probe['traced_s']:.2f}s "
            f"overhead={probe['telemetry_overhead'] * 100:.1f}% "
            f"(median of {probe['repeats']} block ratio(s)) "
            f"(ceiling {args.max_telemetry_overhead * 100:.1f}%), "
            f"{probe['span_records']} span record(s)"
        )
        if not probe["results_identical"]:
            print(
                "FAIL: suite results differ with telemetry on vs off",
                file=sys.stderr,
            )
            return 1
        if probe["telemetry_overhead"] > args.max_telemetry_overhead:
            print(
                f"FAIL: telemetry overhead "
                f"{probe['telemetry_overhead'] * 100:.1f}% exceeds the "
                f"{args.max_telemetry_overhead * 100:.1f}% ceiling",
                file=sys.stderr,
            )
            return 1

    if args.min_batch_speedup is not None:
        from bench_sweep import measure_sweep

        sweep = measure_sweep(pairs=5)
        speedup = sweep["speedup"]
        median = speedup["median"]
        q1, q3 = speedup["quartiles"]
        print(
            f"batch probe: {sweep['workload']}@{sweep['scale']} "
            f"{sweep['cells']}-cell distance sweep, batched vs per-cell "
            f"turbo {median:.2f}x (quartiles {q1:.2f}-{q3:.2f}x, won "
            f"{speedup['wins']}/{speedup['pairs']} pairs; floor "
            f"{args.min_batch_speedup:.2f}x)"
        )
        if median < args.min_batch_speedup:
            print(
                f"FAIL: batched sweep speedup {median:.2f}x over per-cell "
                f"turbo runs is below the {args.min_batch_speedup:.2f}x "
                "floor",
                file=sys.stderr,
            )
            return 1

    if args.min_codecache_speedup is not None:
        from bench_codecache import measure_codecache

        probe = measure_codecache()
        print(
            f"codecache probe: {len(probe['workloads'])}-workload "
            f"ladder@{probe['scale']} "
            f"turbo cold={probe['cold_s']['turbo'] * 1000:.1f}ms "
            f"warm={probe['warm_s']['turbo'] * 1000:.1f}ms "
            f"-> {probe['speedup']['turbo']:.2f}x "
            f"(floor {args.min_codecache_speedup:.2f}x); "
            f"translate {probe['speedup']['translate']:.2f}x"
        )
        if probe["speedup"]["turbo"] < args.min_codecache_speedup:
            print(
                f"FAIL: warm code-cache load speedup "
                f"{probe['speedup']['turbo']:.2f}x is below the "
                f"{args.min_codecache_speedup:.2f}x floor",
                file=sys.stderr,
            )
            return 1

    print(
        "OK: counters bit-identical, engine ladder holds "
        "(fast > reference)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
