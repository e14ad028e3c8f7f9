"""Batched sweep benchmark: one fused batched pass vs one turbo run per cell.

Times an A&J prefetch-distance sweep (the Figure-6-style distance
axis) on one workload two ways:

* **batched** — all cells execute in a single
  :func:`repro.machine.batch.run_batch` pass: hot loop nests are fused
  into one generated stepper that advances every cell per iteration,
  while per-cell cache hierarchies (L1/L2/LLC + MSHRs) track each
  cell's timing;
* **per-cell turbo** — the same cells run one at a time, each on a
  fresh ``turbo`` :class:`~repro.machine.machine.Machine` (the fastest
  sequential engine, and what a sweep would cost without batching).

The two sides run as interleaved pairs, alternating which goes first,
and the report gives the per-pair ratios' median and quartiles plus how
many pairs the batched pass won.  Cell construction is excluded from
both timings (it is identical on both sides).

Two cases are recorded, both with every cell on one config:

* the 8-cell BFS-tiny ladder, whose cells prefetch different lines
  from the first iterations on, so the batch's shadow cells (see
  :meth:`repro.machine.batch.BatchMachine.run_shadowed`) abort at once
  and the pass runs plain — the case without the property;
* HJ8-tiny at distances 2 to 64, whose inner loop walks one 64 B
  bucket: A&J clamps every distance's prefetch to a line of the same
  bucket, so every cell but the first runs as a shadow — the case with
  it.

Distances start at 2: at distance 1 the A&J pass folds the loop
increment into the prefetch advance, which changes instruction shape
per cell and (correctly) forces the per-cell fallback — a valid
configuration, but then the benchmark would be measuring the fallback
path, not the batched pass.

Every batched cell must be bit-identical (value + full counter vector)
to its sequential twin — a sweep benchmark whose cells computed
different things would be meaningless.

Standalone use (writes ``BENCH_sweep.json`` next to this file)::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--scale tiny]

or as a bench test::

    pytest benchmarks/bench_sweep.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from pathlib import Path

from repro.machine import Machine
from repro.machine.batch import BatchCell, run_batch
from repro.machine.config import MachineConfig
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
)
from repro.workloads.registry import make_workload

#: The 8-cell distance axis (>= 2; see module docstring).
DEFAULT_DISTANCES = (2, 4, 8, 12, 16, 24, 32, 48)

DEFAULT_WORKLOAD = "BFS-tiny"

#: The recorded cases: (workload, distances).
CASES = (
    (DEFAULT_WORKLOAD, DEFAULT_DISTANCES),
    ("HJ8-tiny", (2, 4, 8, 16, 32, 64)),
)

DEFAULT_PAIRS = 10

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_sweep.json"


def _build_cells(
    workload: str, scale: str, distances: tuple
) -> tuple[list, str]:
    """Fresh per-distance cells: build + A&J injection at each distance.

    Rebuilding per measurement is mandatory — a run mutates the
    workload's data segments, so cells are never reused across timed
    passes.
    """
    config = MachineConfig(engine="turbo")
    cells = []
    entry = None
    for distance in distances:
        instance = make_workload(workload, scale)
        module, space = instance.build()
        entry = instance.entry
        AinsworthJonesPass(AinsworthJonesConfig(distance=distance)).run(module)
        cells.append(BatchCell(module, space, config))
    return cells, entry


def _signature(result) -> dict:
    return {"value": result.value, **result.counters.as_dict()}


def _time_batched(workload, scale, distances) -> tuple[float, list]:
    cells, entry = _build_cells(workload, scale, distances)
    start = time.perf_counter()
    outcome = run_batch(cells, function=entry)
    seconds = time.perf_counter() - start
    if not outcome.batched:
        raise AssertionError(
            f"{workload}: sweep fell back to sequential replay "
            f"({outcome.reason}) — the benchmark would not be measuring "
            "the batched pass"
        )
    shadows = {
        "shadowed": outcome.shadowed,
        "shadow_aborts": outcome.shadow_aborts,
    }
    return seconds, [_signature(r) for r in outcome.results], shadows


def _time_per_cell(workload, scale, distances) -> tuple[float, list]:
    cells, entry = _build_cells(workload, scale, distances)
    start = time.perf_counter()
    results = [
        Machine(cell.module, cell.space, config=cell.config).run(entry)
        for cell in cells
    ]
    seconds = time.perf_counter() - start
    return seconds, [_signature(r) for r in results], None


def measure_sweep(
    workload: str = DEFAULT_WORKLOAD,
    scale: str = "tiny",
    distances: tuple = DEFAULT_DISTANCES,
    pairs: int = DEFAULT_PAIRS,
) -> dict:
    """Batched pass vs per-cell turbo runs over ``pairs`` interleaved
    pairs (order alternating per pair).

    Returns ``{"batched_s", "per_cell_turbo_s", "speedup", ...}``: the
    two time lists, ``speedup`` = per-cell / batched per pair as
    ``{"median", "quartiles", "wins", "pairs"}``, and the batched
    pass's ``shadowed`` cells and ``shadow_aborts``.  Raises
    ``AssertionError`` if any batched cell differs from its per-cell
    twin.
    """
    batched_s: list[float] = []
    per_cell_s: list[float] = []
    for pair in range(pairs):
        sides = [_time_batched, _time_per_cell]
        if pair % 2:
            sides.reverse()
        timings = {}
        for side in sides:
            timings[side] = side(workload, scale, distances)
        batched, batched_sig, shadows = timings[_time_batched]
        per_cell, per_cell_sig, _ = timings[_time_per_cell]
        for index, (got, want) in enumerate(zip(batched_sig, per_cell_sig)):
            if got != want:
                raise AssertionError(
                    f"{workload}: batched cell {index} (distance "
                    f"{distances[index]}) is not bit-identical with its "
                    "per-cell turbo run"
                )
        batched_s.append(batched)
        per_cell_s.append(per_cell)
    ratios = [p / max(b, 1e-9) for p, b in zip(per_cell_s, batched_s)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "workload": workload,
        "scale": scale,
        "distances": list(distances),
        "cells": len(distances),
        **shadows,
        "batched_s": [round(s, 6) for s in batched_s],
        "per_cell_turbo_s": [round(s, 6) for s in per_cell_s],
        "speedup": {
            "median": round(median, 3),
            "quartiles": [round(q1, 3), round(q3, 3)],
            "wins": sum(1 for ratio in ratios if ratio > 1.0),
            "pairs": len(ratios),
        },
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_batched_distance_sweep(benchmark):
    report = benchmark.pedantic(
        measure_sweep, kwargs={"pairs": 5}, iterations=1, rounds=1
    )
    print()
    print(json.dumps(report["speedup"], indent=2))
    # The batched pass must beat one fresh turbo run per cell, the
    # fastest sequential alternative.  The in-bench floor is loose; CI
    # enforces the calibrated one via ci_perf_check.py.
    assert report["speedup"]["median"] >= 1.0, report["speedup"]


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        default=None,
        help="time one workload (default: every recorded case)",
    )
    parser.add_argument("--scale", default="tiny")
    parser.add_argument(
        "--distances",
        type=int,
        nargs="+",
        default=list(DEFAULT_DISTANCES),
        metavar="D",
        help="the distances of --workload",
    )
    parser.add_argument(
        "--pairs",
        type=int,
        default=DEFAULT_PAIRS,
        help="interleaved batched/per-cell pairs (default 10)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, metavar="PATH"
    )
    args = parser.parse_args()

    cases = (
        [(args.workload, tuple(args.distances))] if args.workload else CASES
    )
    reports = [
        measure_sweep(workload, args.scale, distances, pairs=args.pairs)
        for workload, distances in cases
    ]
    args.output.write_text(
        json.dumps({"cases": reports}, indent=2, sort_keys=True) + "\n"
    )

    print(f"wrote {args.output}")
    for report in reports:
        speedup = report["speedup"]
        q1, q3 = speedup["quartiles"]
        print(
            f"  {report['workload']}@{report['scale']}: "
            f"{report['cells']}-cell distance sweep "
            f"({report['shadowed']} shadowed), batched "
            f"{statistics.median(report['batched_s']):.3f}s vs per-cell "
            f"turbo {statistics.median(report['per_cell_turbo_s']):.3f}s "
            f"(medians) -> {speedup['median']:.2f}x (quartiles "
            f"{q1:.2f}-{q3:.2f}x), won {speedup['wins']}/{speedup['pairs']} "
            "pairs"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
