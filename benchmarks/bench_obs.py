"""Observability overhead: what tracing costs, and that *not* tracing
costs nothing measurable.

Two numbers matter:

* **tracing disabled** — the instrumented hierarchy (one
  ``if self.trace is not None`` guard per slow-path event; the L1-hit
  fast path is untouched) must run at seed speed, i.e. the disabled
  median must be within run-to-run noise of itself across repeats —
  the acceptance budget is <= 2% added wall time.
* **tracing enabled** — the full event stream (lifecycle spans, demand
  stalls, branch mirror) is allowed to cost, but simulated timing must
  be bit-identical: tracing observes the machine, never perturbs it.

The service-telemetry twin (:func:`measure_telemetry`) applies the same
discipline one layer up: executing a tiny suite inside a telemetry
``job_scope`` (engine.build/engine.run/store.put spans journaled per
phase) must stay within a few percent of the bare execution, and the
result payloads must be byte-identical — ``scripts/ci_perf_check.py
--max-telemetry-overhead`` gates on it.

Standalone mode emits a machine-readable JSON summary::

    python benchmarks/bench_obs.py [--repeats 5] [--output obs.json]
"""

from __future__ import annotations

import gc
import json
import statistics
import tempfile
import time
from pathlib import Path

from repro.machine.machine import Machine
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
)
from repro.workloads.registry import make_workload

WORKLOAD = "micro-tiny"
DISTANCE = 8


def _build():
    workload = make_workload(WORKLOAD)
    module, space = workload.build()
    AinsworthJonesPass(AinsworthJonesConfig(distance=DISTANCE)).run(module)
    return workload, module, space


def _run_once(traced: bool):
    workload, module, space = _build()
    machine = Machine(module, space)
    if traced:
        machine.enable_tracing()
    started = time.perf_counter()
    result = machine.run(workload.entry)
    elapsed = time.perf_counter() - started
    return elapsed, result


def measure(repeats: int = 5) -> dict:
    """Median wall seconds for traced/untraced runs + the invariants."""
    disabled = []
    enabled = []
    cycles = set()
    for _ in range(repeats):
        elapsed, result = _run_once(traced=False)
        disabled.append(elapsed)
        cycles.add(result.cycles)
        elapsed, result = _run_once(traced=True)
        enabled.append(elapsed)
        cycles.add(result.cycles)
    disabled_median = statistics.median(disabled)
    enabled_median = statistics.median(enabled)
    return {
        "workload": WORKLOAD,
        "repeats": repeats,
        "disabled_s": disabled_median,
        "disabled_spread": (max(disabled) - min(disabled)) / disabled_median,
        "enabled_s": enabled_median,
        "enabled_overhead": enabled_median / disabled_median - 1.0,
        "cycles_identical": len(cycles) == 1,
        "simulated_cycles": max(cycles),
    }


#: Plain-traced-traced-plain blocks the telemetry probe times by default.
TELEMETRY_BLOCKS = 7


def measure_telemetry(repeats: int = TELEMETRY_BLOCKS) -> dict:
    """Wall seconds for a tiny suite with the service-telemetry job
    scope active vs inactive, over ``repeats`` interleaved blocks, plus
    the bit-identity invariant.

    Each traced run journals the full span stream (execute +
    engine.build/engine.run/store.put per workload) to a throwaway
    directory; the plain runs hit the same code with the contextvar
    unset, i.e. the zero-cost no-op path.

    Each block runs plain, traced, traced, plain, and its ratio is the
    traced runs' time over the plain runs'.  The overhead is the median
    block ratio minus one.  Within a block, drift of the host's speed
    that is linear in time, and any cost of running second, fall on
    both sides equally; the median ignores the blocks a burst split.
    Every timed run starts after a full garbage collection, so no run
    pays for the previous run's garbage, and an untimed run first warms
    the process-wide memos (workload graphs).
    """
    import repro.api as api
    from repro.obs import telemetry as obs_telemetry
    from repro.service.api import TuningService

    request = api.SuiteRequest(
        scale="tiny", workloads=("micro-tiny", "BFS-tiny")
    )

    def run_plain() -> tuple[float, str]:
        gc.collect()
        started = time.perf_counter()
        result = api.execute(request, service=TuningService())
        return time.perf_counter() - started, result.to_json()

    def run_traced(telemetry, index: int) -> tuple[float, str]:
        gc.collect()
        started = time.perf_counter()
        with obs_telemetry.job_scope(
            telemetry, trace=f"tr-bench-{index}", job=f"j-bench-{index}"
        ):
            result = api.execute(request, service=TuningService())
        return time.perf_counter() - started, result.to_json()

    plain_times: list[float] = []
    traced_times: list[float] = []
    ratios: list[float] = []
    payloads = {run_plain()[1]}
    with tempfile.TemporaryDirectory(prefix="repro-bench-tel-") as tmp:
        telemetry = obs_telemetry.Telemetry(Path(tmp))
        for block in range(repeats):
            runs = (
                run_plain(),
                run_traced(telemetry, 2 * block),
                run_traced(telemetry, 2 * block + 1),
                run_plain(),
            )
            plain = (runs[0][0], runs[3][0])
            traced = (runs[1][0], runs[2][0])
            plain_times.extend(plain)
            traced_times.extend(traced)
            ratios.append(sum(traced) / sum(plain))
            payloads.update(payload for _, payload in runs)
        spans = len(obs_telemetry.read_records(Path(tmp)))
    return {
        "suite": list(request.workloads),
        "repeats": repeats,
        "plain_s": statistics.median(plain_times),
        "traced_s": statistics.median(traced_times),
        "ratios": [round(ratio, 4) for ratio in ratios],
        "telemetry_overhead": statistics.median(ratios) - 1.0,
        "results_identical": len(payloads) == 1,
        "span_records": spans,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_run_tracing_disabled(benchmark):
    """Instrumented-but-off run; the seed-parity number."""

    def run():
        return _run_once(traced=False)[1]

    result = benchmark.pedantic(run, iterations=1, rounds=5)
    assert result.counters.sw_prefetch_issued > 0


def test_run_tracing_enabled(benchmark):
    """Full event-stream run; must not perturb simulated timing."""
    _, untraced = _run_once(traced=False)

    def run():
        return _run_once(traced=True)[1]

    result = benchmark.pedantic(run, iterations=1, rounds=5)
    assert result.cycles == untraced.cycles
    assert result.counters.as_dict() == untraced.counters.as_dict()


def main() -> int:  # pragma: no cover - CLI entry
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--telemetry-repeats", type=int, default=TELEMETRY_BLOCKS,
        help="plain-traced-traced-plain suite blocks for the "
        "service-telemetry overhead number (0 skips it)",
    )
    parser.add_argument("--output", default=None)
    args = parser.parse_args()
    summary = measure(repeats=args.repeats)
    ok = summary["cycles_identical"]
    if args.telemetry_repeats > 0:
        summary["service_telemetry"] = measure_telemetry(
            repeats=args.telemetry_repeats
        )
        ok = ok and summary["service_telemetry"]["results_identical"]
    rendered = json.dumps(summary, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(rendered)
    print(rendered)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
