"""Regenerate the golden outputs the benchmark checks every run against.

Run from the root of a checkout of the commit whose outputs are the
reference, with no ``REPRO_*`` variable set::

    PYTHONPATH=src python3 perfbench/capture_golden.py

Writes ``golden/paper-tiny.json`` (every experiment's rows and summary,
host timings masked, plus the ``sim.*`` counts of one pass, each distinct
simulated run counted once),
``golden/sweep-small.json`` (every cell's value and counters) and
``golden/serve-mixed.json`` (for each pooled request, the SHA-256 of the
result payload an in-process ``repro.api.execute`` returns, and its
``sim.*`` counts).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import serve_mix
import tracer as tracing
import worker


def source_note() -> dict:
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    return {"commit": head or None, "python": sys.version.split()[0]}


def serve_golden() -> dict:
    import repro.api as api
    from repro.service.api import TuningService

    service = TuningService()
    requests = {}
    for payload in serve_mix.pool():
        result = api.execute(api.request_from_payload(payload), service=service)
        result_payload = json.loads(worker.canonical(result.to_payload()))
        requests[serve_mix.request_id(payload)] = {
            "sha256": worker.digest(result_payload),
            "sim": tracing.sim_counts(worker.result_counters(result_payload)),
        }
    return {"requests": requests}


def sweep_golden() -> dict:
    import repro.api as api
    from repro.service.api import TuningService

    result = api.execute(worker.sweep_request(), service=TuningService())
    cells, sim = {}, {}
    for cell in result.cells:
        run = cell["run"]
        cells[worker.cell_id(cell)] = {
            "value": run["value"], "counters": run["counters"],
        }
        tracing.add_counts(sim, tracing.sim_counts(run["counters"]))
    return {"cells": cells, "sim": sim}


def paper_golden() -> dict:
    # Runs last: the counting wrapper stays on Machine.run for good.
    sim = tracing.SimCounter()
    tracing.wrap_runs(sim, None)
    outputs = {
        experiment_id: output
        for experiment_id, output in worker.paper_pass()
    }
    return {"experiments": outputs, "sim": sim.totals}


def main() -> int:
    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if leaked:
        print(f"unset {leaked} first", file=sys.stderr)
        return 2
    note = source_note()
    worker.GOLDEN.mkdir(exist_ok=True)
    for name, capture in (
        ("serve-mixed", serve_golden),
        ("sweep-small", sweep_golden),
        ("paper-tiny", paper_golden),
    ):
        golden = dict(note, **capture())
        (worker.GOLDEN / f"{name}.json").write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote golden/{name}.json", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
