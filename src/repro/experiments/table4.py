"""Table 4: graph data-set properties — original SNAP sizes vs. the
scaled synthetic stand-ins actually built (DESIGN.md substitution rule:
average degree preserved, sizes scaled with the LLC).

Only each graph's shape is read (``Dataset.shape``), so no destinations
are drawn except for the road graphs, whose shape is their generation."""

from __future__ import annotations

from repro.experiments.result import ExperimentResult
from repro.workloads.graphs import CATALOG


def run(scale: str = "small") -> ExperimentResult:
    rows = []
    degree_errors = []
    for name, entry in CATALOG.items():
        n, m = entry.shape()
        avg_degree = m / n if n else 0.0
        original_degree = (
            entry.original_edges / entry.original_vertices
            if entry.original_vertices
            else 0.0
        )
        if original_degree:
            degree_errors.append(
                abs(avg_degree - original_degree) / original_degree
            )
        rows.append(
            [
                name,
                entry.original_vertices,
                entry.original_edges,
                n,
                m,
                round(original_degree, 2),
                round(avg_degree, 2),
                entry.kind,
            ]
        )
    max_error = max(degree_errors) if degree_errors else 0.0
    return ExperimentResult(
        experiment="table4",
        title="Graph data-sets: SNAP originals vs. scaled synthetics",
        headers=[
            "data-set",
            "orig #V",
            "orig #E",
            "ours #V",
            "ours #E",
            "orig deg",
            "ours deg",
            "kind",
        ],
        rows=rows,
        summary={"max_avg_degree_error": round(max_error, 3)},
        notes="Average degree (the trip-count driver) preserved under scaling.",
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
