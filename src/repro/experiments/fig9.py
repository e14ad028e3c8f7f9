"""Figure 9: static prefetch-distances {4, 16, 64} vs. the LBR distance.

Same injection machinery, distance either fixed for all loads (static,
as a compile-time flag would set it) or taken from the LBR analysis.
Expected shape (paper): static 4/16/64 reach 1.16/1.26/1.28x geomean vs
1.30x for the LBR distance; no single static value wins everywhere.
Runs are cached under the same single-run keys as Fig 8's sweep and the
suite comparison's ``apt-get`` run, so after those only the distances
they did not measure are simulated.
"""

from __future__ import annotations

from repro.experiments.result import ExperimentResult
from repro.experiments.runner import (
    cached_baseline,
    cached_hints,
    cached_run,
    geomean,
    scale_suite,
)

STATIC_DISTANCES = (4, 16, 64)


def run(scale: str = "small") -> ExperimentResult:
    names = scale_suite(scale)
    rows = []
    series: dict[str, list[float]] = {str(d): [] for d in STATIC_DISTANCES}
    series["lbr"] = []
    for name in names:
        # Profile first: its run answers the baseline (same program).
        hints = cached_hints(name, scale)
        if not len(hints):
            continue
        baseline = cached_baseline(name, scale)
        row = [name]
        for distance in STATIC_DISTANCES:
            swept = cached_run(
                name, scale, "apt-get", hint_distance=distance
            )
            speedup = baseline.cycles / swept.cycles
            series[str(distance)].append(speedup)
            row.append(round(speedup, 3))
        lbr_run = cached_run(name, scale, "apt-get")
        lbr_speedup = baseline.cycles / lbr_run.cycles
        series["lbr"].append(lbr_speedup)
        row.append(round(lbr_speedup, 3))
        rows.append(row)
    summary = {
        f"geomean_d{d}": round(geomean(series[str(d)]), 3)
        for d in STATIC_DISTANCES
    }
    summary["geomean_lbr"] = round(geomean(series["lbr"]), 3)
    return ExperimentResult(
        experiment="fig9",
        title="Static distances vs. LBR-derived distance",
        headers=["workload"]
        + [f"static d={d}" for d in STATIC_DISTANCES]
        + ["LBR"],
        rows=rows,
        summary=summary,
        notes="Paper geomeans: 1.16x / 1.26x / 1.28x static vs 1.30x LBR.",
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
