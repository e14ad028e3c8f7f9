"""Figure 8: LBR-derived distance vs. exhaustive-best distance.

For each workload, sweep the injected prefetch-distance over
D = {1, 2, 4, 8, 16, 32, 64, 128} (same slices and sites as APT-GET,
only the distance overridden), take the best-performing distance, and
compare against the distance APT-GET computed from one LBR profile.
Every run goes through the tuning service's single-run cache: the LBR
run is the suite comparison's ``apt-get`` run, and each swept distance
is cached under its ``hint_distance`` key (which Fig 9 reuses).
Expected shape (paper): the LBR distance is near-optimal everywhere
(paper geomeans: 1.30x LBR vs 1.32x exhaustive best).
"""

from __future__ import annotations

from repro.experiments.result import ExperimentResult
from repro.experiments.runner import (
    cached_baseline,
    cached_profile,
    cached_run,
    geomean,
    scale_suite,
)

DISTANCES = (1, 2, 4, 8, 16, 32, 64, 128)


def run(scale: str = "small") -> ExperimentResult:
    names = scale_suite(scale)
    distances = DISTANCES if scale != "tiny" else (1, 8, 64)
    rows = []
    lbr_speedups = []
    best_speedups = []
    for name in names:
        baseline = cached_baseline(name, scale)
        _, hints = cached_profile(name, scale)
        if not len(hints):
            continue
        lbr_run = cached_run(name, scale, "apt-get")
        lbr_speedup = baseline.cycles / lbr_run.cycles
        best_speedup, best_distance = 0.0, 0
        for distance in distances:
            swept = cached_run(
                name, scale, "apt-get", hint_distance=distance
            )
            speedup = baseline.cycles / swept.cycles
            if speedup > best_speedup:
                best_speedup, best_distance = speedup, distance
        lbr_speedups.append(lbr_speedup)
        best_speedups.append(best_speedup)
        lbr_distance = max(h.effective_distance for h in hints)
        rows.append(
            [
                name,
                lbr_distance,
                round(lbr_speedup, 3),
                best_distance,
                round(best_speedup, 3),
            ]
        )
    return ExperimentResult(
        experiment="fig8",
        title="LBR-profiled distance vs. exhaustive best distance",
        headers=[
            "workload",
            "LBR distance",
            "LBR speedup",
            "best distance",
            "best speedup",
        ],
        rows=rows,
        summary={
            "geomean_lbr": round(geomean(lbr_speedups), 3),
            "geomean_best": round(geomean(best_speedups), 3),
        },
        notes="Paper: 1.30x (LBR) vs 1.32x (exhaustive best).",
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
