"""Figure 10: inner vs. outer injection site.

For every nested-loop workload, force all hints to the inner site and
then to the outer site and compare the speedups.  Expected shape
(paper): for short-trip-count loops (graphs, hash joins) inner-site
injection is ineffective or harmful while the outer site delivers the
gains; DFS is the exception where the inner site also helps.
Both runs are cached under ``site`` single-run keys; a forced site that
leaves the hints unchanged (the Eq-2 choice already) is answered from
the suite comparison's ``apt-get`` run.
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
from repro.workloads.registry import make_workload


def run(scale: str = "small") -> ExperimentResult:
    names = [n for n in scale_suite(scale) if make_workload(n).nested]
    rows = []
    inner_speedups = []
    outer_speedups = []
    for name in names:
        baseline = cached_baseline(name, scale)
        _, hints = cached_profile(name, scale)
        if not len(hints):
            continue
        inner_run = cached_run(name, scale, "apt-get", site="inner")
        outer_run = cached_run(name, scale, "apt-get", site="outer")
        chosen = {h.site.value for h in hints}
        inner_speedup = baseline.cycles / inner_run.cycles
        outer_speedup = baseline.cycles / outer_run.cycles
        inner_speedups.append(inner_speedup)
        outer_speedups.append(outer_speedup)
        rows.append(
            [
                name,
                round(inner_speedup, 3),
                round(outer_speedup, 3),
                "+".join(sorted(chosen)),
            ]
        )
    return ExperimentResult(
        experiment="fig10",
        title="Forced inner-site vs. outer-site injection (nested loops)",
        headers=["workload", "inner speedup", "outer speedup", "Eq-2 choice"],
        rows=rows,
        summary={
            "geomean_inner": round(geomean(inner_speedups), 3),
            "geomean_outer": round(geomean(outer_speedups), 3),
        },
        notes=(
            "Paper: outer 1.20x average; inner mostly <= 1 except DFS "
            "(1.11x)."
        ),
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
