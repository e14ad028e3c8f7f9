"""Shared measurement harness: run workloads under the three schemes
(no-prefetch baseline, Ainsworth & Jones static, APT-GET) and collect
PMU results — the reproduction's ``perf stat`` wrapper around §4.1's
methodology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.aptget import AptGet, AptGetConfig
from repro.core.hints import HintSet, PrefetchHint
from repro.core.site import InjectionSite
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine, RunResult
from repro.obs import telemetry
from repro.machine.pmu import PerfStat
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
    PassReport,
)
from repro.passes.aptget_pass import AptGetPass
from repro.profiling.collect import collect_profile
from repro.profiling.profile import ExecutionProfile
from repro.workloads.base import Workload
from repro.workloads.registry import SUITE, TINY_SUITE, make_workload

#: Experiment scales: tiny = unit tests, small = benches, full = big runs.
SCALES = ("tiny", "small", "full")


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class SchemeRun:
    """One scheme's measured run of one workload."""

    scheme: str
    result: RunResult
    report: Optional[PassReport] = None
    hints: Optional[HintSet] = None
    profile: Optional[ExecutionProfile] = None

    @property
    def perf(self) -> PerfStat:
        return self.result.perf

    @property
    def cycles(self) -> float:
        return self.result.counters.cycles


@dataclass
class WorkloadComparison:
    """Baseline + optimized runs of one workload.

    ``error`` is set (and ``runs`` left empty) when the workload's
    measurement job failed or timed out — the suite's error row.
    """

    workload: str
    runs: dict[str, SchemeRun] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def baseline(self) -> SchemeRun:
        return self.runs["baseline"]

    def speedup(self, scheme: str) -> float:
        run = self.runs[scheme]
        if run.cycles <= 0:
            return 0.0
        return self.baseline.cycles / run.cycles

    def instruction_overhead(self, scheme: str) -> float:
        base = self.baseline.result.counters.instructions
        if base <= 0:
            return 0.0
        return self.runs[scheme].result.counters.instructions / base

    def mpki(self, scheme: str) -> float:
        return self.runs[scheme].perf.llc_mpki


# ----------------------------------------------------------------------
# Single-scheme runners.  ``config=None`` means the process-global
# tuning service's config, so ``repro.cli experiment --engine`` reaches
# every run an experiment makes, cached or not.
# ----------------------------------------------------------------------
def _config(config: Optional[MachineConfig]) -> MachineConfig:
    if config is not None:
        return config
    from repro.service.api import get_service

    return get_service().config


def _simulate(
    workload: Workload,
    module,
    space,
    config: Optional[MachineConfig],
    scheme: str,
    sims=None,
) -> RunResult:
    """Run the built (and transformed) ``module`` once.

    ``sims`` is the caller's book of simulation entries (the tuning
    service passes one; see ``repro.service.api``).  When it already
    holds a run of exactly this code under this config, that run is
    the answer and nothing is simulated; otherwise the new run is
    recorded in it.
    """
    key = None
    if sims is not None:
        key = sims.key(module, workload.entry)
        result = sims.get(key)
        if result is not None:
            return result
    machine = Machine(module, space, config=_config(config))
    with telemetry.run_phase(machine, scheme=scheme):
        result = machine.run(workload.entry)
    if sims is not None:
        sims.put(key, result)
    return result


def run_baseline(
    workload: Workload, config: Optional[MachineConfig] = None, sims=None
) -> SchemeRun:
    with telemetry.build_phase(workload.name, scheme="baseline"):
        module, space = workload.build()
    return SchemeRun(
        "baseline",
        _simulate(workload, module, space, config, "baseline", sims),
    )


def run_ainsworth_jones(
    workload: Workload,
    distance: int = 32,
    config: Optional[MachineConfig] = None,
    sims=None,
) -> SchemeRun:
    scheme = f"aj-{distance}"
    with telemetry.build_phase(workload.name, scheme=scheme):
        module, space = workload.build()
        report = AinsworthJonesPass(
            AinsworthJonesConfig(distance=distance)
        ).run(module)
    result = _simulate(workload, module, space, config, scheme, sims)
    return SchemeRun(scheme, result, report=report)


def profile_workload(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    period: Optional[int] = None,
    sims=None,
) -> tuple[ExecutionProfile, HintSet]:
    """One profiling run + analysis (APT-GET steps 1-5).

    The profiling run is always simulated (its samples are the point).
    Sampling only observes, so the run is also a plain run of the
    unmodified program: ``profile.value``/``profile.counters`` hold it,
    and it is recorded in ``sims`` when one is given.
    """
    with telemetry.build_phase(workload.name, scheme="profile"):
        module, space = workload.build()
    key = sims.key(module, workload.entry) if sims is not None else None
    machine = Machine(module, space, config=_config(config))
    with telemetry.run_phase(machine, scheme="profile"):
        profile = collect_profile(machine, workload.entry, period=period)
    if sims is not None:
        sims.put(key, RunResult(profile.value, profile.counters))
    hints = AptGet(AptGetConfig()).analyze(module, profile)
    return profile, hints


def run_with_hints(
    workload: Workload,
    hints: HintSet,
    config: Optional[MachineConfig] = None,
    scheme: str = "apt-get",
    sims=None,
) -> SchemeRun:
    with telemetry.build_phase(workload.name, scheme=scheme):
        module, space = workload.build()
        report = AptGetPass(hints).run(module)
    result = _simulate(workload, module, space, config, scheme, sims)
    return SchemeRun(scheme, result, report=report, hints=hints)


def run_apt_get(
    workload: Workload,
    config: Optional[MachineConfig] = None,
) -> SchemeRun:
    profile, hints = profile_workload(workload, config=config)
    run = run_with_hints(workload, hints, config=config)
    run.profile = profile
    return run


# ----------------------------------------------------------------------
# Hint surgery for the sensitivity experiments (Figs 8, 9, 10)
# ----------------------------------------------------------------------
def hints_with_distance(hints: HintSet, distance: int) -> HintSet:
    """Copy of the hints with every distance overridden (Fig 8 sweeps)."""
    overridden = []
    for hint in hints:
        clone = PrefetchHint.from_dict(hint.to_dict())
        clone.distance = distance
        clone.outer_distance = distance
        overridden.append(clone)
    return HintSet.from_hints(overridden)


def hints_with_site(hints: HintSet, site: InjectionSite) -> HintSet:
    """Copy of the hints with the injection site forced (Fig 10)."""
    forced = []
    for hint in hints:
        clone = PrefetchHint.from_dict(hint.to_dict())
        clone.site = site
        if site is InjectionSite.OUTER and clone.outer_distance is None:
            clone.outer_distance = clone.distance
        forced.append(clone)
    return HintSet.from_hints(forced)


# ----------------------------------------------------------------------
# Per-workload caches shared across experiments, backed by the tuning
# service's artifact store (Figs 8/9/10 and the ideal comparison would
# otherwise re-profile the same binaries and re-measure the same runs).
# Every call returns fresh deserialized objects, so a caller mutating a
# cached result cannot poison other consumers.
# (Imports are deferred: repro.service.api imports this module.)
# ----------------------------------------------------------------------
def cached_baseline(name: str, scale: str = "small") -> SchemeRun:
    from repro.service.api import get_service

    return get_service().baseline(name, scale)


def cached_profile(
    name: str, scale: str = "small"
) -> tuple[ExecutionProfile, HintSet]:
    from repro.service.api import get_service

    return get_service().profile(name, scale)


def cached_hints(name: str, scale: str = "small") -> HintSet:
    """The workload's APT-GET hints, read without its LBR samples."""
    from repro.service.api import get_service

    return get_service().analyze(name, scale)


def cached_run(name: str, scale: str, scheme: str, **overrides) -> SchemeRun:
    """One cached ``TuningService.run`` measurement: ``distance`` for
    ``aj``, ``hint_distance``/``site`` for ``apt-get``."""
    from repro.service.api import get_service

    return get_service().run(name, scale, scheme=scheme, **overrides)


# ----------------------------------------------------------------------
# Suite comparison shared by Figs 5/6/7/11 (cached per scale + distance)
# ----------------------------------------------------------------------
def scale_suite(scale: str) -> list[str]:
    if scale == "tiny":
        return list(TINY_SUITE)
    return list(SUITE)


def suite_comparison(
    scale: str = "small",
    aj_distance: int = 32,
) -> dict[str, WorkloadComparison]:
    """Baseline + A&J + APT-GET over the whole suite via the tuning
    service (artifacts shared with the other experiments' caches; runs
    computed in parallel when the service is configured with workers).

    A workload whose measurement failed comes back with
    ``comparison.error`` set — render it as an error row, not a crash.
    """
    from repro.service.api import get_service

    return get_service().compare_suite(scale=scale, aj_distance=aj_distance)
