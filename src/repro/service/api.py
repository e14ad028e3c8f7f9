"""The :class:`TuningService` façade: cached, parallel profile/analyze/
measure on top of the artifact store and the job pool.

This is the AutoFDO-style service loop of the paper's deployment story
(§3.4) in miniature: consumers ask for tuning artifacts (an execution
profile, a hint set, a scheme-run summary, a whole suite comparison);
the service answers from the content-addressed store when it can and
schedules the missing work — in parallel across worker processes when
configured — when it cannot.

Cache hits return **fresh deserialized objects** on every call.  The
old ``lru_cache`` layer in ``experiments/runner.py`` handed out shared
mutable ``SchemeRun``/``HintSet`` instances, so one experiment mutating
a cached object (e.g. ``run.profile = ...``) silently leaked into every
other consumer; store-backed reads cannot alias.
"""

from __future__ import annotations

import copy
import hashlib
import os
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from typing import Iterable, Optional, Sequence

from repro.core.hints import HintSet
from repro.core.site import InjectionSite
from repro.ir.printer import format_module
from repro.experiments.runner import (
    SchemeRun,
    WorkloadComparison,
    hints_with_distance,
    hints_with_site,
    profile_workload,
    run_ainsworth_jones,
    run_baseline,
    run_with_hints,
    scale_suite,
)
from repro.machine.batch import BatchCell, run_batch
from repro.machine.codecache import resolve as code_cache_resolve
from repro.machine.config import MachineConfig, normalize_engine
from repro.machine.machine import Machine, RunResult
from repro.obs import telemetry
from repro.obs.sites import SiteReport, site_reports
from repro.passes.aptget_pass import AptGetPass
from repro.machine.pmu import Counters
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
    PassReport,
)
from repro.profiling.profile import ExecutionProfile
from repro.service.metrics import MetricsRegistry
from repro.service.pool import Job, JobPool
from repro.service.store import (
    ArtifactStore,
    CacheKey,
    MemoryStore,
    config_fingerprint,
)
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload

#: Default ceiling on one profile/measure job (seconds); generous for
#: "full"-scale runs, small enough that a wedged worker cannot stall a
#: suite forever.  Only enforced on the multiprocess path.
DEFAULT_JOB_TIMEOUT = 1800.0
DEFAULT_RETRIES = 1

#: Buckets for the per-site timely-fraction histogram (a fraction, not
#: a latency, so the registry's second-scale defaults would be useless).
_TIMELY_FRACTION_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


# ----------------------------------------------------------------------
# Artifact (de)serialization: payloads are plain JSON-able dicts.
# ----------------------------------------------------------------------
def _counters_from_dict(raw: dict) -> Counters:
    counters = Counters()
    for f in dataclass_fields(Counters):
        if f.name in raw:
            setattr(counters, f.name, raw[f.name])
    return counters


def profile_to_payload(profile: ExecutionProfile, hints: HintSet) -> dict:
    """The ``profile`` entry: the profiled run's counters and the hints
    derived from it, all a hint reader needs.  The samples themselves
    go to their own ``lbr`` entry, in :meth:`ExecutionProfile.to_dict`'s
    shape."""
    return {"counters": profile.counters.as_dict(), "hints": hints.to_dict()}


def profile_from_payload(payload: dict, samples: dict) -> ExecutionProfile:
    """The profile a ``profile`` entry and its ``lbr`` entry describe."""
    profile = ExecutionProfile.from_dict(samples)
    profile.counters = _counters_from_dict(payload.get("counters", {}))
    return profile


def run_to_payload(run: SchemeRun) -> dict:
    payload: dict = {
        "scheme": run.scheme,
        "value": run.result.value,
        "counters": run.result.counters.as_dict(),
        "report": None,
        "hints": None,
    }
    if run.report is not None:
        payload["report"] = {
            "injected": run.report.injected,
            "skipped": run.report.skipped,
            "added_instructions": run.report.added_instructions,
        }
    if run.hints is not None:
        payload["hints"] = run.hints.to_dict()
    return payload


def run_from_payload(payload: dict) -> SchemeRun:
    report = None
    if payload.get("report") is not None:
        raw = payload["report"]
        report = PassReport(
            injected=list(raw.get("injected", [])),
            skipped=list(raw.get("skipped", [])),
            added_instructions=raw.get("added_instructions", 0),
        )
    hints = None
    if payload.get("hints") is not None:
        hints = HintSet.from_dict(payload["hints"])
    return SchemeRun(
        scheme=payload["scheme"],
        result=RunResult(
            value=payload["value"],
            counters=_counters_from_dict(payload.get("counters", {})),
        ),
        report=report,
        hints=hints,
    )


def artifact_key(
    kind: str, workload: str, scale: str, config: MachineConfig, **params
) -> CacheKey:
    """The key of one artifact computed under ``config``.

    Every key names the engine and the memory-hierarchy fingerprint
    explicitly (on top of the whole-config fingerprint), so runs with
    different engines or cache geometries can never collide in a shared
    cache directory — and a human reading the store can tell which
    engine produced an artifact.
    """
    return CacheKey.make(
        kind,
        workload,
        scale,
        config_fingerprint(config),
        engine=config.engine,
        mem=config_fingerprint(config.memory),
        **params,
    )


class SimEntries:
    """The simulation entries of one workload at one scale under one
    machine config: one ``sim`` artifact per distinct simulated program.

    An entry is keyed by what the run simulates — workload, scale, the
    engine-aware config fingerprint, a digest of the printed final
    module and the entry function — and holds ``{value, counters}``.
    Runs that simulate the same program (a profiling run and a baseline
    run; an override that leaves the hints as they were) therefore
    share one simulation.  ``lookup``/``record`` are the storage: the
    service's store, or a job's own dict.
    """

    def __init__(self, workload, scale, config, lookup, record) -> None:
        self.workload = workload
        self.scale = scale
        self.config = config
        self._lookup = lookup
        self._record = record

    def key(self, module, entry: str) -> CacheKey:
        digest = hashlib.sha256(format_module(module).encode()).hexdigest()
        return artifact_key(
            "sim", self.workload, self.scale, self.config,
            module=digest, entry=entry,
        )

    def get(self, key: CacheKey) -> Optional[RunResult]:
        payload = self._lookup(key)
        if payload is None:
            return None
        return RunResult(
            value=payload["value"],
            counters=_counters_from_dict(payload["counters"]),
        )

    def put(self, key: CacheKey, result: RunResult) -> None:
        self._record(
            key,
            {"value": result.value, "counters": result.counters.as_dict()},
        )


# ----------------------------------------------------------------------
# Worker jobs (module-level: must be picklable for the process pool).
# Each recomputes exactly the artifacts the parent found missing and
# returns payload dicts; the parent owns all store writes, so the store
# is single-writer even with many workers.
# ----------------------------------------------------------------------
def _suite_job(
    name: str,
    scale: str,
    aj_distance: int,
    needs: tuple[str, ...],
    hints_payload: Optional[dict],
    config: MachineConfig,
) -> dict:
    """Compute one workload's missing suite pieces.

    Returns the pieces plus, under ``"sim"``, the simulation entries its
    runs produced and, under ``"lbr"`` when it profiled, the sample
    entry (the parent stores them).  A run whose program an
    earlier run of this job already simulated is answered from it.
    The baseline runs before the profile, so a job that needs both
    simulates both: see ROADMAP.md ("a suite job's profile answers its
    baseline") for why they are not shared yet.
    """
    entries: dict = {}
    sims = SimEntries(name, scale, config, entries.get, entries.__setitem__)
    out: dict = {}
    if "baseline" in needs:
        out["baseline"] = run_to_payload(
            run_baseline(make_workload(name, scale), config=config, sims=sims)
        )
    hints: Optional[HintSet] = None
    if "profile" in needs:
        profile, hints = profile_workload(
            make_workload(name, scale), config=config, sims=sims
        )
        out["profile"] = profile_to_payload(profile, hints)
        out["lbr"] = profile.to_dict()
    elif hints_payload is not None:
        hints = HintSet.from_dict(hints_payload)
    if "aj" in needs:
        out["aj"] = run_to_payload(
            run_ainsworth_jones(
                make_workload(name, scale),
                distance=aj_distance,
                config=config,
                sims=sims,
            )
        )
    if "apt" in needs:
        if hints is None:
            raise RuntimeError(
                f"apt run for {name!r} requested without hints"
            )
        out["apt"] = run_to_payload(
            run_with_hints(
                make_workload(name, scale), hints, config=config, sims=sims
            )
        )
    out["sim"] = entries
    return out


def _hint_overrides(
    scheme: str, hint_distance: Optional[int], site: Optional[str]
) -> dict:
    """Validated ``run()`` hint overrides, as artifact-key params (only
    the ones that are set, so plain keys stay unchanged)."""
    overrides: dict = {}
    if hint_distance is not None:
        if int(hint_distance) < 1:
            raise ValueError(
                f"hint_distance must be >= 1, got {hint_distance!r}"
            )
        overrides["hint_distance"] = int(hint_distance)
    if site is not None:
        try:
            overrides["site"] = InjectionSite(site).value
        except ValueError:
            raise ValueError(
                f"site must be 'inner' or 'outer', got {site!r}"
            ) from None
    if overrides and scheme != "apt-get":
        raise ValueError(
            f"hint_distance/site override apt-get hints; scheme {scheme!r} "
            "has none"
        )
    return overrides


def _override_hints(hints: HintSet, overrides: dict) -> HintSet:
    if "site" in overrides:
        hints = hints_with_site(hints, InjectionSite(overrides["site"]))
    if "hint_distance" in overrides:
        hints = hints_with_distance(hints, overrides["hint_distance"])
    return hints


#: Artifact pieces making up one workload's suite comparison.
_SUITE_PIECES = ("profile", "baseline", "aj", "apt")


#: Sweep-cell configs a service keeps derived (one per requested engine
#: and cache scale in use); the table is emptied when it fills.
_CELL_CONFIGS_KEPT = 64

#: Schemes a sweep cell may name (matches RunRequest's contract).
SWEEP_SCHEMES = ("baseline", "aj", "apt-get")


def sweep_cell_grid(
    schemes: Sequence[str],
    distances: Sequence[int],
    cache_scales: Sequence[int],
) -> list[tuple[str, Optional[int], int]]:
    """Expand sweep axes into the canonical cell list.

    Cells are ``(scheme, distance, cache_scale)`` triples; the distance
    axis only applies to ``aj`` (the other schemes carry ``None``), so
    a grid never contains redundant cells.  Axes are sorted and
    deduplicated, making the expansion order-insensitive — two requests
    naming the same grid in different orders produce identical cell
    lists and therefore identical artifact/dedup keys.
    """
    unknown = sorted(set(schemes) - set(SWEEP_SCHEMES))
    if unknown:
        raise ValueError(
            f"unknown sweep scheme(s) {unknown}; "
            f"expected a subset of {list(SWEEP_SCHEMES)}"
        )
    if not schemes:
        raise ValueError("sweep needs at least one scheme")
    if not cache_scales:
        raise ValueError("sweep needs at least one cache scale")
    if any(int(s) < 1 for s in cache_scales):
        raise ValueError("cache scales must be positive integers")
    if "aj" in schemes:
        if not distances:
            raise ValueError("an aj sweep needs at least one distance")
        if any(int(d) < 1 for d in distances):
            raise ValueError("prefetch distances must be >= 1")
    cells: list[tuple[str, Optional[int], int]] = []
    for scheme in sorted(set(schemes)):
        cell_distances: tuple
        if scheme == "aj":
            cell_distances = tuple(sorted({int(d) for d in distances}))
        else:
            cell_distances = (None,)
        for distance in cell_distances:
            for cache_scale in sorted({int(s) for s in cache_scales}):
                cells.append((scheme, distance, cache_scale))
    return cells


def sweep_key(
    workload: str,
    scale: str,
    config: MachineConfig,
    schemes: Sequence[str],
    distances: Sequence[int],
    cache_scales: Sequence[int],
) -> CacheKey:
    """The key of a sweep grid (kind ``sweep``), from its canonical axes:
    the v1 request key, and the key its cells' runs are stored under."""
    schemes = tuple(sorted(set(schemes)))
    distances = (
        tuple(sorted({int(d) for d in distances})) if "aj" in schemes else ()
    )
    return artifact_key(
        "sweep", workload, scale, config,
        schemes="+".join(schemes),
        distances=distances,
        cache_scales=tuple(sorted({int(s) for s in cache_scales})),
    )


class _LazyProfileRun(SchemeRun):
    """An ``apt-get`` run whose ``profile`` is loaded on its first read
    (by ``load``, from the sample entry): most readers never look."""

    def __init__(self, run: SchemeRun, load) -> None:
        super().__init__(run.scheme, run.result, run.report, run.hints)
        self._load = load

    @property
    def profile(self) -> Optional[ExecutionProfile]:
        if self._load is not None:
            self._profile, self._load = self._load(), None
        return self._profile

    @profile.setter
    def profile(self, value: Optional[ExecutionProfile]) -> None:
        self._profile, self._load = value, None


class _SharedBuild(Workload):
    """One build of a workload, shared by a sweep request's cells.

    The wrapped workload is built on the first :meth:`build`; every call
    then returns a private clone (a deep copy of the finalized module
    and an :meth:`~repro.mem.address.AddressSpace.clone` of its data),
    so no cell's passes or stores can reach another cell's inputs.
    """

    def __init__(self, workload: Workload) -> None:
        self.name = workload.name
        self.entry = workload.entry
        self.nested = workload.nested
        self._workload = workload
        self._built = None

    def build(self):
        if self._built is None:
            self._built = self._workload.build()
        module, space = self._built
        return copy.deepcopy(module), space.clone()


class TuningService:
    """Profile-and-tuning façade over the store, pool and metrics.

    ``cache_dir=None`` (the default) uses an in-process
    :class:`MemoryStore` — same semantics, no persistence — so library
    users pay for a disk cache only when they ask for one.
    """

    def __init__(
        self,
        cache_dir: Optional[str | os.PathLike] = None,
        jobs: int = 1,
        timeout: Optional[float] = DEFAULT_JOB_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = 0.05,
        metrics: Optional[MetricsRegistry] = None,
        machine_config: Optional[MachineConfig] = None,
        auto_flush: bool = True,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.store: ArtifactStore | MemoryStore
        if cache_dir is not None:
            self.store = ArtifactStore(cache_dir, metrics=self.metrics)
        else:
            self.store = MemoryStore(metrics=self.metrics)
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.config = machine_config or MachineConfig()
        # Warm-engine default: a service that persists artifacts also
        # persists compiled engines, in the same directory — so serve
        # agents sharing a queue's cache dir skip cold builds.  An
        # explicit ``code_cache`` (including a disabled spelling like
        # "off", or REPRO_CODE_CACHE in the environment) wins.
        if cache_dir is not None and self.config.code_cache is None:
            self.config = replace(self.config, code_cache=str(cache_dir))
        self.code_cache = code_cache_resolve(
            self.config.code_cache, metrics=self.metrics
        )
        # ``code_cache`` is non-semantic (excluded from the
        # fingerprint), so artifact keys are unchanged by the above.
        #: Derived configs, each built once so that its fingerprint is
        #: memoized: requested engine -> config, and (requested engine,
        #: cache scale) -> sweep-cell config.
        self._engine_configs: dict[Optional[str], MachineConfig] = {}
        self._cell_configs: dict[tuple, MachineConfig] = {}
        self._flushed_counters: dict[str, int] = {}
        #: ``repro.serve`` agents set this False: they publish metrics
        #: through per-process snapshot files instead (one writer per
        #: file), and the controller folds the deltas into the store's
        #: cumulative ``metrics.json`` exactly once.
        self.auto_flush = auto_flush

    # ------------------------------------------------------------------
    # Keys + store access with hit/miss accounting.
    # ------------------------------------------------------------------
    def _config_for(self, engine: Optional[str]) -> MachineConfig:
        """This service's config, with a per-request engine override."""
        config = self._engine_configs.get(engine)
        if config is None:
            config = self.config
            if engine is not None:
                canonical = normalize_engine(engine)
                if canonical != config.engine:
                    config = replace(config, engine=canonical)
            self._engine_configs[engine] = config
        return config

    def _key(
        self,
        kind: str,
        workload: str,
        scale: str,
        config: Optional[MachineConfig] = None,
        **params,
    ) -> CacheKey:
        """Build an artifact key (:func:`artifact_key`) under ``config``,
        this service's config by default."""
        config = config if config is not None else self.config
        return artifact_key(kind, workload, scale, config, **params)

    def _get(self, key: CacheKey) -> Optional[dict]:
        payload = self.store.get(key)
        self._count_lookup(key, payload is not None)
        return payload

    def _count_lookup(self, key: CacheKey, hit: bool) -> None:
        """Count one request-artifact lookup as a ``cache.*`` hit or miss."""
        outcome = "hit" if hit else "miss"
        self.metrics.inc("cache.hits" if hit else "cache.misses")
        self.metrics.event(
            f"cache.{outcome}", kind=key.kind, workload=key.workload
        )
        telemetry.annotate(
            "artifact-cache", kind=key.kind, workload=key.workload, hit=hit,
        )

    def _sim_get(self, key: CacheKey) -> Optional[dict]:
        """Look up a simulation entry.  Counted apart from ``cache.*``
        (``sim.hits``/``sim.misses``), so the request-artifact hit ratio
        keeps meaning what it did."""
        payload = self.store.get(key)
        hit = payload is not None
        self.metrics.inc("sim.hits" if hit else "sim.misses")
        telemetry.annotate("sim-cache", workload=key.workload, hit=hit)
        return payload

    def _sims(
        self, workload: str, scale: str, config: MachineConfig
    ) -> SimEntries:
        """This service's simulation entries for one workload/config."""
        return SimEntries(workload, scale, config, self._sim_get, self._put)

    def _put(self, key: CacheKey, payload: dict) -> None:
        """``store.put`` under a telemetry span (no-op outside a job)."""
        with telemetry.phase("store.put", kind=key.kind,
                             workload=key.workload):
            self.store.put(key, payload)

    def request_key(self, request) -> CacheKey:
        """The engine-aware artifact key identifying a v1 request.

        For profile/run/site-report requests this is *exactly* the key
        the corresponding artifact is cached under, so the ``repro.serve``
        queue deduplicating on its digest is idempotent with the cache:
        two submissions of one request share one execution and one
        stored artifact.  Suite requests get a composite key in the same
        family (kind ``suite``) naming the resolved workload list; sweep
        requests a composite key (kind ``sweep``) naming the canonical
        axis grid, so two submissions of the same grid in any axis order
        share one digest.
        """
        from repro import api as api_v1

        config = self._config_for(getattr(request, "engine", None))
        if isinstance(request, api_v1.ProfileRequest):
            return self._key(
                "profile", request.workload, request.scale, config=config
            )
        if isinstance(request, api_v1.RunRequest):
            params = {"scheme": request.scheme}
            if request.scheme == "aj":
                params["distance"] = request.distance
            return self._key(
                "run", request.workload, request.scale, config=config,
                **params,
            )
        if isinstance(request, api_v1.SiteReportRequest):
            params = {}
            if request.fixed_distance is not None:
                params["fixed_distance"] = request.fixed_distance
            return self._key(
                "sites", request.workload, request.scale, config=config,
                **params,
            )
        if isinstance(request, api_v1.SweepRequest):
            return sweep_key(
                request.workload, request.scale, config, request.schemes,
                request.distances, request.cache_scales,
            )
        if isinstance(request, api_v1.SuiteRequest):
            names = (
                tuple(request.workloads)
                if request.workloads is not None
                else tuple(scale_suite(request.scale))
            )
            return self._key(
                "suite", "+".join(names), request.scale, config=config,
                aj_distance=request.aj_distance,
            )
        raise TypeError(
            f"cannot key request of type {type(request).__name__}"
        )

    def execute(self, request):
        """Run one ``repro.api`` v1 request against this service.

        Typed dispatch: a :class:`repro.api.ProfileRequest` returns a
        ``ProfileResult``, and so on.  This is the canonical v1 entry
        point; the named methods below are thin wrappers kept for
        ergonomics and compatibility.
        """
        from repro import api as api_v1

        return api_v1.execute(request, service=self)

    @staticmethod
    def _shim_workload(workload: Optional[str], name: Optional[str]) -> str:
        """Reject the legacy ``name=`` keyword (removed in this release).

        ``name=`` was deprecated when the v1 surface landed and has now
        been retired; the parameter is kept in the signatures solely so
        stragglers get this targeted error instead of an opaque
        ``TypeError``.
        """
        if name is not None:
            raise ValueError(
                "the legacy name= keyword was removed; pass workload= "
                "instead, e.g. service.profile(workload="
                f"{name!r})"
            )
        if workload is None:
            raise TypeError("missing required argument: workload")
        return workload

    # ------------------------------------------------------------------
    # Single-artifact API (inline compute on miss).
    # ------------------------------------------------------------------
    def profile(
        self,
        workload: Optional[str] = None,
        scale: str = "small",
        *,
        engine: Optional[str] = None,
        name: Optional[str] = None,
    ) -> tuple[ExecutionProfile, HintSet]:
        """Cached profiling run + hint analysis (APT-GET steps 1-5).

        This reads the LBR samples; :meth:`analyze` reads the hints
        alone.
        """
        workload = self._shim_workload(workload, name)
        payload, samples = self.profile_payloads(
            workload, scale, self._config_for(engine)
        )
        return (
            profile_from_payload(payload, samples),
            HintSet.from_dict(payload["hints"]),
        )

    def profile_payloads(
        self, workload: str, scale: str, config: MachineConfig
    ) -> tuple[dict, dict]:
        """The ``profile`` entry and its ``lbr`` sample entry under
        ``config``.  When the sample entry is missing (the profile was
        never taken, or its entry predates the split and still carries
        its samples inline), the workload is profiled again and both
        entries are rewritten.  Only the ``profile`` lookup counts as a
        ``cache.*`` lookup."""
        payload = self._get(self._key("profile", workload, scale, config))
        samples = None
        if payload is not None:
            samples = self.store.get(self._key("lbr", workload, scale, config))
        if samples is None:
            payload, samples = self._record_profile(workload, scale, config)
        return payload, samples

    def _hints(
        self,
        workload: str,
        scale: str,
        config: MachineConfig,
        source: Optional[Workload] = None,
    ) -> HintSet:
        """The hints of the ``profile`` entry under ``config``, read
        without the samples; profiles ``source`` on a miss."""
        payload = self._get(self._key("profile", workload, scale, config))
        if payload is None:
            payload, _ = self._record_profile(workload, scale, config, source)
        return HintSet.from_dict(payload["hints"])

    def _record_profile(
        self,
        workload: str,
        scale: str,
        config: MachineConfig,
        source: Optional[Workload] = None,
    ) -> tuple[dict, dict]:
        """Profile ``source`` (a fresh registry build by default), store
        the ``profile`` and ``lbr`` entries and record the profiling run
        as the unmodified program's simulation entry."""
        profile, hints = profile_workload(
            source or make_workload(workload, scale),
            config=config,
            sims=self._sims(workload, scale, config),
        )
        payload = profile_to_payload(profile, hints)
        samples = profile.to_dict()
        self._put(self._key("profile", workload, scale, config), payload)
        self._put(self._key("lbr", workload, scale, config), samples)
        return payload, samples

    def analyze(
        self,
        workload: Optional[str] = None,
        scale: str = "small",
        *,
        engine: Optional[str] = None,
        name: Optional[str] = None,
    ) -> HintSet:
        """The hint set APT-GET derives for a workload (cached)."""
        workload = self._shim_workload(workload, name)
        return self._hints(workload, scale, self._config_for(engine))

    def baseline(
        self,
        workload: Optional[str] = None,
        scale: str = "small",
        *,
        engine: Optional[str] = None,
        name: Optional[str] = None,
    ) -> SchemeRun:
        """Cached non-prefetching baseline measurement."""
        workload = self._shim_workload(workload, name)
        return self.run(workload, scale, scheme="baseline", engine=engine)

    def run(
        self,
        workload: str,
        scale: str = "small",
        *,
        scheme: str = "baseline",
        distance: int = 32,
        engine: Optional[str] = None,
        hint_distance: Optional[int] = None,
        site: Optional[str] = None,
    ) -> SchemeRun:
        """Cached measurement of one scheme on one workload.

        ``scheme`` is ``baseline`` (no prefetching), ``aj`` (Ainsworth &
        Jones fixed-distance injection, parameterized by ``distance``)
        or ``apt-get`` (profile-guided hints; profiles via this cache).

        ``apt-get`` runs take two optional hint overrides, the
        sensitivity studies' knobs: ``hint_distance`` replaces every
        hint's distance (Figs 8/9) and ``site`` (``"inner"``/``"outer"``)
        forces every hint's injection site (Fig 10).  Each override
        joins the artifact key only when set, so plain ``apt-get`` keys
        are unchanged.

        On a miss the run is built and transformed, then answered from
        the simulation entry of the same program when one exists (the
        profiling run's, for ``baseline``; the plain run's, for an
        override that leaves the hints as they were) and simulated
        otherwise.
        """
        config = self._config_for(engine)
        overrides = _hint_overrides(scheme, hint_distance, site)
        if scheme == "aj":
            params: dict = {"distance": distance}
        elif scheme == "apt-get":
            params = overrides
        elif scheme == "baseline":
            params = {}
        else:
            raise ValueError(
                f"unknown scheme {scheme!r}; "
                "expected baseline, aj, or apt-get"
            )
        key = self._key(
            "run", workload, scale, config=config, scheme=scheme, **params
        )
        payload = self._get(key)
        if payload is None:
            payload = run_to_payload(
                self._measure(workload, scale, config, scheme, distance,
                              overrides)
            )
            self._put(key, payload)
        return run_from_payload(payload)

    def _measure(
        self,
        workload: str,
        scale: str,
        config: MachineConfig,
        scheme: str,
        distance: int = 32,
        overrides: Optional[dict] = None,
    ) -> SchemeRun:
        """Build, transform and run one scheme through this service's
        simulation entries."""
        sims = self._sims(workload, scale, config)
        instance = make_workload(workload, scale)
        if scheme == "baseline":
            return run_baseline(instance, config=config, sims=sims)
        if scheme == "aj":
            return run_ainsworth_jones(
                instance, distance=distance, config=config, sims=sims
            )
        hints = self._hints(workload, scale, config)
        if overrides:
            hints = _override_hints(hints, overrides)
        return run_with_hints(instance, hints, config=config, sims=sims)

    # ------------------------------------------------------------------
    # Batched multi-config sweeps.
    # ------------------------------------------------------------------
    def _cell_config(
        self, engine: Optional[str], cache_scale: int
    ) -> MachineConfig:
        """The machine config of a sweep cell at ``cache_scale``."""
        key = (engine, cache_scale)
        config = self._cell_configs.get(key)
        if config is None:
            config = self._config_for(engine)
            if cache_scale != 1:
                config = replace(
                    config, memory=config.memory.scaled(cache_scale)
                )
            if len(self._cell_configs) >= _CELL_CONFIGS_KEPT:
                self._cell_configs.clear()
            self._cell_configs[key] = config
        return config

    def _cell_key(
        self,
        workload: str,
        scale: str,
        scheme: str,
        distance: Optional[int],
        cell_config: MachineConfig,
    ):
        """The artifact key for one sweep cell.

        Deliberately *identical* to the key the equivalent sequential
        ``run()`` produces under the same machine config, so sweep
        cells and single runs share one artifact: a sweep warms the
        cache for later single runs and vice versa.
        """
        params = {"scheme": scheme}
        if scheme == "aj":
            params["distance"] = distance
        return artifact_key("run", workload, scale, cell_config, **params)

    def sweep(
        self,
        workload: str,
        scale: str = "small",
        *,
        schemes: Sequence[str] = ("aj",),
        distances: Sequence[int] = (4, 8, 16, 32, 64),
        cache_scales: Sequence[int] = (1,),
        engine: Optional[str] = None,
    ) -> dict:
        """Measure a config grid over one workload in batched passes.

        The grid is ``sweep_cell_grid(schemes, distances, cache_scales)``;
        each cell is cached under exactly the key the equivalent single
        ``run()`` would use.  Missing cells are grouped per scheme and
        executed through :func:`repro.machine.batch.run_batch` — one
        pass over the instruction stream per group when the cells align,
        per-cell sequential replay when they do not (the ``execution``
        metadata records which happened and why).

        A grid swept before is answered by one lookup: a finished sweep
        stores its cells' runs, in grid order, under its ``sweep`` key
        (:func:`sweep_key`, also the v1 request key), and a hit returns
        every cell as ``cached`` with no other store access.  Otherwise
        the cells are looked up one by one.

        The profiles the ``apt-get`` cells need are taken first.  Each
        missing cell is then built and transformed and looked up among
        the simulation entries: a cell whose program was already
        simulated under its config (a ``baseline`` cell, by its cache
        scale's profiling run) is answered from that run, reported with
        ``cached: false`` and ``reused: true``, and joins no batch.

        Returns a payload dict (``cells`` + ``execution``); the v1
        :class:`repro.api.SweepRequest` path wraps it in a
        ``SweepResult``.
        """
        config = self._config_for(engine)
        grid = sweep_cell_grid(schemes, distances, cache_scales)
        grid_key = sweep_key(
            workload, scale, config, schemes, distances, cache_scales
        )
        stored = self.store.get(grid_key)
        if stored is not None:
            self._count_lookup(grid_key, True)
            cells = [
                {
                    "scheme": scheme,
                    "distance": distance,
                    "cache_scale": cache_scale,
                    "cached": True,
                    "batched": None,
                    "run": run,
                }
                for (scheme, distance, cache_scale), run in zip(
                    grid, stored["runs"]
                )
            ]
            return self._sweep_payload(
                workload, scale, config, cells, [], []
            )
        cells = []
        misses: list[int] = []
        keys = []
        for scheme, distance, cache_scale in grid:
            cell_config = self._cell_config(engine, cache_scale)
            key = self._cell_key(
                workload, scale, scheme, distance, cell_config
            )
            keys.append(key)
            payload = self._get(key)
            cells.append(
                {
                    "scheme": scheme,
                    "distance": distance,
                    "cache_scale": cache_scale,
                    "cached": payload is not None,
                    "batched": None,
                    "run": payload,
                }
            )
            if payload is None:
                misses.append(len(cells) - 1)

        groups: list[dict] = []
        by_scheme: dict[str, list[int]] = {}
        for index in misses:
            by_scheme.setdefault(cells[index]["scheme"], []).append(index)
        source = (
            _SharedBuild(make_workload(workload, scale)) if misses else None
        )
        hints_at: dict[int, HintSet] = {}
        for index in by_scheme.get("apt-get", ()):
            cache_scale = cells[index]["cache_scale"]
            hints_at[cache_scale] = self._hints(
                workload, scale, self._cell_config(engine, cache_scale),
                source,
            )
        for scheme, indices in by_scheme.items():
            group_meta = self._run_sweep_group(
                source, workload, scale, scheme, indices, cells, keys,
                engine, hints_at,
            )
            if group_meta is not None:
                groups.append(group_meta)
        self._put(grid_key, {"runs": [cell["run"] for cell in cells]})
        return self._sweep_payload(
            workload, scale, config, cells, misses, groups
        )

    def _sweep_payload(
        self,
        workload: str,
        scale: str,
        config: MachineConfig,
        cells: list[dict],
        misses: list[int],
        groups: list[dict],
    ) -> dict:
        """A finished sweep's payload, counted into ``sweep.cells`` and
        ``sweep.cached_cells``."""
        self.metrics.inc("sweep.cells", len(cells))
        self.metrics.inc("sweep.cached_cells", len(cells) - len(misses))
        self.flush_metrics()
        execution = {
            "cached_cells": len(cells) - len(misses),
            "computed_cells": len(misses),
            "groups": groups,
        }
        reused = sum(1 for index in misses if cells[index].get("reused"))
        if reused:
            execution["reused_cells"] = reused
        return {
            "workload": workload,
            "scale": scale,
            "engine": config.engine,
            "cells": cells,
            "execution": execution,
        }

    def _run_sweep_group(
        self,
        source: _SharedBuild,
        workload: str,
        scale: str,
        scheme: str,
        indices: list[int],
        cells: list[dict],
        keys: list,
        engine: Optional[str],
        hints_at: dict[int, HintSet],
    ) -> Optional[dict]:
        """Prepare one scheme's missing cells, each on its own clone of
        the sweep's one build; answer the already-simulated ones from
        their entries and batch-execute the rest.  Returns the batch's
        group record, ``None`` when no cell needed simulating."""
        pending: list[tuple] = []
        for index in indices:
            cell = cells[index]
            cell_config = self._cell_config(engine, cell["cache_scale"])
            label = self._cell_label(scheme, cell["distance"])
            with telemetry.build_phase(source.name, scheme=label):
                module, space = source.build()
                report = None
                hints = None
                if scheme == "aj":
                    report = AinsworthJonesPass(
                        AinsworthJonesConfig(distance=cell["distance"])
                    ).run(module)
                elif scheme == "apt-get":
                    hints = hints_at[cell["cache_scale"]]
                    report = AptGetPass(hints).run(module)
            sims = self._sims(workload, scale, cell_config)
            sim_key = sims.key(module, source.entry)
            result = sims.get(sim_key)
            if result is not None:
                self._store_cell(
                    cells, keys, index, label, result, report, hints
                )
                cell["reused"] = True
                continue
            pending.append((
                index, label, report, hints, sims, sim_key,
                BatchCell(module, space, cell_config),
            ))
        if not pending:
            return None

        with telemetry.phase(
            "sweep.batch", scheme=scheme, cells=len(pending)
        ):
            outcome = run_batch(
                [entry[-1] for entry in pending], function=source.entry
            )
        replayed = set(outcome.replayed)
        telemetry.annotate(
            "sweep.outcome",
            scheme=scheme,
            cells=len(pending),
            batched=outcome.batched,
            shadowed=outcome.shadowed,
            reason=outcome.reason,
        )
        if len(replayed) < len(pending):
            self.metrics.inc(
                "sweep.batched_cells", len(pending) - len(replayed)
            )
        if replayed:
            self.metrics.inc("sweep.fallback_cells", len(replayed))
        self.metrics.inc("sweep.shadowed_cells", outcome.shadowed)
        self.metrics.inc("sweep.shadow_aborts", outcome.shadow_aborts)
        if replayed and outcome.reason_code:
            # Per-cause fallback counter: ``batch.fallback.<code>`` —
            # lets dashboards tell a shape mismatch from a divergence
            # mid-run without parsing the human-readable reason.
            self.metrics.inc(f"batch.fallback.{outcome.reason_code}")
        self.metrics.event(
            "sweep.group",
            scheme=scheme,
            cells=len(pending),
            batched=outcome.batched,
        )

        for position, entry in enumerate(pending):
            index, label, report, hints, sims, sim_key, _ = entry
            result = outcome.results[position]
            sims.put(sim_key, result)
            self._store_cell(cells, keys, index, label, result, report, hints)
            cells[index]["batched"] = position not in replayed
        group = {
            "scheme": scheme,
            "cells": len(pending),
            "batched": outcome.batched,
            "reason": outcome.reason,
            "reason_code": outcome.reason_code,
        }
        if outcome.batched and replayed:
            group["replayed_cells"] = len(replayed)
        return group

    def _store_cell(
        self, cells, keys, index, label, result, report, hints
    ) -> None:
        """Store one computed sweep cell under its run key."""
        payload = run_to_payload(
            SchemeRun(label, result, report=report, hints=hints)
        )
        self._put(keys[index], payload)
        cells[index]["run"] = payload

    @staticmethod
    def _cell_label(scheme: str, distance: Optional[int]) -> str:
        """The SchemeRun label, matching the sequential runner's."""
        return f"aj-{distance}" if scheme == "aj" else scheme

    def site_report(
        self,
        workload: Optional[str] = None,
        scale: str = "small",
        fixed_distance: Optional[int] = None,
        *,
        engine: Optional[str] = None,
        name: Optional[str] = None,
    ) -> dict[str, SiteReport]:
        """Per-injection-site timeliness rollups from one traced run
        (cached under the ``sites`` artifact kind).

        With the default ``fixed_distance=None`` the workload runs with
        its Eq-1/Eq-2 hints.  Passing a distance instead measures the
        naive baseline — every hint forced to the inner site at that
        fixed distance (a compiler's ``-fprefetch-loop-arrays`` shape) —
        so the two calls together show what profile-guided distance and
        site selection buy.

        Fresh (uncached) computations feed aggregate event counts into
        this service's :class:`MetricsRegistry` under ``obs.prefetch.*``
        and observe each site's timely fraction in the
        ``obs.site.timely_fraction`` histogram.
        """
        workload = self._shim_workload(workload, name)
        config = self._config_for(engine)
        params = {}
        if fixed_distance is not None:
            params["fixed_distance"] = fixed_distance
        key = self._key("sites", workload, scale, config=config, **params)
        payload = self._get(key)
        if payload is None:
            hints = self._hints(workload, scale, config)
            if fixed_distance is not None:
                hints = hints_with_distance(
                    hints_with_site(hints, InjectionSite.INNER),
                    fixed_distance,
                )
            instance = make_workload(workload, scale)
            with telemetry.build_phase(instance.name, scheme="sites"):
                module, space = instance.build()
                AptGetPass(hints).run(module)
            machine = Machine(module, space, config=config)
            trace = machine.enable_tracing()
            with telemetry.run_phase(machine, scheme="sites", traced=True):
                machine.run(instance.entry)
            reports = site_reports(trace)
            payload = {
                "sites": {
                    label: report.to_dict()
                    for label, report in reports.items()
                }
            }
            self._put(key, payload)
            # A traced run is the one place the simulator-level
            # prefetch-lifecycle timeline exists; export it keyed by
            # the job's trace id so the controller can stitch it under
            # this job's engine.run span (merged Perfetto view).
            context = telemetry.current()
            if context is not None:
                from repro.obs.timeline import chrome_trace

                context.put_sim_trace(chrome_trace(
                    trace,
                    metadata={"workload": workload, "scale": scale},
                ))
            for field in (
                "issued", "timely", "late", "early_evicted", "unused"
            ):
                total = sum(getattr(r, field) for r in reports.values())
                if total:
                    self.metrics.inc(f"obs.prefetch.{field}", total)
            for report in reports.values():
                if report.used:
                    self.metrics.histogram(
                        "obs.site.timely_fraction",
                        _TIMELY_FRACTION_BUCKETS,
                    ).observe(report.timely_fraction)
            self.flush_metrics()
        return {
            label: SiteReport.from_dict(raw)
            for label, raw in payload["sites"].items()
        }

    # ------------------------------------------------------------------
    # Suite comparison (parallel compute of misses).
    # ------------------------------------------------------------------
    def compare_suite(
        self,
        scale: str = "small",
        aj_distance: int = 32,
        names: Optional[Iterable[str]] = None,
        jobs: Optional[int] = None,
        *,
        engine: Optional[str] = None,
    ) -> dict[str, WorkloadComparison]:
        """Baseline + A&J + APT-GET over a suite, cache-backed.

        Missing per-workload artifacts are computed by the job pool.  A
        workload whose job raises or times out (after retries) comes
        back as a :class:`WorkloadComparison` with ``error`` set and no
        runs — an error row — while every other workload completes.
        Jobs return the simulation entries their runs produced, and
        this process stores them.
        """
        config = self._config_for(engine)
        names = list(names) if names is not None else scale_suite(scale)
        state: dict[str, dict] = {}
        errors: dict[str, str] = {}
        pending: list[Job] = []
        for name in names:
            cached: dict[str, dict] = {}
            for piece in _SUITE_PIECES:
                key = self._piece_key(piece, name, scale, aj_distance, config)
                payload = self._get(key)
                if payload is not None:
                    cached[piece] = payload
            state[name] = cached
            needs = tuple(p for p in _SUITE_PIECES if p not in cached)
            if needs:
                hints_payload = (
                    cached["profile"]["hints"] if "profile" in cached else None
                )
                pending.append(
                    Job(
                        key=name,
                        fn=_suite_job,
                        args=(
                            name,
                            scale,
                            aj_distance,
                            needs,
                            hints_payload,
                            config,
                        ),
                    )
                )

        if pending:
            pool = JobPool(
                workers=jobs if jobs is not None else self.jobs,
                timeout=self.timeout,
                retries=self.retries,
                backoff=self.backoff,
                metrics=self.metrics,
            )
            for outcome in pool.run(pending):
                if not outcome.ok:
                    errors[outcome.key] = outcome.error
                    self.metrics.inc("service.errors")
                    continue
                pieces = dict(outcome.value)
                for key, payload in pieces.pop("sim").items():
                    self._put(key, payload)
                samples = pieces.pop("lbr", None)
                if samples is not None:
                    self._put(
                        self._key("lbr", outcome.key, scale, config), samples
                    )
                for piece, payload in pieces.items():
                    key = self._piece_key(
                        piece, outcome.key, scale, aj_distance, config
                    )
                    self._put(key, payload)
                    state[outcome.key][piece] = payload

        comparisons: dict[str, WorkloadComparison] = {}
        for name in names:
            if name in errors:
                comparisons[name] = WorkloadComparison(
                    workload=name, error=errors[name]
                )
                continue
            comparisons[name] = self._build_comparison(
                name, state[name], scale, config
            )
        self.flush_metrics()
        return comparisons

    def _piece_key(
        self,
        piece: str,
        name: str,
        scale: str,
        aj_distance: int,
        config: Optional[MachineConfig] = None,
    ) -> CacheKey:
        if piece == "profile":
            return self._key("profile", name, scale, config=config)
        if piece == "baseline":
            return self._key(
                "run", name, scale, config=config, scheme="baseline"
            )
        if piece == "aj":
            return self._key(
                "run", name, scale, config=config,
                scheme="aj", distance=aj_distance,
            )
        if piece == "apt":
            return self._key(
                "run", name, scale, config=config, scheme="apt-get"
            )
        raise ValueError(f"unknown suite piece {piece!r}")

    def _build_comparison(
        self,
        name: str,
        payloads: dict[str, dict],
        scale: str,
        config: MachineConfig,
    ) -> WorkloadComparison:
        """One workload's comparison; the ``apt-get`` run's ``profile``
        is loaded from the sample entry on its first read."""
        comparison = WorkloadComparison(workload=name)
        comparison.runs["baseline"] = run_from_payload(payloads["baseline"])
        comparison.runs["aj"] = run_from_payload(payloads["aj"])
        apt = run_from_payload(payloads["apt"])
        if apt.hints is None:
            apt.hints = HintSet.from_dict(payloads["profile"]["hints"])
        comparison.runs["apt-get"] = _LazyProfileRun(
            apt,
            lambda: profile_from_payload(
                *self.profile_payloads(name, scale, config)
            ),
        )
        return comparison

    # ------------------------------------------------------------------
    # Cache management + metrics persistence.
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        stats = self.store.stats()
        stats["metrics"] = self.store.read_metrics()
        if self.code_cache is not None:
            stats["codecache"] = self.code_cache.stats()
        return stats

    def clear_cache(self) -> int:
        return self.store.clear()

    def flush_metrics(self) -> None:
        """Fold this service's counter *deltas* into the store's
        cumulative ``metrics.json`` (no-op for in-memory stores, and
        for services with ``auto_flush=False``, whose process publishes
        a snapshot file instead)."""
        if not self.auto_flush:
            return
        current = self.metrics.counters()
        deltas = {
            name: value - self._flushed_counters.get(name, 0)
            for name, value in current.items()
        }
        self.store.merge_metrics(deltas)
        self._flushed_counters = current


# ----------------------------------------------------------------------
# The process-global default service: what `experiments.runner`'s
# cached_* helpers and the CLI use unless configured otherwise.
# ----------------------------------------------------------------------
_SERVICE: Optional[TuningService] = None


def get_service() -> TuningService:
    """The process-wide service (created on first use).

    ``REPRO_CACHE_DIR`` / ``REPRO_JOBS`` environment variables seed the
    default instance, so scripts and CI get a disk-backed, parallel
    service without code changes.
    """
    global _SERVICE
    if _SERVICE is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
        _SERVICE = TuningService(cache_dir=cache_dir, jobs=jobs)
    return _SERVICE


def configure_service(**kwargs) -> TuningService:
    """Replace the process-wide service (CLI ``--jobs``/``--cache-dir``)."""
    global _SERVICE
    _SERVICE = TuningService(**kwargs)
    return _SERVICE
