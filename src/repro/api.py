"""``repro.api`` — the stable v1 library surface.

Every entry point takes a frozen, keyword-only *request* dataclass and
returns a frozen *result* dataclass whose payload is plain JSON-able
data (``to_payload``/``from_payload`` round-trip losslessly through
``json``).  Argument order is uniformly ``(workload, scale)``, and every
request carries an explicit ``engine=`` knob (``turbo`` | ``fast`` |
``translate`` | ``reference``; ``None`` means the service's configured
default).

Three equivalent call shapes::

    import repro.api as api

    # 1. Request objects (the canonical, versioned shape).
    result = api.execute(api.RunRequest(workload="BFS", scale="small"))

    # 2. Convenience wrappers building the requests for you.
    result = api.run("BFS", "small", scheme="apt-get")

    # 3. The service facade (caching, parallelism) used directly.
    service = api.get_service()
    comparison = service.compare_suite("small")

Results deliberately store payload *data*, not live objects: a result
can be persisted, shipped across a process boundary, and rehydrated
with ``from_payload`` without losing anything, and rich objects
(:class:`ExecutionProfile`, :class:`HintSet`, :class:`SiteReport`) are
reconstructed on demand by the accessor methods.

Compatibility: this module is the v1 contract.  Additions are allowed;
renames/removals require a v2.  The pre-v1 ``name=`` keyword shims have
been retired: passing ``name=`` to a ``TuningService`` method now raises
``ValueError`` with a migration hint (pass ``workload=`` instead).
Engine aliases (``Machine(engine="interpret")``) still normalize.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from repro.core.hints import HintSet
from repro.experiments.runner import SchemeRun, WorkloadComparison
from repro.machine.config import ENGINES, normalize_engine
from repro.obs.sites import SiteReport
from repro.profiling.profile import ExecutionProfile
from repro.service.api import (
    SWEEP_SCHEMES,
    TuningService,
    configure_service,
    get_service,
    profile_from_payload,
    run_from_payload,
    run_to_payload,
    sweep_cell_grid,
)

API_VERSION = 1


class _Payload:
    """Shared payload plumbing: versioned, JSON-safe dict round-trips."""

    def to_payload(self) -> dict:
        payload: dict = {"kind": type(self).__name__, "v": API_VERSION}
        payload.update(asdict(self))
        return payload

    @classmethod
    def from_payload(cls, payload: dict):
        # Payloads cross process boundaries, so every malformed shape is
        # a ValueError with the offending detail — never a bare
        # TypeError/AttributeError from dataclass plumbing.
        if not isinstance(payload, dict):
            raise ValueError(
                f"payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        kind = payload.get("kind", cls.__name__)
        if kind != cls.__name__:
            raise ValueError(f"payload is a {kind}, expected {cls.__name__}")
        version = payload.get("v", API_VERSION)
        if version != API_VERSION:
            raise ValueError(f"unsupported payload version {version!r}")
        data = {
            key: value
            for key, value in payload.items()
            if key not in ("kind", "v")
        }
        known = {f.name for f in dataclasses.fields(cls)}
        unexpected = sorted(set(data) - known)
        if unexpected:
            raise ValueError(
                f"{cls.__name__} payload has unexpected field(s) "
                f"{unexpected}; known fields are {sorted(known)}"
            )
        try:
            return cls(**data)
        except TypeError as error:  # e.g. a missing required field
            raise ValueError(
                f"malformed {cls.__name__} payload: {error}"
            ) from error

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_payload(json.loads(text))


def _check_engine(engine: Optional[str]) -> Optional[str]:
    return None if engine is None else normalize_engine(engine)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class ProfileRequest(_Payload):
    """Ask for a profiling run + APT-GET hint analysis (cached).

    ``trace`` is an optional client-supplied correlation id: the
    ``repro.serve`` queue stamps it on the job (minting one when
    absent) so the job's telemetry spans share the caller's trace.  It
    never participates in cache/dedup keys — two requests differing
    only in ``trace`` are the same work.
    """

    workload: str
    scale: str = "small"
    engine: Optional[str] = None
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", _check_engine(self.engine))


@dataclass(frozen=True, kw_only=True)
class RunRequest(_Payload):
    """Ask for one measured scheme run (cached).

    ``scheme`` is ``baseline``, ``aj`` (fixed-distance injection, uses
    ``distance``) or ``apt-get`` (profile-guided hints).
    """

    workload: str
    scale: str = "small"
    scheme: str = "baseline"
    distance: int = 32
    engine: Optional[str] = None
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", _check_engine(self.engine))
        if self.scheme not in ("baseline", "aj", "apt-get"):
            raise ValueError(
                f"unknown scheme {self.scheme!r}; "
                "expected baseline, aj, or apt-get"
            )


@dataclass(frozen=True, kw_only=True)
class SiteReportRequest(_Payload):
    """Ask for per-injection-site timeliness rollups (cached).

    ``fixed_distance=None`` measures the workload's profile-guided
    hints; an integer forces every hint to the inner site at that
    distance (the naive-compiler baseline).
    """

    workload: str
    scale: str = "small"
    fixed_distance: Optional[int] = None
    engine: Optional[str] = None
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", _check_engine(self.engine))


@dataclass(frozen=True, kw_only=True)
class SuiteRequest(_Payload):
    """Ask for the baseline/A&J/APT-GET suite comparison (cached,
    computed in parallel across ``jobs`` workers on misses)."""

    scale: str = "small"
    aj_distance: int = 32
    workloads: Optional[tuple] = None
    jobs: Optional[int] = None
    engine: Optional[str] = None
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", _check_engine(self.engine))
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(self.workloads))


@dataclass(frozen=True, kw_only=True)
class SweepRequest(_Payload):
    """Ask for a batched multi-config sweep over one workload.

    The grid is the cross product of three axes: ``schemes`` (any
    subset of ``baseline`` | ``aj`` | ``apt-get``), ``distances``
    (prefetch distances; applies only to ``aj`` cells) and
    ``cache_scales`` (integer divisors shrinking every cache capacity
    in the base memory config; ``1`` is the base hierarchy, ``2``
    halves L1/L2/LLC).  Axes are
    canonicalized on construction — sorted, deduplicated, and the
    distance axis dropped when no ``aj`` cells exist — so two requests
    naming the same grid in different orders are *equal*, serialize to
    the same payload, and share one dedup key.

    Each cell is cached under exactly the key the equivalent single
    :class:`RunRequest` would use, so sweeps and single runs share
    artifacts in both directions.
    """

    workload: str
    scale: str = "small"
    schemes: tuple = ("aj",)
    distances: tuple = (4, 8, 16, 32, 64)
    cache_scales: tuple = (1,)
    engine: Optional[str] = None
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", _check_engine(self.engine))
        if isinstance(self.schemes, str):
            raise ValueError(
                "schemes must be a sequence of scheme names, "
                f"got the bare string {self.schemes!r}"
            )
        schemes = tuple(sorted(set(self.schemes)))
        distances = tuple(sorted({int(d) for d in self.distances}))
        cache_scales = tuple(sorted({int(s) for s in self.cache_scales}))
        if "aj" not in schemes:
            distances = ()
        # Validates the axes (unknown schemes, empty axes, bad values)
        # with the exact rules the executor applies.
        sweep_cell_grid(schemes, distances, cache_scales)
        object.__setattr__(self, "schemes", schemes)
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "cache_scales", cache_scales)

    def cells(self) -> list[tuple]:
        """The canonical ``(scheme, distance, cache_scale)`` cell list."""
        return sweep_cell_grid(
            self.schemes, self.distances, self.cache_scales
        )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class ProfileResult(_Payload):
    """Profile + hints for one workload; ``engine`` is the resolved name."""

    workload: str
    scale: str
    engine: str
    profile: dict = field(repr=False)
    hints: dict = field(repr=False)

    def execution_profile(self) -> ExecutionProfile:
        return profile_from_payload(self.profile, self.profile["profile"])

    def hint_set(self) -> HintSet:
        return HintSet.from_dict(self.hints)


@dataclass(frozen=True, kw_only=True)
class RunResult(_Payload):
    """One measured scheme run; counters are the run's deltas."""

    workload: str
    scale: str
    engine: str
    scheme: str
    value: int
    counters: dict = field(repr=False)
    run: dict = field(repr=False)

    @property
    def cycles(self) -> float:
        return self.counters.get("cycles", 0.0)

    def scheme_run(self) -> SchemeRun:
        return run_from_payload(self.run)


@dataclass(frozen=True, kw_only=True)
class SiteReportResult(_Payload):
    """Per-site timeliness rollups from one traced run."""

    workload: str
    scale: str
    engine: str
    fixed_distance: Optional[int]
    sites: dict = field(repr=False)

    def reports(self) -> dict[str, SiteReport]:
        return {
            label: SiteReport.from_dict(raw)
            for label, raw in self.sites.items()
        }


@dataclass(frozen=True, kw_only=True)
class SuiteResult(_Payload):
    """Suite-wide comparison; ``rows`` maps workload -> payload."""

    scale: str
    engine: str
    aj_distance: int
    workloads: tuple
    rows: dict = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))

    def comparisons(self) -> dict[str, WorkloadComparison]:
        out: dict[str, WorkloadComparison] = {}
        for name in self.workloads:
            row = self.rows[name]
            comparison = WorkloadComparison(
                workload=name, error=row.get("error")
            )
            for scheme, payload in row.get("runs", {}).items():
                comparison.runs[scheme] = run_from_payload(payload)
            out[name] = comparison
        return out


@dataclass(frozen=True, kw_only=True)
class SweepResult(_Payload):
    """A measured config grid; one entry in ``cells`` per grid cell.

    Each cell dict carries its coordinates (``scheme``, ``distance``,
    ``cache_scale``), the full run payload (``run``, same shape a
    :class:`RunResult` stores), and provenance flags: ``cached`` (came
    from the artifact store) and ``batched`` (executed in the batched
    pass; ``None`` for cached and reused cells, ``False`` for per-cell
    fallback).  A computed cell whose program was already simulated
    under its config (a ``baseline`` cell, by its cache scale's
    profiling run) also carries ``reused: true``; it joined no batch.
    ``execution`` summarizes the run: cached/computed counts,
    ``reused_cells`` when any cell was reused, and one record per batch
    actually run with its fallback reason, if any.
    """

    workload: str
    scale: str
    engine: str
    schemes: tuple
    distances: tuple
    cache_scales: tuple
    cells: list = field(repr=False)
    execution: dict = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "distances", tuple(self.distances))
        object.__setattr__(
            self, "cache_scales", tuple(self.cache_scales)
        )

    def cell(
        self,
        scheme: str,
        distance: Optional[int] = None,
        cache_scale: int = 1,
    ) -> dict:
        """The cell dict at the given grid coordinates."""
        if scheme != "aj":
            distance = None
        for entry in self.cells:
            if (
                entry["scheme"] == scheme
                and entry["distance"] == distance
                and entry["cache_scale"] == cache_scale
            ):
                return entry
        raise KeyError(
            f"no sweep cell ({scheme!r}, {distance!r}, {cache_scale!r})"
        )

    def scheme_run(
        self,
        scheme: str,
        distance: Optional[int] = None,
        cache_scale: int = 1,
    ) -> SchemeRun:
        """Rehydrate one cell's run as a live :class:`SchemeRun`."""
        return run_from_payload(
            self.cell(scheme, distance, cache_scale)["run"]
        )

    def cycles(self) -> dict[tuple, float]:
        """Grid coordinates -> measured cycles, for quick plotting."""
        return {
            (
                entry["scheme"],
                entry["distance"],
                entry["cache_scale"],
            ): entry["run"]["counters"].get("cycles", 0.0)
            for entry in self.cells
        }


#: Request type -> handler name; the execute() dispatch table.
_REQUEST_TYPES = (
    ProfileRequest,
    RunRequest,
    SiteReportRequest,
    SuiteRequest,
    SweepRequest,
)

#: Payload ``kind`` -> dataclass, for the wire (the ``repro.serve`` HTTP
#: boundary and the job journal both carry bare payload dicts).
REQUEST_KINDS = {cls.__name__: cls for cls in _REQUEST_TYPES}
RESULT_KINDS = {
    cls.__name__: cls
    for cls in (
        ProfileResult,
        RunResult,
        SiteReportResult,
        SuiteResult,
        SweepResult,
    )
}


def request_from_payload(payload: dict):
    """Rehydrate any v1 *request* payload by its ``kind`` field.

    This is the single deserialization point for the HTTP front end and
    the job queue; every malformed shape raises ``ValueError`` with the
    offending detail (mapped to a 400 at the HTTP boundary).
    """
    return _from_payload_by_kind(payload, REQUEST_KINDS, "request")


def result_from_payload(payload: dict):
    """Rehydrate any v1 *result* payload by its ``kind`` field."""
    return _from_payload_by_kind(payload, RESULT_KINDS, "result")


def _from_payload_by_kind(payload, kinds: dict, what: str):
    if not isinstance(payload, dict):
        raise ValueError(
            f"{what} payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    kind = payload.get("kind")
    cls = kinds.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown {what} kind {kind!r}; expected one of {sorted(kinds)}"
        )
    return cls.from_payload(payload)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute(
    request,
    service: Optional[TuningService] = None,
):
    """Run one v1 request against a service (default: the process-wide
    one) and return the matching result dataclass."""
    service = service if service is not None else get_service()
    if isinstance(request, ProfileRequest):
        config = service._config_for(request.engine)
        payload, samples = service.profile_payloads(
            request.workload, request.scale, config
        )
        return ProfileResult(
            workload=request.workload,
            scale=request.scale,
            engine=config.engine,
            profile={"profile": samples, "counters": payload["counters"]},
            hints=payload["hints"],
        )
    if isinstance(request, RunRequest):
        run_obj = service.run(
            request.workload,
            request.scale,
            scheme=request.scheme,
            distance=request.distance,
            engine=request.engine,
        )
        payload = run_to_payload(run_obj)
        return RunResult(
            workload=request.workload,
            scale=request.scale,
            engine=service._config_for(request.engine).engine,
            scheme=request.scheme,
            value=run_obj.result.value,
            counters=payload["counters"],
            run=payload,
        )
    if isinstance(request, SiteReportRequest):
        reports = service.site_report(
            request.workload,
            request.scale,
            fixed_distance=request.fixed_distance,
            engine=request.engine,
        )
        return SiteReportResult(
            workload=request.workload,
            scale=request.scale,
            engine=service._config_for(request.engine).engine,
            fixed_distance=request.fixed_distance,
            sites={
                label: report.to_dict()
                for label, report in reports.items()
            },
        )
    if isinstance(request, SuiteRequest):
        comparisons = service.compare_suite(
            scale=request.scale,
            aj_distance=request.aj_distance,
            names=request.workloads,
            jobs=request.jobs,
            engine=request.engine,
        )
        rows: dict = {}
        for name, comparison in comparisons.items():
            rows[name] = {
                "error": comparison.error,
                "runs": {
                    scheme: run_to_payload(run)
                    for scheme, run in comparison.runs.items()
                },
            }
        return SuiteResult(
            scale=request.scale,
            engine=service._config_for(request.engine).engine,
            aj_distance=request.aj_distance,
            workloads=tuple(comparisons),
            rows=rows,
        )
    if isinstance(request, SweepRequest):
        payload = service.sweep(
            request.workload,
            request.scale,
            schemes=request.schemes,
            distances=request.distances,
            cache_scales=request.cache_scales,
            engine=request.engine,
        )
        return SweepResult(
            workload=request.workload,
            scale=request.scale,
            engine=payload["engine"],
            schemes=request.schemes,
            distances=request.distances,
            cache_scales=request.cache_scales,
            cells=payload["cells"],
            execution=payload["execution"],
        )
    raise TypeError(
        f"unknown request type {type(request).__name__}; "
        f"expected one of {[t.__name__ for t in _REQUEST_TYPES]}"
    )


# ----------------------------------------------------------------------
# Convenience wrappers: positional (workload, scale), keyword the rest.
# ----------------------------------------------------------------------
def profile(
    workload: str,
    scale: str = "small",
    *,
    engine: Optional[str] = None,
    service: Optional[TuningService] = None,
) -> ProfileResult:
    return execute(
        ProfileRequest(workload=workload, scale=scale, engine=engine),
        service=service,
    )


def run(
    workload: str,
    scale: str = "small",
    *,
    scheme: str = "baseline",
    distance: int = 32,
    engine: Optional[str] = None,
    service: Optional[TuningService] = None,
) -> RunResult:
    return execute(
        RunRequest(
            workload=workload,
            scale=scale,
            scheme=scheme,
            distance=distance,
            engine=engine,
        ),
        service=service,
    )


def site_report(
    workload: str,
    scale: str = "small",
    *,
    fixed_distance: Optional[int] = None,
    engine: Optional[str] = None,
    service: Optional[TuningService] = None,
) -> SiteReportResult:
    return execute(
        SiteReportRequest(
            workload=workload,
            scale=scale,
            fixed_distance=fixed_distance,
            engine=engine,
        ),
        service=service,
    )


def sweep(
    workload: str,
    scale: str = "small",
    *,
    schemes: tuple = ("aj",),
    distances: tuple = (4, 8, 16, 32, 64),
    cache_scales: tuple = (1,),
    engine: Optional[str] = None,
    service: Optional[TuningService] = None,
) -> SweepResult:
    return execute(
        SweepRequest(
            workload=workload,
            scale=scale,
            schemes=schemes,
            distances=distances,
            cache_scales=cache_scales,
            engine=engine,
        ),
        service=service,
    )


def compare_suite(
    scale: str = "small",
    *,
    aj_distance: int = 32,
    workloads: Optional[tuple] = None,
    jobs: Optional[int] = None,
    engine: Optional[str] = None,
    service: Optional[TuningService] = None,
) -> SuiteResult:
    return execute(
        SuiteRequest(
            scale=scale,
            aj_distance=aj_distance,
            workloads=workloads,
            jobs=jobs,
            engine=engine,
        ),
        service=service,
    )


__all__ = [
    "API_VERSION",
    "ENGINES",
    "REQUEST_KINDS",
    "RESULT_KINDS",
    "SWEEP_SCHEMES",
    "ProfileRequest",
    "ProfileResult",
    "RunRequest",
    "RunResult",
    "SiteReportRequest",
    "SiteReportResult",
    "SuiteRequest",
    "SuiteResult",
    "SweepRequest",
    "SweepResult",
    "TuningService",
    "compare_suite",
    "configure_service",
    "execute",
    "get_service",
    "profile",
    "request_from_payload",
    "result_from_payload",
    "run",
    "site_report",
    "sweep",
    "sweep_cell_grid",
]
