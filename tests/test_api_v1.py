"""The stable v1 ``repro.api`` surface: payload round-trips (property
tested), typed execute() dispatch, engine knobs, deprecation shims, and
the engine-aware artifact-key regression test (two engines must be able
to share one cache directory without clobbering each other)."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.machine.config import ENGINES
from repro.service.api import TuningService

FAST = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-0123456789", min_size=1, max_size=20
)
_scales = st.sampled_from(["tiny", "small", "full"])
_engines = st.none() | st.sampled_from(list(ENGINES))


def _roundtrip(obj):
    """to_payload -> json -> from_payload must reproduce the object."""
    rebuilt = type(obj).from_payload(json.loads(json.dumps(obj.to_payload())))
    assert rebuilt == obj
    assert type(obj).from_json(obj.to_json()) == obj


class TestRequestRoundTrips:
    @FAST
    @given(workload=_names, scale=_scales, engine=_engines)
    def test_profile_request(self, workload, scale, engine):
        _roundtrip(
            api.ProfileRequest(workload=workload, scale=scale, engine=engine)
        )

    @FAST
    @given(
        workload=_names,
        scale=_scales,
        engine=_engines,
        scheme=st.sampled_from(["baseline", "aj", "apt-get"]),
        distance=st.integers(min_value=1, max_value=512),
    )
    def test_run_request(self, workload, scale, engine, scheme, distance):
        _roundtrip(
            api.RunRequest(
                workload=workload,
                scale=scale,
                scheme=scheme,
                distance=distance,
                engine=engine,
            )
        )

    @FAST
    @given(
        workload=_names,
        scale=_scales,
        engine=_engines,
        fixed=st.none() | st.integers(min_value=1, max_value=512),
    )
    def test_site_report_request(self, workload, scale, engine, fixed):
        _roundtrip(
            api.SiteReportRequest(
                workload=workload,
                scale=scale,
                fixed_distance=fixed,
                engine=engine,
            )
        )

    @FAST
    @given(
        scale=_scales,
        engine=_engines,
        aj=st.integers(min_value=1, max_value=512),
        workloads=st.none() | st.lists(_names, max_size=4).map(tuple),
        jobs=st.none() | st.integers(min_value=1, max_value=8),
    )
    def test_suite_request(self, scale, engine, aj, workloads, jobs):
        request = api.SuiteRequest(
            scale=scale,
            aj_distance=aj,
            workloads=workloads,
            jobs=jobs,
            engine=engine,
        )
        _roundtrip(request)
        # Lists normalize to tuples so JSON round-trips compare equal.
        if workloads is not None:
            assert isinstance(
                api.SuiteRequest(workloads=list(workloads)).workloads, tuple
            )

    @FAST
    @given(
        workload=_names,
        scale=_scales,
        engine=_engines,
        schemes=st.sets(
            st.sampled_from(list(api.SWEEP_SCHEMES)), min_size=1
        ),
        distances=st.lists(
            st.integers(min_value=1, max_value=128), min_size=1, max_size=6
        ),
        cache_scales=st.lists(
            st.integers(min_value=1, max_value=8), min_size=1, max_size=4
        ),
    )
    def test_sweep_request(
        self, workload, scale, engine, schemes, distances, cache_scales
    ):
        request = api.SweepRequest(
            workload=workload,
            scale=scale,
            schemes=tuple(schemes),
            distances=tuple(distances),
            cache_scales=tuple(cache_scales),
            engine=engine,
        )
        _roundtrip(request)
        # Axes canonicalize: sorted, deduped, tuples.
        assert request.schemes == tuple(sorted(schemes))
        assert request.distances == (
            tuple(sorted(set(distances))) if "aj" in schemes else ()
        )
        assert request.cache_scales == tuple(sorted(set(cache_scales)))
        # The expanded grid is exactly one cell per axis combination.
        cells = request.cells()
        per_scheme = {s: 0 for s in request.schemes}
        for scheme, distance, cache_scale in cells:
            per_scheme[scheme] += 1
            assert (distance is None) == (scheme != "aj")
            assert cache_scale in request.cache_scales
        for scheme, count in per_scheme.items():
            expected = len(request.cache_scales) * (
                len(request.distances) if scheme == "aj" else 1
            )
            assert count == expected

    def test_sweep_request_axis_order_is_irrelevant(self):
        a = api.SweepRequest(
            workload="w",
            schemes=("baseline", "aj"),
            distances=(8, 4, 4),
            cache_scales=(2, 1),
        )
        b = api.SweepRequest(
            workload="w",
            schemes=("aj", "baseline"),
            distances=(4, 8),
            cache_scales=(1, 2),
        )
        assert a == b
        assert a.cells() == b.cells()

    def test_sweep_request_validation(self):
        with pytest.raises(ValueError, match="bare string"):
            api.SweepRequest(workload="w", schemes="aj")
        with pytest.raises(ValueError, match="unknown sweep scheme"):
            api.SweepRequest(workload="w", schemes=("turbo",))
        with pytest.raises(ValueError):
            api.SweepRequest(workload="w", schemes=())
        with pytest.raises(ValueError):  # aj without distances
            api.SweepRequest(
                workload="w", schemes=("aj",), distances=()
            )
        with pytest.raises(ValueError):  # scales must be >= 1
            api.SweepRequest(workload="w", cache_scales=(0,))
        # Distances are irrelevant without "aj": they collapse to ().
        request = api.SweepRequest(
            workload="w", schemes=("baseline",), distances=(4, 8)
        )
        assert request.distances == ()

    def test_request_validation(self):
        with pytest.raises(ValueError):
            api.RunRequest(workload="x", scheme="turbo")
        with pytest.raises(ValueError):
            api.ProfileRequest(workload="x", engine="jit")
        # Keyword-only: positional construction is a v1 contract violation.
        with pytest.raises(TypeError):
            api.ProfileRequest("BFS")  # noqa: B018


class TestExecute:
    def test_run_result_round_trips(self):
        service = TuningService()
        result = api.run("micro-tiny", "tiny", service=service)
        assert isinstance(result, api.RunResult)
        assert result.engine in ENGINES
        assert result.cycles > 0
        _roundtrip(result)
        assert result.scheme_run().result.value == result.value

    def test_profile_result_round_trips(self):
        service = TuningService()
        result = api.profile("micro-tiny", "tiny", service=service)
        _roundtrip(result)
        assert len(result.hint_set()) >= 1
        assert result.execution_profile().counters.cycles > 0

    def test_site_report_result_round_trips(self):
        service = TuningService()
        result = api.site_report("micro-tiny", "tiny", service=service)
        _roundtrip(result)
        reports = result.reports()
        assert reports and all(r.issued >= 0 for r in reports.values())

    def test_suite_result_round_trips(self):
        service = TuningService()
        result = api.compare_suite(
            "tiny", workloads=("micro-tiny",), service=service
        )
        _roundtrip(result)
        comparisons = result.comparisons()
        assert comparisons["micro-tiny"].error is None
        assert set(comparisons["micro-tiny"].runs) == {
            "baseline", "aj", "apt-get"
        }

    def test_execute_dispatch_on_service(self):
        service = TuningService()
        result = service.execute(
            api.RunRequest(workload="micro-tiny", scale="tiny")
        )
        assert isinstance(result, api.RunResult)

    def test_execute_rejects_unknown_request(self):
        with pytest.raises(TypeError):
            api.execute(object(), service=TuningService())

    def test_engines_agree_through_api(self):
        service = TuningService()
        runs = {
            engine: api.run(
                "micro-tiny", "tiny", engine=engine, service=service
            )
            for engine in ENGINES
        }
        reference = runs["reference"]
        for engine, result in runs.items():
            assert result.value == reference.value, engine
            assert result.counters == reference.counters, engine


class TestSweep:
    GRID = dict(schemes=("aj", "baseline"), distances=(2, 4), cache_scales=(1,))

    def test_sweep_result_round_trips(self):
        service = TuningService()
        result = api.sweep(
            "micro-tiny", "tiny", service=service, **self.GRID
        )
        assert isinstance(result, api.SweepResult)
        _roundtrip(result)
        # One cell per grid point, each carrying a rehydratable run.
        assert len(result.cells) == 3  # aj x {2,4} + baseline
        run = result.scheme_run("aj", distance=4)
        assert run.scheme == "aj-4"
        assert run.result.counters.cycles > 0
        cycles = result.cycles()
        assert set(cycles) == {
            ("aj", 2, 1), ("aj", 4, 1), ("baseline", None, 1)
        }

    def test_missing_cell_raises_keyerror(self):
        service = TuningService()
        result = api.sweep(
            "micro-tiny", "tiny", service=service, **self.GRID
        )
        with pytest.raises(KeyError):
            result.cell("aj", distance=99)

    def test_sweep_cells_match_single_runs(self):
        """Batched sweep cells are bit-identical with the sequential
        single-config API on the same configuration."""
        service = TuningService()
        result = api.sweep(
            "micro-tiny", "tiny", service=service,
            schemes=("aj",), distances=(4,), cache_scales=(1,),
        )
        single = api.run(
            "micro-tiny", "tiny", scheme="aj", distance=4,
            service=TuningService(),
        )
        swept = result.scheme_run("aj", distance=4)
        assert swept.result.value == single.value
        assert swept.result.counters.as_dict() == dict(single.counters)

    def test_sweep_builds_once_and_isolates_cells(self, monkeypatch):
        """A fresh sweep builds its workload once and gives every cell
        (and every profile) a private clone: cell results equal single
        runs on a fresh service, and no two cells share a value list."""
        from dataclasses import replace

        import repro.service.api as service_api
        from repro.service.api import run_to_payload
        from repro.workloads.hashjoin import HashJoinWorkload

        builds = []
        real_build = HashJoinWorkload._build

        def counting_build(self):
            builds.append(self)
            return real_build(self)

        monkeypatch.setattr(HashJoinWorkload, "_build", counting_build)
        batches = []
        real_run_batch = service_api.run_batch

        def capturing_run_batch(cells, **kwargs):
            batches.append(list(cells))
            return real_run_batch(cells, **kwargs)

        monkeypatch.setattr(service_api, "run_batch", capturing_run_batch)

        service = TuningService()
        result = api.sweep(
            "HJ8-tiny", "tiny", service=service,
            schemes=("baseline", "aj", "apt-get"), distances=(4, 8),
            cache_scales=(1, 2),
        )
        assert len(builds) == 1
        assert len(result.cells) == 8  # 2 baseline + 4 aj + 2 apt-get

        batch_cells = [cell for batch in batches for cell in batch]
        assert len(batch_cells) == 8
        assert len({id(cell.module) for cell in batch_cells}) == 8
        lists = [
            segment.values
            for cell in batch_cells
            for segment in cell.space.segments()
        ]
        assert len({id(values) for values in lists}) == len(lists)

        monkeypatch.undo()
        for cell in result.cells:
            config = service.config
            if cell["cache_scale"] != 1:
                config = replace(
                    config, memory=config.memory.scaled(cell["cache_scale"])
                )
            alone = TuningService(machine_config=config).run(
                "HJ8-tiny", "tiny", scheme=cell["scheme"],
                distance=cell["distance"] or 32,
            )
            assert cell["run"]["value"] == alone.result.value, cell
            assert cell["run"]["counters"] == (
                alone.result.counters.as_dict()
            ), cell
            assert cell["run"] == run_to_payload(alone), cell

    def test_cached_sweep_digests_nothing_and_builds_nothing(
        self, monkeypatch
    ):
        """Answering a sweep from the in-memory cache computes no config
        or key digest and builds no workload (counted calls)."""
        import repro.service.store as store
        from repro.workloads.base import Workload

        service = TuningService()
        request = api.SweepRequest(
            workload="micro-tiny", scale="tiny",
            schemes=("baseline", "aj", "apt-get"), distances=(2, 4),
            cache_scales=(1, 2),
        )
        first = api.execute(request, service=service)
        assert first.execution["computed_cells"] == 8

        calls = []
        real_digest = store._digest_config
        real_key_digest = store.CacheKey.digest
        real_build = Workload.build
        monkeypatch.setattr(
            store, "_digest_config",
            lambda config: calls.append("config") or real_digest(config),
        )
        monkeypatch.setattr(
            store.CacheKey, "digest",
            lambda key: calls.append("key") or real_key_digest(key),
        )
        monkeypatch.setattr(
            Workload, "build",
            lambda self: calls.append("build") or real_build(self),
        )
        for _ in range(3):
            again = api.execute(request, service=service)
            assert again.execution["cached_cells"] == 8
            assert [c["run"] for c in again.cells] == [
                c["run"] for c in first.cells
            ]
        assert calls == []

    def test_batched_sweep_cells_match_single_runs(self):
        """Every scheme's cells run in one batched pass, and each cell's
        full run payload equals that cell computed alone on a fresh
        service with the same (cache-scaled) machine config."""
        from dataclasses import replace

        from repro.service.api import run_to_payload

        service = TuningService()
        result = api.sweep(
            "micro-tiny", "tiny", service=service,
            schemes=("baseline", "aj", "apt-get"), distances=(2, 4),
            cache_scales=(1, 2),
        )
        assert len(result.cells) == 8  # 2 baseline + 4 aj + 2 apt-get
        assert all(group["batched"] for group in result.execution["groups"])
        for cell in result.cells:
            assert cell["batched"] is True, cell
            config = service.config
            if cell["cache_scale"] != 1:
                config = replace(
                    config, memory=config.memory.scaled(cell["cache_scale"])
                )
            alone = TuningService(machine_config=config).run(
                "micro-tiny", "tiny", scheme=cell["scheme"],
                distance=cell["distance"] or 32,
            )
            assert cell["run"] == run_to_payload(alone), cell["scheme"]

    def test_sweep_cells_share_artifacts_with_single_runs(self, tmp_path):
        """Per-cell artifacts reuse the sequential run keys: a sweep
        primes the cache for single runs and vice versa."""
        service = TuningService(cache_dir=tmp_path)
        api.run(
            "micro-tiny", "tiny", scheme="aj", distance=4, service=service
        )
        payload = service.sweep(
            "micro-tiny", "tiny",
            schemes=("aj",), distances=(4, 8), cache_scales=(1,),
        )
        by_distance = {cell["distance"]: cell for cell in payload["cells"]}
        assert by_distance[4]["cached"]  # served from the single run
        assert not by_distance[8]["cached"]

    def test_sweep_dedup_key_is_order_insensitive(self):
        service = TuningService()
        a = api.SweepRequest(
            workload="w", schemes=("baseline", "aj"),
            distances=(8, 2), cache_scales=(2, 1),
        )
        b = api.SweepRequest(
            workload="w", schemes=("aj", "baseline"),
            distances=(2, 8, 8), cache_scales=(1, 2),
        )
        assert service.request_key(a) == service.request_key(b)
        different = api.SweepRequest(
            workload="w", schemes=("baseline", "aj"),
            distances=(8, 4), cache_scales=(2, 1),
        )
        assert service.request_key(a) != service.request_key(different)

    def test_second_sweep_is_fully_cached(self, tmp_path):
        first = TuningService(cache_dir=tmp_path)
        first.sweep("micro-tiny", "tiny", **self.GRID)
        warm = TuningService(cache_dir=tmp_path)
        payload = warm.sweep("micro-tiny", "tiny", **self.GRID)
        assert payload["execution"]["computed_cells"] == 0
        assert payload["execution"]["cached_cells"] == len(payload["cells"])
        assert all(cell["cached"] for cell in payload["cells"])


class TestLegacyNameKeywordRemoved:
    """The pre-v1 ``name=`` shims are retired: hard errors, not warnings."""

    def test_name_keyword_raises_with_migration_hint(self):
        service = TuningService()
        with pytest.raises(ValueError, match="pass workload="):
            service.profile(name="micro-tiny", scale="tiny")
        with pytest.raises(ValueError, match="legacy name="):
            service.baseline(name="micro-tiny", scale="tiny")

    def test_error_names_the_replacement_call(self):
        with pytest.raises(ValueError, match="'micro-tiny'"):
            TuningService().profile(name="micro-tiny")

    def test_name_and_workload_together_rejected(self):
        with pytest.raises(ValueError, match="name="):
            TuningService().profile("micro-tiny", name="micro-tiny")

    def test_workload_missing_rejected(self):
        with pytest.raises(TypeError, match="workload"):
            TuningService().profile()

    def test_no_deprecation_warning_machinery_left(self):
        import warnings

        service = TuningService()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run = service.baseline(workload="micro-tiny", scale="tiny")
        assert run.scheme == "baseline"


class TestEngineAwareCacheKeys:
    def test_two_engines_share_one_cache_dir(self, tmp_path):
        """Engine-aware keys: fast and reference runs in the same cache
        directory must produce distinct artifacts (no clobbering), and a
        rehydrating service must hit both."""
        first = TuningService(cache_dir=tmp_path)
        fast = first.run("micro-tiny", "tiny", engine="fast")
        runs_after_fast = first.store.stats()["by_kind"]["run"]
        reference = first.run("micro-tiny", "tiny", engine="reference")
        runs_after_both = first.store.stats()["by_kind"]["run"]
        # Run artifacts only: the fast run also leaves a code-cache
        # entry, which the reference interpreter has no use for.
        assert runs_after_fast == 1
        assert runs_after_both == 2 * runs_after_fast
        # Bit-identical engines: same payload under different keys.
        assert (
            fast.result.counters.as_dict()
            == reference.result.counters.as_dict()
        )

        warm = TuningService(cache_dir=tmp_path)
        warm.run("micro-tiny", "tiny", engine="fast")
        warm.run("micro-tiny", "tiny", engine="reference")
        counters = warm.metrics.counters()
        assert counters.get("cache.hits", 0) == 2
        assert counters.get("cache.misses", 0) == 0

    def test_keys_name_engine_and_mem_fingerprint(self):
        service = TuningService()
        key = service._key("run", "w", "tiny", scheme="baseline")
        params = dict(key.params)
        assert params["engine"] == service.config.engine
        assert isinstance(params["mem"], str) and len(params["mem"]) >= 8

    def test_mem_geometry_changes_key(self):
        from dataclasses import replace

        from repro.machine.config import MachineConfig, paper_like_memory

        base = TuningService()
        scaled = TuningService(
            machine_config=MachineConfig(memory=paper_like_memory().scaled(4))
        )
        key_a = base._key("run", "w", "tiny", scheme="baseline")
        key_b = scaled._key("run", "w", "tiny", scheme="baseline")
        assert key_a != key_b
        assert dict(key_a.params)["mem"] != dict(key_b.params)["mem"]


class TestTopLevelReExports:
    def test_v1_surface_importable_from_repro(self):
        import repro

        for name in (
            "ProfileRequest", "RunRequest", "SiteReportRequest",
            "SuiteRequest", "RunResult", "execute", "get_service",
            "TuningService", "ENGINES", "API_VERSION",
        ):
            assert hasattr(repro, name), name
