"""Integration tests for the TuningService façade: cache-backed
parallel suite comparison, determinism, failure isolation, and the CLI
surface (`experiment --jobs/--cache-dir`, `cache stats|clear`)."""

import json

import pytest

import repro.service.api as service_api
from repro.cli import main
from repro.service.api import TuningService, configure_service, get_service


@pytest.fixture(autouse=True)
def _isolate_global_service():
    """Tests below reconfigure the process-global service; restore it."""
    saved = service_api._SERVICE
    yield
    service_api._SERVICE = saved


def suite_table(comparisons) -> str:
    """Canonical, full-precision rendering of a suite comparison."""
    return json.dumps(
        {
            name: {
                "error": comp.error,
                "baseline_cycles": comp.runs["baseline"].cycles,
                "aj_speedup": comp.speedup("aj"),
                "apt_speedup": comp.speedup("apt-get"),
                "apt_instructions": (
                    comp.runs["apt-get"].result.counters.instructions
                ),
                "apt_mpki": comp.mpki("apt-get"),
            }
            if not comp.error
            else {"error": comp.error}
            for name, comp in comparisons.items()
        },
        sort_keys=True,
    )


class TestParallelDeterminism:
    def test_jobs1_and_jobs4_byte_identical(self):
        sequential = TuningService(jobs=1).compare_suite("tiny")
        parallel = TuningService(jobs=4).compare_suite("tiny")
        assert suite_table(sequential) == suite_table(parallel)

    def test_cold_then_warm_identical_with_cache_hits(self, tmp_path):
        cold_service = TuningService(cache_dir=tmp_path, jobs=2)
        cold = cold_service.compare_suite("tiny")
        assert cold_service.metrics.get("cache.hits") == 0
        # Fresh service over the same store: a second process, in effect.
        warm_service = TuningService(cache_dir=tmp_path, jobs=2)
        warm = warm_service.compare_suite("tiny")
        assert suite_table(cold) == suite_table(warm)
        assert warm_service.metrics.get("cache.hits") > 0
        assert warm_service.metrics.get("cache.misses") == 0
        assert warm_service.metrics.get("service.jobs") == 0  # no recompute
        # Both runs folded their counters into the persistent metrics.
        persisted = warm_service.store.read_metrics()
        assert persisted["cache.hits"] >= warm_service.metrics.get("cache.hits")


class TestFailureIsolation:
    def test_raising_worker_yields_error_row_rest_completes(self):
        service = TuningService(jobs=2, retries=0, backoff=0.0)
        comparisons = service.compare_suite(
            "tiny", names=["micro-tiny", "no-such-workload"]
        )
        failed = comparisons["no-such-workload"]
        assert failed.error and "no-such-workload" in failed.error
        assert failed.runs == {}
        survivor = comparisons["micro-tiny"]
        assert survivor.error is None
        assert survivor.speedup("apt-get") > 0
        assert service.metrics.get("service.errors") == 1
        assert service.metrics.get("service.job_failures") == 1

    def test_error_row_renders_in_fig6_table(self):
        configure_service(retries=0, backoff=0.0)
        service = get_service()
        # Seed the global service's store with a failed workload's row.
        comparisons = service.compare_suite(
            "tiny", names=["micro-tiny", "no-such-workload"]
        )
        from repro.experiments.result import format_table

        rows = []
        for name, comp in comparisons.items():
            rows.append(
                [name, "error", "error"]
                if comp.error
                else [name, 1.0, round(comp.speedup("apt-get"), 3)]
            )
        text = format_table(["workload", "aj", "apt"], rows)
        assert "no-such-workload" in text and "error" in text

    def test_timed_out_worker_yields_error_row_and_metric(self):
        service = TuningService(jobs=2, timeout=0.05, retries=0, backoff=0.0)
        comparisons = service.compare_suite("tiny", names=["micro-tiny"])
        failed = comparisons["micro-tiny"]
        assert failed.error and "timed out" in failed.error
        assert service.metrics.get("service.job_timeouts") >= 1
        assert service.metrics.get("service.errors") == 1


class TestFreshObjects:
    def test_suite_cache_hits_are_not_aliased(self):
        service = TuningService()
        first = service.compare_suite("tiny", names=["micro-tiny"])
        apt = first["micro-tiny"].runs["apt-get"]
        # The historical hazard: callers mutate cached runs in place.
        apt.profile = None
        apt.result.counters.cycles = -1.0
        for hint in apt.hints or []:
            hint.distance = -7
        second = service.compare_suite("tiny", names=["micro-tiny"])
        fresh = second["micro-tiny"].runs["apt-get"]
        assert fresh.profile is not None
        assert fresh.result.counters.cycles > 0
        assert all(h.distance != -7 for h in fresh.hints or [])

    def test_analyze_matches_profile_hints(self):
        service = TuningService()
        _, hints = service.profile("micro-tiny", "tiny")
        analyzed = service.analyze("micro-tiny", "tiny")
        assert analyzed.to_json() == hints.to_json()
        assert analyzed is not hints


class TestSiteReport:
    def test_cached_and_persisted(self, tmp_path):
        service = TuningService(cache_dir=tmp_path)
        first = service.site_report("micro-tiny", scale="tiny")
        assert first, "no sites traced"
        hits_before = service.metrics.get("cache.hits")
        second = service.site_report("micro-tiny", scale="tiny")
        assert service.metrics.get("cache.hits") > hits_before
        assert {k: v.to_dict() for k, v in first.items()} == {
            k: v.to_dict() for k, v in second.items()
        }
        # Persisted under the "sites" artifact kind...
        assert service.store.stats()["by_kind"].get("sites") == 1
        # ...and readable by a brand-new service against the same dir.
        rehydrated = TuningService(cache_dir=tmp_path).site_report(
            "micro-tiny", scale="tiny"
        )
        assert {k: v.to_dict() for k, v in rehydrated.items()} == {
            k: v.to_dict() for k, v in first.items()
        }

    def test_feeds_metrics_registry(self):
        service = TuningService()
        reports = service.site_report("micro-tiny", scale="tiny")
        issued = sum(r.issued for r in reports.values())
        assert service.metrics.get("obs.prefetch.issued") == issued
        timely_hist = service.metrics.get("obs.site.timely_fraction")
        assert isinstance(timely_hist, dict)
        assert timely_hist["count"] >= 1

    def test_fixed_distance_variant_is_distinct(self):
        service = TuningService()
        eq1 = service.site_report("micro-tiny", scale="tiny")
        fixed = service.site_report(
            "micro-tiny", scale="tiny", fixed_distance=4
        )
        # Different artifact (different params), lower timeliness.
        def timely(reports):
            used = sum(r.used for r in reports.values())
            return (
                sum(r.timely for r in reports.values()) / used if used else 0
            )

        assert timely(eq1) > timely(fixed)


@pytest.fixture()
def machine_runs(monkeypatch):
    """Every ``Machine.run`` call made while the test runs."""
    from repro.machine.machine import Machine

    calls = []
    original = Machine.run

    def counting(machine, *args, **kwargs):
        calls.append(machine)
        return original(machine, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting)
    return calls


class TestHintOverrides:
    """``run(scheme="apt-get", hint_distance=..., site=...)``: the
    sensitivity studies' runs on the single-run cache."""

    def direct(self, service, hints):
        from repro.experiments.runner import run_with_hints
        from repro.workloads.registry import make_workload

        return run_with_hints(
            make_workload("HJ8-tiny", "tiny"), hints, config=service.config
        )

    @pytest.mark.parametrize(
        "overrides", [{"hint_distance": 4}, {"site": "inner"},
                      {"site": "outer"}],
    )
    def test_override_matches_direct_run_then_hits(
        self, overrides, machine_runs
    ):
        from repro.core.site import InjectionSite
        from repro.experiments.runner import (
            hints_with_distance,
            hints_with_site,
        )

        service = TuningService()
        _, hints = service.profile("HJ8-tiny", "tiny")
        if "site" in overrides:
            hints = hints_with_site(hints, InjectionSite(overrides["site"]))
        else:
            hints = hints_with_distance(hints, overrides["hint_distance"])
        direct = self.direct(service, hints)
        cached = service.run(
            "HJ8-tiny", "tiny", scheme="apt-get", **overrides
        )
        assert cached.result.value == direct.result.value
        assert cached.result.counters.as_dict() == (
            direct.result.counters.as_dict()
        )
        assert cached.hints.to_json() == hints.to_json()
        del machine_runs[:]
        hits = service.metrics.get("cache.hits")
        again = service.run(
            "HJ8-tiny", "tiny", scheme="apt-get", **overrides
        )
        assert machine_runs == []
        assert service.metrics.get("cache.hits") == hits + 1
        assert again.result.counters.as_dict() == (
            cached.result.counters.as_dict()
        )

    def test_overrides_get_distinct_keys(self):
        service = TuningService()
        plain = service.run("HJ8-tiny", "tiny", scheme="apt-get")
        runs = {
            repr(overrides): service.run(
                "HJ8-tiny", "tiny", scheme="apt-get", **overrides
            ).cycles
            for overrides in ({"hint_distance": 4}, {"hint_distance": 64},
                              {"site": "inner"})
        }
        assert len(set(runs.values()) | {plain.cycles}) == 4
        assert service.store.stats()["by_kind"]["run"] == 4

    def test_noop_override_answered_from_plain_artifact(self, machine_runs):
        # micro-tiny's one hint already sits on the inner site.
        service = TuningService()
        plain = service.run("micro-tiny", "tiny", scheme="apt-get")
        del machine_runs[:]
        forced = service.run(
            "micro-tiny", "tiny", scheme="apt-get", site="inner"
        )
        assert machine_runs == []
        assert forced.result.counters.as_dict() == (
            plain.result.counters.as_dict()
        )
        # Stored under its own key too: a warm pass records no miss.
        misses = service.metrics.get("cache.misses")
        service.run("micro-tiny", "tiny", scheme="apt-get", site="inner")
        assert service.metrics.get("cache.misses") == misses

    def test_plain_key_unchanged(self):
        from repro import api as api_v1

        service = TuningService()
        service.run("HJ8-tiny", "tiny", scheme="apt-get")
        key = service.request_key(
            api_v1.RunRequest(workload="HJ8-tiny", scale="tiny",
                              scheme="apt-get")
        )
        assert service.store.get(key) is not None
        assert [name for name, _ in key.params] == [
            "engine", "mem", "scheme"
        ]
        assert dict(key.params)["scheme"] == "apt-get"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheme": "apt-get", "site": "middle"},
            {"scheme": "apt-get", "hint_distance": 0},
            {"scheme": "aj", "hint_distance": 8},
            {"scheme": "baseline", "site": "inner"},
        ],
    )
    def test_bad_override_raises(self, kwargs, machine_runs):
        with pytest.raises(ValueError):
            TuningService().run("HJ8-tiny", "tiny", **kwargs)
        assert machine_runs == []


class TestEnvironmentDefaults:
    def test_get_service_reads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        monkeypatch.setenv("REPRO_JOBS", "3")
        service_api._SERVICE = None
        service = get_service()
        assert service.jobs == 3
        assert str(service.store.root).endswith("envcache")
        assert get_service() is service  # memoized


class TestCLI:
    def test_experiment_jobs_cache_dir_roundtrip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "experiment", "fig6", "--scale", "tiny",
            "--jobs", "2", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "fig6" in cold_out
        assert "cache:" in cold_out

        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        # Byte-identical table; only the trailing cache line differs.
        table = lambda out: out.split("cache:")[0]  # noqa: E731
        assert table(warm_out) == table(cold_out)

        def cache_line(out):
            line = next(l for l in out.splitlines() if l.startswith("cache:"))
            hits, misses, jobs, _ = (
                int(part.strip().split(" ")[0])
                for part in line.removeprefix("cache:").split(",")
            )
            return hits, misses, jobs

        assert cache_line(cold_out)[0] == 0  # cold: no hits
        warm_hits, warm_misses, warm_jobs = cache_line(warm_out)
        assert warm_hits > 0
        assert warm_misses == 0
        assert warm_jobs == 0  # served entirely from cache

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats_out = capsys.readouterr().out
        assert "entries:" in stats_out
        hits_line = next(
            line for line in stats_out.splitlines() if "cache.hits" in line
        )
        assert int(hits_line.split(":")[1]) > 0

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out
