"""Integration tests for the TuningService façade: cache-backed
parallel suite comparison, determinism, failure isolation, and the CLI
surface (`experiment --jobs/--cache-dir`, `cache stats|clear`)."""

import json

import pytest

import repro.api as api
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


class TestSimulationEntries:
    """Runs that simulate the same program under the same config share
    one simulation (the internal ``sim`` entries); every result equals
    a fresh service's."""

    def test_baseline_after_profile_simulates_nothing(self, machine_runs):
        service = TuningService()
        service.profile("HJ8-tiny", "tiny")
        del machine_runs[:]
        baseline = service.run("HJ8-tiny", "tiny", scheme="baseline")
        assert machine_runs == []
        fresh = TuningService().run("HJ8-tiny", "tiny", scheme="baseline")
        assert service_api.run_to_payload(baseline) == (
            service_api.run_to_payload(fresh)
        )
        # Counted apart from the request-artifact cache.
        assert service.metrics.get("sim.hits") == 1
        assert service.metrics.get("cache.hits") == 0

    def test_forced_site_injecting_plain_code_simulates_nothing(
        self, machine_runs
    ):
        # HJ8-tiny's hints already sit on the outer site; forcing it
        # rewrites the hint JSON but injects the same code.
        service = TuningService()
        service.run("HJ8-tiny", "tiny", scheme="apt-get")
        del machine_runs[:]
        forced = service.run(
            "HJ8-tiny", "tiny", scheme="apt-get", site="outer"
        )
        assert machine_runs == []
        fresh = TuningService().run(
            "HJ8-tiny", "tiny", scheme="apt-get", site="outer"
        )
        assert service_api.run_to_payload(forced) == (
            service_api.run_to_payload(fresh)
        )

    def test_entries_never_cross_engines(self, machine_runs):
        # translate runs code of its own: turbo shares none of its
        # entries (``fast`` does; see TestFastSharesTurboSimulations).
        service = TuningService()
        service.profile("HJ8-tiny", "tiny", engine="translate")
        del machine_runs[:]
        turbo = service.run(
            "HJ8-tiny", "tiny", scheme="baseline", engine="turbo"
        )
        assert len(machine_runs) == 1
        assert machine_runs[0].engine == "turbo"
        assert service.metrics.get("sim.hits") == 0
        fresh = TuningService().run(
            "HJ8-tiny", "tiny", scheme="baseline", engine="turbo"
        )
        assert service_api.run_to_payload(turbo) == (
            service_api.run_to_payload(fresh)
        )

    def test_disk_entry_answers_a_second_service_of_its_config_only(
        self, tmp_path, machine_runs
    ):
        from dataclasses import replace

        from repro.machine.config import MachineConfig

        TuningService(cache_dir=tmp_path).profile("HJ8-tiny", "tiny")
        del machine_runs[:]
        second = TuningService(cache_dir=tmp_path)
        second.run("HJ8-tiny", "tiny", scheme="baseline")
        assert machine_runs == []
        assert second.metrics.get("sim.hits") == 1
        assert second.store.stats()["by_kind"]["sim"] == 1

        config = MachineConfig()
        halved = TuningService(
            cache_dir=tmp_path,
            machine_config=replace(config, memory=config.memory.scaled(2)),
        )
        halved.run("HJ8-tiny", "tiny", scheme="baseline")
        assert len(machine_runs) == 1
        assert halved.metrics.get("sim.hits") == 0

    def test_suite_jobs_return_their_entries(self, machine_runs):
        service = TuningService(jobs=2)
        service.compare_suite("tiny", names=("micro-tiny",))
        # baseline, profile (same program as the baseline), aj, apt-get.
        assert service.store.stats()["by_kind"]["sim"] == 3
        del machine_runs[:]
        service.run("micro-tiny", "tiny", scheme="aj", distance=16)
        assert len(machine_runs) == 1
        service.run("micro-tiny", "tiny", scheme="apt-get", site="inner")
        assert len(machine_runs) == 1  # micro-tiny's hint is inner already


class TestFastSharesTurboSimulations:
    """``fast`` runs turbo's compiled form, so the entries a simulation
    computes (``sim``, ``profile``, ``lbr``) are shared by the two names,
    in either order; request keys and results keep the requested name."""

    REQUESTS = {
        "profile": lambda engine: api.ProfileRequest(
            workload="micro-tiny", scale="tiny", engine=engine
        ),
        "baseline": lambda engine: api.RunRequest(
            workload="micro-tiny", scale="tiny", engine=engine
        ),
        "apt-get": lambda engine: api.RunRequest(
            workload="micro-tiny", scale="tiny", scheme="apt-get",
            engine=engine,
        ),
        "aj": lambda engine: api.RunRequest(
            workload="micro-tiny", scale="tiny", scheme="aj", distance=8,
            engine=engine,
        ),
    }

    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    @pytest.mark.parametrize(
        "first, second", [("fast", "turbo"), ("turbo", "fast")]
    )
    def test_second_name_simulates_nothing(
        self, kind, first, second, machine_runs
    ):
        service = TuningService()
        make = self.REQUESTS[kind]
        request = make(second)
        assert service.request_key(make(first)).digest() != (
            service.request_key(request).digest()
        )
        service.execute(make(first))
        del machine_runs[:]
        sim_hits = service.metrics.get("sim.hits") or 0
        cache_hits = service.metrics.get("cache.hits") or 0
        sim_misses = service.metrics.get("sim.misses") or 0
        result = service.execute(request)
        assert machine_runs == []
        assert result.engine == second
        assert (service.metrics.get("sim.misses") or 0) == sim_misses
        if kind == "profile":
            # The shared profile entry answers it: no simulation lookup.
            assert service.metrics.get("cache.hits") == cache_hits + 1
        else:
            assert service.metrics.get("sim.hits") == sim_hits + 1
        fresh = api.execute(request, service=TuningService())
        assert result.to_json() == fresh.to_json()

    @pytest.mark.parametrize("other", ["translate", "reference"])
    @pytest.mark.parametrize("kind", sorted(service_api.SIMULATED_KINDS))
    def test_only_fast_shares_turbo_keys(self, kind, other):
        from repro.machine.config import MachineConfig

        def key(engine):
            return service_api.artifact_key(
                kind, "micro-tiny", "tiny", MachineConfig(engine=engine)
            )

        assert key("fast") == key("turbo")
        assert key(other) != key("turbo")
        assert dict(key("fast").params)["engine"] == "turbo"


@pytest.fixture()
def sample_decodes(monkeypatch):
    """Every ``LBREntry`` built while decoding a stored profile's
    samples (the name ``ExecutionProfile.from_dict`` builds them by)."""
    import repro.profiling.profile as profile_module

    made = []
    real = profile_module.LBREntry

    def counting(*fields):
        made.append(fields)
        return real(*fields)

    monkeypatch.setattr(profile_module, "LBREntry", counting)
    return made


class TestHintReadersSkipSamples:
    """Hint readers read the small ``profile`` entry alone; the LBR
    samples live in their own ``lbr`` entry and are decoded only for a
    caller that reads them."""

    def test_fig8_hint_reads_decode_no_samples(
        self, monkeypatch, sample_decodes
    ):
        from repro.experiments import fig8

        monkeypatch.setattr(fig8, "scale_suite", lambda scale: ["HJ8-tiny"])
        configure_service()
        fig8.run("tiny")
        fig8.run("tiny")
        assert sample_decodes == []
        # The positive control: the samples are there to decode.
        profile, _ = get_service().profile("HJ8-tiny", "tiny")
        assert profile.lbr_samples and len(sample_decodes) > 0

    def test_measure_apt_get_decodes_no_samples(self, sample_decodes):
        service = TuningService()
        profile, hints = service.profile("micro-tiny", "tiny")
        assert profile.lbr_samples and sample_decodes
        del sample_decodes[:]
        run = service.run("micro-tiny", "tiny", scheme="apt-get")
        assert sample_decodes == []
        assert run.hints.to_json() == hints.to_json()

    def test_compare_suite_decodes_no_samples_until_profile_read(
        self, sample_decodes
    ):
        names = ["micro-tiny", "BFS-tiny"]
        service = TuningService()
        service.compare_suite("tiny", names=names)
        warm = service.compare_suite("tiny", names=names)
        assert sample_decodes == []
        for name in names:
            profile = warm[name].runs["apt-get"].profile
            assert profile.load_miss_counts == (
                service.profile(name, "tiny")[0].load_miss_counts
            )
        assert sample_decodes

    def test_profile_reads_samples_from_their_own_entry(self):
        service = TuningService()
        profile, hints = service.profile("micro-tiny", "tiny")
        config = service.config
        entry = service.store.get(
            service._key("profile", "micro-tiny", "tiny", config)
        )
        assert set(entry) == {"counters", "hints"}
        samples = service.store.get(
            service._key("lbr", "micro-tiny", "tiny", config)
        )
        assert samples == json.loads(profile.to_json())
        assert entry["hints"] == json.loads(hints.to_json())

    def test_old_shape_profile_entry(self, tmp_path, machine_runs):
        """A profile entry written before the split carries its samples
        inline: it answers hint readers as it is, and a sample reader
        re-profiles and rewrites both entries."""
        from repro import api as api_v1

        cold = TuningService(cache_dir=tmp_path)
        fresh = api_v1.execute(
            api_v1.ProfileRequest(workload="micro-tiny", scale="tiny"),
            service=cold,
        )
        config = cold.config
        profile_key = cold._key("profile", "micro-tiny", "tiny", config)
        lbr_key = cold._key("lbr", "micro-tiny", "tiny", config)
        cold.store.put(
            profile_key,
            {"profile": fresh.profile["profile"],
             "counters": fresh.profile["counters"],
             "hints": fresh.hints},
        )
        cold.store._entry_path(lbr_key).unlink()

        service = TuningService(cache_dir=tmp_path)
        del machine_runs[:]
        hints = service.analyze("micro-tiny", "tiny")
        assert hints.to_dict() == fresh.hints
        assert machine_runs == []
        again = api_v1.execute(
            api_v1.ProfileRequest(workload="micro-tiny", scale="tiny"),
            service=service,
        )
        assert len(machine_runs) == 1
        assert again.to_json() == fresh.to_json()
        assert set(service.store.get(profile_key)) == {"counters", "hints"}
        assert service.store.get(lbr_key) == fresh.profile["profile"]


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
