"""Smoke tests for every experiment module at tiny scale, plus unit
tests for the result/report formatting and the shared runner."""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.result import ExperimentResult, format_table
from repro.experiments.runner import (
    geomean,
    hints_with_distance,
    hints_with_site,
    profile_workload,
    run_ainsworth_jones,
    run_apt_get,
    run_baseline,
    suite_comparison,
)
from repro.core.site import InjectionSite
from repro.workloads.registry import TINY_SUITE, make_workload


class TestResultContainer:
    def make(self):
        return ExperimentResult(
            experiment="figX",
            title="demo",
            headers=["name", "value"],
            rows=[["a", 1.5], ["b", 2.0]],
            summary={"geomean": 1.73},
            notes="note",
        )

    def test_to_text_contains_everything(self):
        text = self.make().to_text()
        assert "figX: demo" in text
        assert "geomean: 1.730" in text
        assert "note" in text
        assert "a" in text and "2.000" in text

    def test_column_and_row_lookup(self):
        result = self.make()
        assert result.column("value") == [1.5, 2.0]
        assert result.row_by("name", "b") == ["b", 2.0]
        assert result.row_by("name", "zz") is None

    def test_format_table_alignment(self):
        text = format_table(["h1", "h2"], [["aaaa", 1]])
        lines = text.splitlines()
        assert lines[0].index("h2") == lines[2].index("1")


class TestRunnerHelpers:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 4.0]) == pytest.approx(4.0)  # zeros skipped

    def test_hint_overrides(self):
        _, hints = profile_workload(make_workload("HJ8-tiny"))
        assert len(hints)
        overridden = hints_with_distance(hints, 3)
        assert all(h.distance == 3 for h in overridden)
        assert all(h.outer_distance == 3 for h in overridden)
        # Original untouched.
        assert any(h.distance != 3 for h in hints) or len(hints) == 0 or (
            hints.hints[0] is not overridden.hints[0]
        )
        forced = hints_with_site(hints, InjectionSite.INNER)
        assert all(h.site is InjectionSite.INNER for h in forced)
        forced_outer = hints_with_site(hints, InjectionSite.OUTER)
        assert all(h.site is InjectionSite.OUTER for h in forced_outer)
        assert all(h.outer_distance is not None for h in forced_outer)

    def test_scheme_runners(self):
        baseline = run_baseline(make_workload("micro-tiny"))
        aj = run_ainsworth_jones(make_workload("micro-tiny"), distance=16)
        assert baseline.scheme == "baseline"
        assert aj.report is not None
        assert aj.cycles < baseline.cycles  # prefetching helps the micro

    def test_run_apt_get_attaches_profile(self):
        run = run_apt_get(make_workload("micro-tiny"))
        assert run.profile is not None
        assert run.hints is not None
        assert run.report is not None

    def test_suite_comparison_cached(self):
        first = suite_comparison("tiny")
        second = suite_comparison("tiny")
        # Store-backed cache: identical measurements, fresh objects.
        assert first is not second
        assert set(first) == set(second)
        for name in first:
            assert first[name].runs["baseline"].cycles == (
                second[name].runs["baseline"].cycles
            )
            assert first[name].runs["apt-get"] is not (
                second[name].runs["apt-get"]
            )
        comparison = first["micro-tiny"]
        assert comparison.speedup("apt-get") > 0
        assert comparison.instruction_overhead("apt-get") >= 1.0
        assert comparison.mpki("baseline") > 0


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_experiment_runs_at_tiny_scale(name):
    result = ALL_EXPERIMENTS[name].run("tiny")
    assert result.experiment == name
    assert result.rows
    assert result.headers
    text = result.to_text()
    assert name in text


class TestFig4Histogram:
    def test_histogram_bins_and_masses(self):
        from repro.experiments import fig4

        bins = fig4.histogram("tiny", bins=20)
        assert bins
        latencies = [b for b, _ in bins]
        counts = [c for _, c in bins]
        assert latencies == sorted(latencies)
        assert all(c > 0 for c in counts)


class TestRunnerCaches:
    def test_cached_baseline_not_aliased(self):
        from repro.experiments.runner import cached_baseline

        first = cached_baseline("micro-tiny")
        second = cached_baseline("micro-tiny")
        assert first is not second
        assert first.cycles == second.cycles
        assert first.result.value == second.result.value

    def test_cached_profile_not_aliased(self):
        """Regression: lru_cache used to hand every caller the same
        mutable profile/hints — mutating one leaked into all others."""
        from repro.experiments.runner import cached_profile

        profile_a, hints_a = cached_profile("micro-tiny")
        profile_b, hints_b = cached_profile("micro-tiny")
        assert profile_a is not profile_b
        assert hints_a is not hints_b
        assert profile_a.load_miss_counts == profile_b.load_miss_counts
        assert len(hints_a) == len(hints_b)
        # Mutations of a cache hit must not poison later hits.
        profile_a.load_miss_counts.clear()
        for hint in hints_a:
            hint.distance = -1
        profile_c, hints_c = cached_profile("micro-tiny")
        assert profile_c.load_miss_counts == profile_b.load_miss_counts
        assert all(h.distance != -1 for h in hints_c)


class TestRepeatedRunsCached:
    """The sensitivity studies re-measure no run an earlier experiment
    already simulated: they share the service's single-run keys."""

    @pytest.fixture()
    def machine_runs(self, monkeypatch):
        import repro.service.api as service_api
        from repro.machine.machine import Machine

        monkeypatch.setattr(service_api, "_SERVICE", None)
        service_api.configure_service()
        calls = []
        original = Machine.run

        def counting(machine, *args, **kwargs):
            calls.append(machine)
            return original(machine, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", counting)
        return calls

    def test_fig9_after_fig8_runs_only_new_distances(self, machine_runs):
        from repro.experiments import fig8, fig9

        fig8.run("tiny")
        del machine_runs[:]
        fig9.run("tiny")
        # d=4 and d=16 for each of the five workloads; the LBR run and
        # d=64 come from fig8's cache entries.
        assert len(machine_runs) == 10

    def test_ideal_after_suite_runs_only_ideal_memory(self, machine_runs):
        from repro.experiments import ideal

        suite_comparison("tiny")
        del machine_runs[:]
        ideal.run("tiny")
        assert len(machine_runs) == len(TINY_SUITE)
        assert all(m.config.memory.ideal_prefetching for m in machine_runs)


class TestFormattingEdges:
    def test_large_floats_one_decimal(self):
        from repro.experiments.result import format_table

        text = format_table(["v"], [[12345.678]])
        assert "12345.7" in text

    def test_summary_rendering(self):
        from repro.experiments.result import format_table

        text = format_table(
            ["a"], [[1]], summary={"geomean": 1.23456}, notes="hello"
        )
        assert "geomean: 1.235" in text
        assert text.endswith("hello")
