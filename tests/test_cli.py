"""Tests for the apt-get-prefetch command line."""

import json

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "BFS-LBE" in out
    assert "micro-tiny" in out
    assert "fig6" in out


def test_run_baseline(capsys):
    assert main(["run", "--workload", "micro-tiny"]) == 0
    out = capsys.readouterr().out
    assert "ipc" in out
    assert "[baseline]" in out


def test_run_aj(capsys):
    assert main(
        ["run", "--workload", "micro-tiny", "--scheme", "aj", "--distance", "8"]
    ) == 0
    out = capsys.readouterr().out
    assert "A&J injected" in out


def test_profile_analyze_run_workflow(tmp_path, capsys):
    profile_path = tmp_path / "p.json"
    hints_path = tmp_path / "h.json"
    assert main(
        ["profile", "--workload", "micro-tiny", "-o", str(profile_path)]
    ) == 0
    assert profile_path.exists()
    assert main(
        [
            "analyze",
            "--workload",
            "micro-tiny",
            "--profile",
            str(profile_path),
            "-o",
            str(hints_path),
        ]
    ) == 0
    hints = json.loads(hints_path.read_text())
    assert hints["hints"]
    assert main(
        [
            "run",
            "--workload",
            "micro-tiny",
            "--scheme",
            "apt-get",
            "--hints",
            str(hints_path),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "APT-GET injected" in out


def test_run_apt_get_self_profiling(capsys):
    assert main(["run", "--workload", "micro-tiny", "--scheme", "apt-get"]) == 0
    out = capsys.readouterr().out
    assert "profiled:" in out


def test_experiment_with_json_output(tmp_path, capsys):
    out_path = tmp_path / "t1.json"
    assert main(
        ["experiment", "table1", "--scale", "tiny", "-o", str(out_path)]
    ) == 0
    payload = json.loads(out_path.read_text())
    assert payload["experiment"] == "table1"
    assert payload["rows"]


def test_experiment_engine_reaches_every_machine(monkeypatch, capsys):
    """``--engine`` reaches the runner helpers' uncached runs (fig12
    profiles and measures directly), not only the service's cache."""
    import repro.service.api as service_api
    from repro.machine.machine import Machine

    monkeypatch.setattr(service_api, "_SERVICE", None)
    engines = []
    original = Machine.__init__

    def recording(machine, *args, **kwargs):
        original(machine, *args, **kwargs)
        engines.append(machine.engine)

    monkeypatch.setattr(Machine, "__init__", recording)
    assert main(
        ["experiment", "fig12", "--scale", "tiny", "--engine", "turbo"]
    ) == 0
    assert engines and set(engines) == {"turbo"}


def test_experiment_unknown(capsys):
    assert main(["experiment", "fig99", "--scale", "tiny"]) == 2


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        main(["run", "--workload", "nope"])


def test_disasm_baseline(capsys):
    from repro.cli import main as _main

    assert _main(["disasm", "--workload", "micro-tiny"]) == 0
    out = capsys.readouterr().out
    assert "define main()" in out
    assert "prefetch" not in out


def test_disasm_after_aj(capsys):
    from repro.cli import main as _main

    assert _main(
        ["disasm", "--workload", "micro-tiny", "--scheme", "aj"]
    ) == 0
    out = capsys.readouterr().out
    assert "prefetch [" in out


def test_run_with_raw_events(capsys):
    assert main(["run", "--workload", "micro-tiny", "--events"]) == 0
    out = capsys.readouterr().out
    assert "raw events:" in out
    assert "offcore_all_data_rd" in out


def test_list_includes_new_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("ideal", "profiling_overhead", "fig3", "table4"):
        assert name in out


def test_experiment_ideal_tiny(capsys):
    assert main(["experiment", "ideal", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "ideal speedup" in out


def test_run_surfaces_prefetch_counters(capsys):
    assert main(
        ["run", "--workload", "micro-tiny", "--scheme", "aj", "--distance", "8"]
    ) == 0
    out = capsys.readouterr().out
    assert "software prefetches:" in out
    assert "sw_prefetch_issued" in out
    assert "prefetch_accuracy" in out
    assert "prefetch_timeliness" in out


def test_run_baseline_omits_prefetch_block(capsys):
    assert main(["run", "--workload", "micro-tiny"]) == 0
    out = capsys.readouterr().out
    assert "software prefetches:" not in out


def test_run_with_trace_export(tmp_path, capsys):
    from repro.obs.timeline import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    assert main(
        [
            "run",
            "--workload",
            "micro-tiny",
            "--scheme",
            "apt-get",
            "--trace",
            str(trace_path),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "prefetch span(s)" in out
    assert "timely%" in out  # per-site summary table
    document = json.loads(trace_path.read_text())
    assert validate_chrome_trace(document) == []
    assert document["otherData"]["workload"] == "micro-low-i64"


def test_run_engine_flag(capsys):
    for engine in ("fast", "translate", "reference"):
        assert main(
            ["run", "--workload", "micro-tiny", "--scale", "tiny",
             "--engine", engine]
        ) == 0
    # The deprecated alias still parses (argparse accepts it as a choice).
    assert main(
        ["run", "--workload", "micro-tiny", "--scale", "tiny",
         "--engine", "interpret"]
    ) == 0


def test_engine_flag_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "micro-tiny", "--engine", "jit"])


def test_profile_and_disasm_take_engine_and_scale(tmp_path, capsys):
    profile_path = tmp_path / "p.json"
    assert main(
        ["profile", "--workload", "micro-tiny", "--scale", "tiny",
         "--engine", "reference", "-o", str(profile_path)]
    ) == 0
    assert profile_path.exists()
    assert main(
        ["disasm", "--workload", "micro-tiny", "--scale", "tiny",
         "--engine", "fast"]
    ) == 0


def test_engines_match_through_cli(capsys):
    """The --engine knob must not change reported numbers."""
    outputs = {}
    for engine in ("fast", "reference"):
        assert main(
            ["run", "--workload", "micro-tiny", "--scale", "tiny",
             "--engine", engine]
        ) == 0
        outputs[engine] = capsys.readouterr().out
    assert outputs["fast"] == outputs["reference"]


def test_report_legacy_fixed_distance_alias(capsys):
    import repro.service.api as service_api

    saved = service_api._SERVICE
    try:
        service_api.configure_service()
        assert main(
            ["report", "--workload", "micro-tiny", "--sites",
             "--scale", "tiny", "--fixed-distance", "6"]
        ) == 0
    finally:
        service_api._SERVICE = saved
    out = capsys.readouterr().out
    assert "fixed distance 6" in out


def test_report_sites(capsys):
    import repro.service.api as service_api

    saved = service_api._SERVICE
    try:
        service_api.configure_service()  # fresh in-memory cache
        assert main(
            ["report", "--workload", "micro-tiny", "--sites", "--scale", "tiny"]
        ) == 0
    finally:
        service_api._SERVICE = saved
    out = capsys.readouterr().out
    assert "Eq-1 distances" in out
    assert "fixed distance 4" in out
    assert "overall timely fraction" in out
    assert "timely%" in out


def test_parse_sweep_axes():
    from repro.cli import parse_sweep_axes

    axes = parse_sweep_axes(
        ["schemes=aj,baseline", "distances=4,8", "cache-scales=1,2"]
    )
    assert axes == {
        "schemes": ("aj", "baseline"),
        "distances": (4, 8),
        "cache_scales": (1, 2),
    }
    # Repeating an axis extends it; no flags means no axes.
    assert parse_sweep_axes(["distances=4", "distances=8"]) == {
        "distances": (4, 8)
    }
    assert parse_sweep_axes(None) == {}
    with pytest.raises(ValueError, match="bad --sweep flag"):
        parse_sweep_axes(["colours=red"])
    with pytest.raises(ValueError, match="names no values"):
        parse_sweep_axes(["distances="])
    with pytest.raises(ValueError, match="must be ints"):
        parse_sweep_axes(["distances=four"])


def test_sweep_command(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    assert main([
        "sweep", "--workload", "micro-tiny", "--scale", "tiny",
        "--sweep", "schemes=aj,baseline", "--sweep", "distances=2,4",
        "--cache-dir", str(tmp_path / "cache"), "--output", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "aj" in out and "baseline" in out
    # Source column: the two aj cells ran in one batched pass; the lone
    # baseline cell has nothing to batch with and is replayed.
    rows = [line.split() for line in out.splitlines() if line.startswith("  aj ")]
    assert [row[-1] for row in rows] == ["batch", "batch"]
    assert "aj:batch" in out
    assert "baseline:replay (single-cell" in out
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "SweepResult"
    assert len(payload["cells"]) == 3

    # Re-running against the same cache dir serves every cell cached.
    assert main([
        "sweep", "--workload", "micro-tiny", "--scale", "tiny",
        "--sweep", "schemes=aj,baseline", "--sweep", "distances=2,4",
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    out = capsys.readouterr().out
    assert "cache" in out


def test_sweep_command_bad_axis_exits_2(capsys):
    assert main([
        "sweep", "--workload", "micro-tiny", "--scale", "tiny",
        "--sweep", "colours=red",
    ]) == 2
    assert "bad --sweep flag" in capsys.readouterr().err


def test_report_sweep_table(capsys):
    import repro.service.api as service_api

    saved = service_api._SERVICE
    try:
        service_api.configure_service()
        assert main([
            "report", "--workload", "micro-tiny", "--scale", "tiny",
            "--sweep", "schemes=aj", "--sweep", "distances=2,4",
        ]) == 0
    finally:
        service_api._SERVICE = saved
    out = capsys.readouterr().out
    assert "sweep on engine" in out
    assert "aj" in out
