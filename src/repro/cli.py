"""``apt-get-prefetch`` command line.

Mirrors the paper's workflow as subcommands:

* ``list``        — show available workloads and experiments;
* ``profile``     — run once with LBR/PEBS sampling, write a profile JSON
                    (the ``perf record`` step);
* ``analyze``     — turn a profile into a prefetch-hint file (Eq-1/Eq-2);
* ``run``         — run a workload under a scheme (baseline, the static
                    Ainsworth & Jones pass, or APT-GET end-to-end) and
                    print ``perf stat``-style results;
* ``sweep``       — measure a scheme × distance × cache-scale grid over
                    one workload in a single batched pass
                    (``--sweep axis=v1,v2,...``, repeatable);
* ``experiment``  — regenerate a paper table/figure (optionally in
                    parallel against a persistent artifact cache);
* ``cache``       — inspect or clear a tuning-service artifact cache;
* ``qa``          — generative differential fuzzing: ``fuzz`` random
                    programs through every engine/pass/tracing
                    combination, ``replay`` the regression corpus, or
                    ``shrink`` a failing case to a minimal program;
* ``serve``       — run the controller: durable job queue + HTTP front
                    end + ``N`` agent worker processes (see
                    docs/SERVICE.md);
* ``agent``       — run one standalone agent worker against an existing
                    queue directory (attach extra capacity from other
                    terminals or hosts sharing the filesystem);
* ``top``         — polling terminal status view of a queue: depth,
                    per-state job counts, agent liveness, and
                    span-derived latency percentiles;
* ``timeline``    — stitch a queue's service telemetry and any embedded
                    simulator traces into one Perfetto/Chrome-trace
                    JSON file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.aptget import AptGet, AptGetConfig
from repro.core.hints import HintSet
from repro.machine.config import ENGINE_ALIASES, ENGINES, MachineConfig
from repro.machine.machine import Machine
from repro.passes.ainsworth_jones import AinsworthJonesConfig, AinsworthJonesPass
from repro.passes.aptget_pass import AptGetPass
from repro.profiling.collect import collect_profile
from repro.profiling.profile import ExecutionProfile
from repro.workloads.registry import SUITE, TINY_SUITE, make_workload

_SCALES = ("tiny", "small", "full")


def _resolve_workload(args: argparse.Namespace):
    """One workload-resolution path for every subcommand: the normalized
    ``--workload``/``--scale`` flags name the instance."""
    return make_workload(args.workload, getattr(args, "scale", "small"))


def _machine_config(args: argparse.Namespace) -> Optional[MachineConfig]:
    """A MachineConfig honouring ``--engine`` (None -> session default)."""
    engine = getattr(args, "engine", None)
    if engine is None:
        return None
    return MachineConfig(engine=engine)


def _make_machine(module, space, args: argparse.Namespace) -> Machine:
    return Machine(module, space, config=_machine_config(args))


def _print_perf(result) -> None:
    summary = result.perf.summary()
    for key, value in summary.items():
        print(f"  {key:>22}: {value:,.4f}")


#: Raw software-prefetch counters surfaced by ``run`` (satellite of the
#: observability work: the lifecycle numbers without enabling tracing).
_SW_PREFETCH_COUNTERS = (
    "sw_prefetch_issued",
    "sw_prefetch_useful",
    "load_hit_pre_sw_pf",
    "sw_prefetch_early_evicted",
    "sw_prefetch_redundant",
    "sw_prefetch_dropped_mshr",
    "sw_prefetch_dropped_unmapped",
)


def _print_sw_prefetch(result) -> None:
    counters = result.counters.as_dict()
    if not counters.get("sw_prefetch_issued"):
        return
    print("software prefetches:")
    for key in _SW_PREFETCH_COUNTERS:
        print(f"  {key:>28}: {counters[key]:,.0f}")
    perf = result.perf
    print(f"  {'prefetch_accuracy':>28}: {perf.prefetch_accuracy:.4f}")
    print(f"  {'prefetch_timeliness':>28}: {perf.prefetch_timeliness:.4f}")


#: Axis name -> element parser for ``--sweep axis=v1,v2,...`` flags.
_SWEEP_AXES = {
    "schemes": str,
    "distances": int,
    "cache_scales": int,
}


def parse_sweep_axes(specs: Optional[Sequence[str]]) -> dict:
    """Parse repeated ``--sweep axis=v1,v2,...`` flags into axis tuples.

    The one sweep-grid syntax shared by ``sweep``, ``experiment`` and
    ``report``: each flag names one axis (``schemes``, ``distances`` or
    ``cache_scales``; dashes accepted) and its comma-separated values;
    repeating an axis extends it.  Returns only the axes that were
    given — callers fall back to :func:`repro.api.sweep`'s defaults for
    the rest.  Raises ``ValueError`` on malformed flags.
    """
    axes: dict = {}
    for spec in specs or ():
        name, sep, raw = spec.partition("=")
        name = name.strip().replace("-", "_")
        if not sep or name not in _SWEEP_AXES:
            raise ValueError(
                f"bad --sweep flag {spec!r}; expected "
                f"axis=v1,v2,... with axis one of {sorted(_SWEEP_AXES)}"
            )
        cast = _SWEEP_AXES[name]
        items = [v.strip() for v in raw.split(",") if v.strip()]
        if not items:
            raise ValueError(f"--sweep {spec!r} names no values")
        try:
            values = tuple(cast(v) for v in items)
        except ValueError:
            raise ValueError(
                f"--sweep {spec!r}: {name} values must be "
                f"{cast.__name__}s"
            ) from None
        axes[name] = axes.get(name, ()) + values
    return axes


def _add_sweep_flag(p: argparse.ArgumentParser, help_text: str) -> None:
    p.add_argument(
        "--sweep",
        action="append",
        metavar="AXIS=V1,V2,...",
        default=None,
        help=help_text
        + " (axes: schemes, distances, cache_scales; repeatable)",
    )


def _format_sweep_table(result) -> str:
    """Fixed-width per-cell summary of one ``SweepResult``."""
    lines = [
        f"{result.workload} [{result.scale}] sweep on engine "
        f"{result.engine}",
        f"  {'scheme':<10} {'dist':>5} {'cache':>6} {'cycles':>14} "
        f"{'vs-base':>8}  source",
    ]
    baselines = {
        entry["cache_scale"]: entry["run"]["counters"].get("cycles", 0.0)
        for entry in result.cells
        if entry["scheme"] == "baseline"
    }
    for entry in result.cells:
        cycles = entry["run"]["counters"].get("cycles", 0.0)
        base = baselines.get(entry["cache_scale"])
        ratio = f"{base / cycles:>8.3f}" if base and cycles else f"{'-':>8}"
        if entry["cached"]:
            source = "cache"
        elif entry.get("reused"):
            source = "reuse"
        else:
            source = "batch" if entry["batched"] else "replay"
        distance = entry["distance"] if entry["distance"] is not None else "-"
        scale = f"1/{entry['cache_scale']}"
        lines.append(
            f"  {entry['scheme']:<10} {distance!s:>5} {scale:>6} "
            f"{cycles:>14,.0f} {ratio}  {source}"
        )
    execution = result.execution
    groups = ", ".join(
        f"{g['scheme']}:{'batch' if g['batched'] else 'replay'}"
        + (
            f" ({g['replayed_cells']} replayed)"
            if g.get("replayed_cells") else ""
        )
        + (
            f" ({g.get('reason_code') or ''}{': ' if g.get('reason_code') else ''}"
            f"{g['reason']})"
            if g.get("reason")
            else ""
        )
        for g in execution["groups"]
    ) or ("all cached" if not execution["computed_cells"] else "no batch")
    reused = execution.get("reused_cells")
    lines.append(
        f"  cells: {len(result.cells)} "
        f"({execution['cached_cells']} cached, "
        f"{execution['computed_cells']} computed"
        + (f", {reused} reused" if reused else "")
        + f") — {groups}"
    )
    return "\n".join(lines)


def cmd_sweep(args: argparse.Namespace) -> int:
    import repro.api as api_v1
    from repro.service.api import configure_service, get_service

    try:
        axes = parse_sweep_axes(args.sweep)
    except ValueError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    if args.cache_dir is not None:
        service = configure_service(
            cache_dir=args.cache_dir, machine_config=_machine_config(args)
        )
    else:
        service = get_service()
    result = api_v1.sweep(
        args.workload,
        args.scale,
        engine=args.engine,
        service=service,
        **axes,
    )
    print(_format_sweep_table(result))
    if args.output:
        Path(args.output).write_text(result.to_json())
        print(f"wrote sweep payload -> {args.output}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    print("workloads (evaluation suite):")
    for name in SUITE:
        print(f"  {name}")
    print("workloads (tiny, for quick runs):")
    for name in TINY_SUITE:
        print(f"  {name}")
    print("experiments:")
    for name in ALL_EXPERIMENTS:
        print(f"  {name}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    workload = _resolve_workload(args)
    profile: Optional[ExecutionProfile] = None
    for _ in range(max(1, args.runs)):
        module, space = workload.build()
        machine = _make_machine(module, space, args)
        run_profile = collect_profile(
            machine, workload.entry, period=args.period
        )
        profile = run_profile if profile is None else profile.merge(run_profile)
    assert profile is not None
    Path(args.output).write_text(profile.to_json())
    print(
        f"profiled {workload.name}: {len(profile.lbr_samples)} LBR samples, "
        f"{len(profile.load_miss_counts)} distinct miss PCs -> {args.output}"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    workload = _resolve_workload(args)
    module, _ = workload.build()
    profile = ExecutionProfile.from_json(Path(args.profile).read_text())
    analyzer = AptGet(AptGetConfig(k=args.k))
    hints = analyzer.analyze(module, profile)
    Path(args.output).write_text(hints.to_json())
    print(f"wrote {len(hints)} hint(s) -> {args.output}")
    for hint in hints:
        print(
            f"  load {hint.load_pc:#x}: distance={hint.distance} "
            f"site={hint.site.value} trip={hint.trip_count} "
            f"ic={hint.ic_latency} mc={hint.mc_latency}"
        )
    return 0


def _aggregate_timely(reports) -> float:
    used = sum(r.used for r in reports.values())
    timely = sum(r.timely for r in reports.values())
    return timely / used if used else 0.0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.profiling.report import format_profile_report

    if args.sweep:
        import repro.api as api_v1

        try:
            axes = parse_sweep_axes(args.sweep)
        except ValueError as error:
            print(f"report: {error}", file=sys.stderr)
            return 2
        result = api_v1.sweep(
            args.workload, args.scale, engine=args.engine, **axes
        )
        print(_format_sweep_table(result))
        return 0

    if args.sites:
        from repro.obs.sites import format_site_reports
        from repro.service.api import get_service

        service = get_service()
        eq1 = service.site_report(
            args.workload, args.scale, engine=args.engine
        )
        print(f"{args.workload}: per-site prefetch timeliness (Eq-1 distances)")
        print(format_site_reports(eq1))
        fixed = service.site_report(
            args.workload,
            args.scale,
            fixed_distance=args.fixed_distance,
            engine=args.engine,
        )
        print(
            f"\n{args.workload}: naive baseline "
            f"(inner site, fixed distance {args.fixed_distance})"
        )
        print(format_site_reports(fixed))
        print(
            f"\noverall timely fraction: "
            f"eq1={_aggregate_timely(eq1):.3f} "
            f"fixed-{args.fixed_distance}={_aggregate_timely(fixed):.3f}"
        )
        return 0

    workload = _resolve_workload(args)
    module, _ = workload.build()
    if args.profile:
        profile = ExecutionProfile.from_json(Path(args.profile).read_text())
    else:
        run_module, run_space = workload.build()
        machine = _make_machine(run_module, run_space, args)
        profile = collect_profile(machine, workload.entry)
    print(format_profile_report(module, profile, top=args.top))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    workload = _resolve_workload(args)
    module, space = workload.build()

    if args.scheme == "aj":
        report = AinsworthJonesPass(
            AinsworthJonesConfig(distance=args.distance)
        ).run(module)
        print(f"A&J injected {report.injection_count} prefetch slice(s)")
    elif args.scheme == "apt-get":
        if args.hints:
            hints = HintSet.from_json(Path(args.hints).read_text())
        else:
            profile_module, profile_space = workload.build()
            machine = _make_machine(profile_module, profile_space, args)
            profile = collect_profile(machine, workload.entry)
            hints = AptGet().analyze(profile_module, profile)
            print(f"profiled: {len(hints)} hint(s)")
        report = AptGetPass(hints).run(module)
        print(f"APT-GET injected {report.injection_count} prefetch slice(s)")

    machine = _make_machine(module, space, args)
    trace = machine.enable_tracing() if args.trace else None
    result = machine.run(workload.entry)
    print(f"{workload.name} [{args.scheme}]: ret={result.value}")
    _print_perf(result)
    _print_sw_prefetch(result)
    if trace is not None:
        from repro.obs.sites import format_site_reports, site_reports
        from repro.obs.timeline import write_chrome_trace

        write_chrome_trace(
            trace,
            args.trace,
            metadata={"workload": workload.name, "scheme": args.scheme},
        )
        counts = trace.event_counts()
        print(
            f"trace: {counts['spans']} prefetch span(s), "
            f"{counts['demand']} demand event(s) -> {args.trace} "
            "(open in https://ui.perfetto.dev)"
        )
        reports = site_reports(trace)
        if reports:
            print(format_site_reports(reports, histogram=False))
    if args.events:
        print("raw events:")
        for key, value in result.counters.as_dict().items():
            print(f"  {key:>28}: {value:,.0f}")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    from repro.ir.printer import format_module
    from repro.passes.ainsworth_jones import (
        AinsworthJonesConfig as _AJC,
        AinsworthJonesPass as _AJP,
    )

    workload = _resolve_workload(args)
    module, _ = workload.build()
    if args.scheme == "aj":
        _AJP(_AJC(distance=args.distance)).run(module)
    elif args.scheme == "apt-get":
        profile_module, profile_space = workload.build()
        machine = _make_machine(profile_module, profile_space, args)
        profile = collect_profile(machine, workload.entry)
        hints = AptGet().analyze(profile_module, profile)
        AptGetPass(hints).run(module)
    print(format_module(module))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.service.api import configure_service, get_service

    module = ALL_EXPERIMENTS.get(args.name)
    if module is None:
        print(f"unknown experiment {args.name!r}", file=sys.stderr)
        return 2
    explicit_service = (
        args.jobs is not None
        or args.cache_dir is not None
        or args.engine is not None
    )
    if explicit_service:
        service = configure_service(
            cache_dir=args.cache_dir,
            jobs=args.jobs or 1,
            machine_config=_machine_config(args),
        )
    else:
        service = get_service()
    if args.sweep:
        # Pre-warm the artifact cache with batched sweeps: sweep cells
        # are stored under exactly the keys sequential runs use, so the
        # experiment's measurements become cache hits.
        from repro.experiments.runner import scale_suite

        try:
            axes = parse_sweep_axes(args.sweep)
        except ValueError as error:
            print(f"experiment: {error}", file=sys.stderr)
            return 2
        for name in scale_suite(args.scale):
            warmed = service.sweep(
                name, args.scale, engine=args.engine, **axes
            )
            execution = warmed["execution"]
            print(
                f"prewarmed {name}: {execution['computed_cells']} "
                f"cell(s) computed, {execution['cached_cells']} cached"
            )
    result = module.run(args.scale)
    print(result.to_text())
    service.flush_metrics()
    if explicit_service:
        counters = service.metrics.counters()
        print(
            f"cache: {counters.get('cache.hits', 0)} hit(s), "
            f"{counters.get('cache.misses', 0)} miss(es), "
            f"{counters.get('service.jobs', 0)} job(s), "
            f"{counters.get('service.errors', 0)} error(s)"
        )
    if args.output:
        payload = {
            "experiment": result.experiment,
            "title": result.title,
            "headers": result.headers,
            "rows": result.rows,
            "summary": result.summary,
        }
        Path(args.output).write_text(json.dumps(payload, indent=2))
    return 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.service.store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    stats = store.stats()
    kinds = " ".join(f"{k}={v}" for k, v in stats["by_kind"].items()) or "-"
    print(f"artifact cache at {stats['root']} (schema v{stats['schema']})")
    print(f"  entries: {stats['entries']} ({kinds})")
    print(f"  size: {stats['size_bytes']} bytes")
    print(f"  quarantined: {stats['quarantined']}")
    counters = store.read_metrics()
    print(
        "code cache: "
        f"{stats['by_kind'].get('codecache', 0)} compiled module(s), "
        f"{counters.get('codecache.hits', 0)} hit(s), "
        f"{counters.get('codecache.misses', 0)} miss(es), "
        f"{counters.get('codecache.invalidated', 0)} invalidated"
    )
    fallbacks = {
        name[len("batch.fallback."):]: value
        for name, value in counters.items()
        if name.startswith("batch.fallback.")
    }
    if fallbacks:
        detail = ", ".join(
            f"{code}={count}" for code, count in sorted(fallbacks.items())
        )
        print(f"batch fallbacks: {sum(fallbacks.values())} ({detail})")
    print("cumulative metrics:")
    if not counters:
        print("  (none recorded)")
    for name, value in sorted(counters.items()):
        print(f"  {name}: {value}")
    return 0


def cmd_cache_clear(args: argparse.Namespace) -> int:
    from repro.service.store import ArtifactStore

    removed = ArtifactStore(args.cache_dir).clear()
    print(f"cleared {removed} cached artifact(s) from {args.cache_dir}")
    return 0


def cmd_qa_fuzz(args: argparse.Namespace) -> int:
    from repro.qa.fuzz import run_fuzz

    corpus_dir = Path(args.corpus) if args.corpus else None
    stats = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        corpus_dir=corpus_dir,
        shrink=not args.no_shrink,
        model_cases=args.model_cases,
        progress=print,
    )
    print(stats.summary())
    return 0 if stats.ok else 1


def cmd_qa_replay(args: argparse.Namespace) -> int:
    from repro.qa.corpus import default_corpus_dir, iter_cases
    from repro.qa.oracle import oracle_failure

    corpus_dir = Path(args.corpus) if args.corpus else default_corpus_dir()
    total = failures = 0
    for name, case in iter_cases(corpus_dir):
        total += 1
        failure = oracle_failure(case["spec"])
        if failure is None:
            print(f"  PASS {name}")
        else:
            failures += 1
            print(f"  FAIL {name}: {failure.summary()}")
    if not total:
        print(f"no corpus cases under {corpus_dir}")
        return 0
    print(f"replayed {total} case(s), {failures} failure(s)")
    return 0 if failures == 0 else 1


def cmd_qa_shrink(args: argparse.Namespace) -> int:
    from repro.qa.corpus import load_case, save_case
    from repro.qa.oracle import focused_config, oracle_failure
    from repro.qa.shrink import count_blocks, shrink_spec

    case = load_case(Path(args.case))
    spec = case["spec"]
    failure = oracle_failure(spec)
    if failure is None:
        print(f"{args.case}: passes the oracle; nothing to shrink")
        return 0
    print(f"{args.case}: {failure.summary()}")
    shrink_oracle = focused_config(failure)
    shrunk = shrink_spec(
        spec, lambda s: oracle_failure(s, shrink_oracle) is not None
    )
    blocks = count_blocks(shrunk)
    out_dir = Path(args.output) if args.output else Path(args.case).parent
    path = save_case(
        shrunk,
        corpus_dir=out_dir,
        failure=failure.to_dict(),
        note=f"shrunk from {case['name']} ({case.get('note', '')})".strip(),
    )
    print(f"shrunk to {blocks} block(s) -> {path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.serve.controller import Controller

    if args.access_log:
        # The access log emits INFO records on ``repro.serve.http``;
        # give that logger a stderr handler so the CLI flag actually
        # produces output (the default root level is WARNING).
        logger = logging.getLogger("repro.serve.http")
        logger.setLevel(logging.INFO)
        if not logger.handlers:
            logger.addHandler(logging.StreamHandler())

    controller = Controller(
        args.queue_dir,
        cache_dir=args.cache_dir,
        agents=args.agents,
        host=args.host,
        port=args.port,
        lease=args.lease,
        max_attempts=args.max_attempts,
        max_depth=args.max_depth,
        engine=args.engine,
        telemetry=not args.no_telemetry,
        access_log=args.access_log,
    )
    controller.start()
    print(
        f"repro.serve: listening on http://{controller.host}:"
        f"{controller.port} (queue {args.queue_dir}, "
        f"{controller.num_agents} agent(s), lease {controller.lease:g}s)"
    )
    print("endpoints: POST /v1/jobs[?priority=N]  GET /v1/jobs/<id>  "
          "DELETE /v1/jobs/<id>  GET /v1/jobs/<id>/events  "
          "GET /v1/results/<id>  /healthz  /metrics")
    try:
        controller.wait()
    except KeyboardInterrupt:
        pass
    finally:
        controller.stop()
        stats = controller.queue.stats()
        print(f"stopped; queue states: {stats['by_state']}")
    return 0


def cmd_agent(args: argparse.Namespace) -> int:
    from repro.serve.agent import AgentWorker, main_loop

    worker = AgentWorker(
        args.queue_dir,
        cache_dir=args.cache_dir,
        agent_id=args.agent_id,
        lease=args.lease,
        poll_interval=args.poll,
        engine=args.engine,
        telemetry=not args.no_telemetry,
    )
    print(f"agent {worker.agent_id}: draining {args.queue_dir}")
    executed = main_loop(worker, max_jobs=args.max_jobs)
    print(f"agent {worker.agent_id}: executed {executed} job(s)")
    return 0


#: Histograms whose span-derived percentiles ``top`` surfaces, in
#: display order (queue-span latencies first, then job wall time).
_TOP_HISTOGRAMS = (
    "serve.span.claimed_seconds",
    "serve.span.running_seconds",
    "serve.span.job_seconds",
    "serve.job.seconds",
    "serve.claim.latency",
)


def _pid_alive(pid: int) -> bool:
    import os

    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def _render_top(queue_dir: str) -> str:
    """One frame of the ``top`` view (pure string; tested directly)."""
    import time as _time

    from repro.serve.agent import metrics_dir
    from repro.serve.queue import STATES, JobQueue
    from repro.service.metrics import (
        iter_snapshots,
        merge_snapshots,
        snapshot_quantile,
    )

    stats = JobQueue(queue_dir).stats()
    lines = [
        f"repro.serve top — queue {queue_dir} "
        f"({_time.strftime('%H:%M:%S')})",
        f"  depth {stats['depth']} live / {stats['total']} total",
        "  states  "
        + "  ".join(f"{s}={stats['by_state'][s]}" for s in STATES),
    ]
    snapshots = list(iter_snapshots(metrics_dir(queue_dir)))
    alive = 0
    agent_lines = []
    for path, _ in snapshots:
        try:
            pid = int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            continue
        up = _pid_alive(pid)
        alive += up
        agent_lines.append(f"    pid {pid}: {'alive' if up else 'gone'}")
    lines.append(f"  workers {alive} alive / {len(agent_lines)} known")
    lines.extend(agent_lines)
    merged = merge_snapshots(metrics_dir(queue_dir)).to_dict()
    histograms = merged.get("histograms", {})
    shown = [n for n in _TOP_HISTOGRAMS if n in histograms]
    shown += sorted(n for n in histograms if n not in _TOP_HISTOGRAMS)
    if shown:
        lines.append("  latency percentiles (seconds)")
    for name in shown:
        data = histograms[name]
        quantiles = " ".join(
            f"p{int(q * 100)}={value:.4f}"
            for q, value in (
                (q, snapshot_quantile(data, q)) for q in (0.5, 0.9, 0.99)
            )
            if value is not None
        )
        if quantiles:
            lines.append(
                f"    {name:<28} {quantiles} (n={data['count']})"
            )
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    iterations = args.iterations
    shown = 0
    try:
        while True:
            frame = _render_top(args.queue_dir)
            if not args.no_clear and shown:
                print("\x1b[2J\x1b[H", end="")
            print(frame)
            shown += 1
            if iterations is not None and shown >= iterations:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import merged_timeline, telemetry_dir
    from repro.obs.timeline import validate_chrome_trace

    try:
        document = merged_timeline(
            telemetry_dir(args.queue_dir), job=args.job, trace=args.trace
        )
    except ValueError as exc:
        print(f"timeline: {exc}", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems:
            print(f"timeline: invalid document: {problem}", file=sys.stderr)
        return 1
    Path(args.output).write_text(
        json.dumps(document, indent=1, sort_keys=True)
    )
    meta = document["otherData"]
    print(
        f"timeline: {len(document['traceEvents'])} event(s) from "
        f"{len(meta['traces'])} trace(s) ({len(meta['sim_traces'])} with "
        f"simulator timelines) -> {args.output} "
        "(open in https://ui.perfetto.dev)"
    )
    return 0


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """The normalized per-workload flags shared by every subcommand:
    ``--workload``, ``--scale``, ``--engine``."""
    p.add_argument("--workload", "-w", required=True, help="workload name")
    p.add_argument(
        "--scale",
        choices=_SCALES,
        default="small",
        help="input tier (default: small)",
    )
    p.add_argument(
        "--engine",
        choices=ENGINES + tuple(ENGINE_ALIASES),
        default=None,
        help="execution engine (default: REPRO_ENGINE env var, else fast)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apt-get-prefetch",
        description="APT-GET profile-guided software prefetching (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and experiments").set_defaults(
        fn=cmd_list
    )

    p = sub.add_parser("profile", help="collect an LBR/PEBS profile")
    _add_common_flags(p)
    p.add_argument("--output", "-o", default="profile.json")
    p.add_argument("--period", type=int, default=None)
    p.add_argument(
        "--runs", type=int, default=1, help="profiling runs to merge"
    )
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("analyze", help="profile -> prefetch hints")
    _add_common_flags(p)
    p.add_argument("--profile", required=True)
    p.add_argument("--output", "-o", default="hints.json")
    p.add_argument("--k", type=float, default=5.0, help="Eq-2 constant")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("report", help="perf-report-style profile summary")
    _add_common_flags(p)
    p.add_argument(
        "--profile", default=None, help="profile JSON (default: profile now)"
    )
    p.add_argument("--top", type=int, default=10)
    p.add_argument(
        "--sites",
        action="store_true",
        help="per-injection-site prefetch timeliness (Eq-1 vs a fixed-"
        "distance inner-site baseline) from traced runs",
    )
    p.add_argument(
        "--distance",
        dest="fixed_distance",
        type=int,
        default=4,
        help="distance for the naive baseline compared by --sites",
    )
    # Hidden legacy spelling of --distance.
    p.add_argument(
        "--fixed-distance",
        dest="fixed_distance",
        type=int,
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    _add_sweep_flag(
        p, "print a batched config-sweep table instead of a profile report"
    )
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run", help="run a workload under a scheme")
    _add_common_flags(p)
    p.add_argument(
        "--scheme", choices=("baseline", "aj", "apt-get"), default="baseline"
    )
    p.add_argument(
        "--distance", type=int, default=32, help="static distance for --scheme aj"
    )
    p.add_argument("--hints", default=None, help="hint file for --scheme apt-get")
    p.add_argument(
        "--events", action="store_true", help="also dump raw PMU counters"
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="trace the prefetch lifecycle and export a Chrome-trace/"
        "Perfetto timeline to this file",
    )
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "sweep",
        help="measure a scheme × distance × cache-scale grid in one "
        "batched pass",
    )
    _add_common_flags(p)
    _add_sweep_flag(p, "one sweep axis, e.g. --sweep distances=4,8,16")
    p.add_argument(
        "--cache-dir",
        default=None,
        help="persistent artifact cache directory (default: in-memory)",
    )
    p.add_argument(
        "--output", "-o", default=None,
        help="also write the SweepResult payload JSON here",
    )
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "disasm", help="print a workload's IR (optionally after a pass)"
    )
    _add_common_flags(p)
    p.add_argument(
        "--scheme", choices=("baseline", "aj", "apt-get"), default="baseline"
    )
    p.add_argument("--distance", type=int, default=32)
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name")
    p.add_argument("--scale", choices=_SCALES, default="small")
    p.add_argument(
        "--engine",
        choices=ENGINES + tuple(ENGINE_ALIASES),
        default=None,
        help="execution engine for uncached measurements",
    )
    p.add_argument("--output", "-o", default=None, help="also write JSON")
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for suite measurements (default: 1)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="persistent artifact cache directory (default: in-memory)",
    )
    _add_sweep_flag(
        p, "pre-warm the cache with batched sweeps over the suite"
    )
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser(
        "cache", help="inspect or clear a tuning-service artifact cache"
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pc = cache_sub.add_parser("stats", help="entry counts + cumulative metrics")
    pc.add_argument("--cache-dir", required=True)
    pc.set_defaults(fn=cmd_cache_stats)
    pc = cache_sub.add_parser("clear", help="delete every cached artifact")
    pc.add_argument("--cache-dir", required=True)
    pc.set_defaults(fn=cmd_cache_clear)

    p = sub.add_parser(
        "qa", help="differential fuzzing and the regression corpus"
    )
    qa_sub = p.add_subparsers(dest="qa_command", required=True)
    pq = qa_sub.add_parser(
        "fuzz", help="fuzz generated programs through the full oracle"
    )
    pq.add_argument(
        "--budget", type=int, default=50, help="programs to generate"
    )
    pq.add_argument("--seed", type=int, default=0, help="base seed")
    pq.add_argument(
        "--corpus",
        default=None,
        help="save shrunk failures here (default: do not save)",
    )
    pq.add_argument(
        "--model-cases",
        type=int,
        default=100,
        help="Eq-1/Eq-2 analytic oracle cases to sweep first",
    )
    pq.add_argument(
        "--no-shrink", action="store_true", help="skip failure minimization"
    )
    pq.set_defaults(fn=cmd_qa_fuzz)
    pq = qa_sub.add_parser(
        "replay", help="re-run the oracle over every corpus case"
    )
    pq.add_argument(
        "--corpus", default=None, help="corpus dir (default: tests/corpus)"
    )
    pq.set_defaults(fn=cmd_qa_replay)
    pq = qa_sub.add_parser(
        "shrink", help="minimize one failing corpus case file"
    )
    pq.add_argument("case", help="path to a corpus case JSON")
    pq.add_argument(
        "--output",
        "-o",
        default=None,
        help="directory for the shrunk case (default: alongside the input)",
    )
    pq.set_defaults(fn=cmd_qa_shrink)

    p = sub.add_parser(
        "serve",
        help="controller: durable job queue + HTTP API + agent workers",
    )
    p.add_argument(
        "--queue-dir", required=True, help="durable queue directory"
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="shared artifact cache (default: <queue-dir>/cache)",
    )
    p.add_argument(
        "--agents", type=int, default=1,
        help="agent worker processes to spawn (0 = front end only)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8023)
    p.add_argument(
        "--lease", type=float, default=30.0,
        help="claim lease seconds (a dead agent's job is requeued "
        "after at most this long)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3,
        help="claims a job may burn before parking as failed/lost",
    )
    p.add_argument(
        "--max-depth", type=int, default=None,
        help="backpressure bound on live jobs (429 past it)",
    )
    p.add_argument(
        "--engine",
        choices=ENGINES + tuple(ENGINE_ALIASES),
        default=None,
        help="execution engine for agent measurements",
    )
    p.add_argument(
        "--access-log",
        action="store_true",
        help="log every HTTP request as one JSON line at INFO",
    )
    p.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable job-lifecycle span journaling (and the "
        "/v1/jobs/<id>/events endpoint)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "agent", help="standalone agent worker for an existing queue"
    )
    p.add_argument("--queue-dir", required=True)
    p.add_argument(
        "--cache-dir", default=None,
        help="shared artifact cache (default: <queue-dir>/cache)",
    )
    p.add_argument("--agent-id", default=None, help="override the agent id")
    p.add_argument("--lease", type=float, default=30.0)
    p.add_argument(
        "--poll", type=float, default=0.2,
        help="fallback re-check interval in seconds (an idle agent is "
        "woken at once by each new submission)",
    )
    p.add_argument(
        "--max-jobs", type=int, default=None,
        help="exit after this many jobs (default: run until signalled)",
    )
    p.add_argument(
        "--engine",
        choices=ENGINES + tuple(ENGINE_ALIASES),
        default=None,
        help="execution engine for measurements",
    )
    p.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable job-lifecycle span journaling",
    )
    p.set_defaults(fn=cmd_agent)

    p = sub.add_parser(
        "top",
        help="polling status view of a queue: depth, per-state counts, "
        "worker liveness, span latency percentiles",
    )
    p.add_argument("--queue-dir", required=True)
    p.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    p.add_argument(
        "--iterations", type=int, default=None,
        help="frames to render before exiting (default: until Ctrl-C)",
    )
    p.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "timeline",
        help="export a queue's merged service+simulator telemetry as "
        "Perfetto/Chrome-trace JSON",
    )
    p.add_argument("--queue-dir", required=True)
    p.add_argument("--output", "-o", default="timeline.json")
    p.add_argument(
        "--job", default=None, help="restrict to one job id"
    )
    p.add_argument(
        "--trace", default=None, help="restrict to one trace id"
    )
    p.set_defaults(fn=cmd_timeline)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
