"""Spans and counts recorded around the public entry points of each layer.

The benchmark never edits the program: :func:`install` replaces a layer's
public function or method with a wrapper that records a span (name, start,
end, parent, run id) in memory and then calls the original.  The memory
ports see millions of calls, so they keep a count and a summed time instead
of one span per call; that time is charged to the enclosing span as child
time, so ``Machine.run`` self time excludes it.

Simulated runs pass through one wrapper around ``Machine.run`` and
``run_batch`` (:func:`wrap_runs`) in traced and untraced runs alike: it
counts them, and times them only when a tracer is given.

Spans are kept on one stack, so only one thread may enter wrapped code; in
every process the benchmark traces, the simulation runs on one thread.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
import weakref

#: (layer, span name) for each wrapped boundary, in report order.
SPAN_LAYERS = (
    ("workloads.build", "Workload.build"),
    ("passes.aj", "AinsworthJonesPass.run"),
    ("passes.aptget", "AptGetPass.run"),
    ("profiling.collect", "collect_profile"),
    ("core.analyze", "AptGet.analyze"),
    ("machine.batch", "run_batch"),
    ("service.store.get", "store.get"),
    ("service.store.put", "store.put"),
)

#: Counter fields summed into the ``sim.*`` metrics.
SIM_FIELDS = (
    ("sim.instructions", "instructions"),
    ("sim.cycles", "cycles"),
    ("sim.llc_misses", "llc_misses"),
    ("sim.sw_prefetches", "sw_prefetch_issued"),
)


def sim_counts(counters: dict) -> dict:
    """The ``sim.*`` counts of one run's counter dict."""
    return {name: counters.get(field, 0) for name, field in SIM_FIELDS}


def add_counts(total: dict, counts: dict) -> None:
    for name, value in counts.items():
        total[name] = total.get(name, 0) + value


class SimCounter:
    """The ``sim.*`` counts of every *distinct* simulated run, each once.

    A run is identified by what it simulates: the printed module, the
    address-space contents, the machine config without the engine (every
    engine computes the same counters), the entry point and arguments,
    the sampler state, and the runs made before it on the same machine.
    A batched sweep cell has the identity of the same run on a fresh
    machine.  Answering a run from a cache, or batching it, therefore
    leaves the counts unchanged; simulating other work moves them.
    """

    def __init__(self) -> None:
        self.totals: dict = {}
        #: Simulated runs actually executed, repeats included.
        self.executed = 0
        self._seen: set = set()
        self._history = weakref.WeakKeyDictionary()

    @staticmethod
    def _identity(module, space, config, function, args, state) -> tuple:
        from repro.ir.printer import format_module
        from repro.service.store import config_fingerprint

        return (
            format_module(module),
            hash(tuple(
                (segment.name, segment.base, segment.elem_size,
                 tuple(segment.values))
                for segment in space.segments()
            )),
            config_fingerprint(dataclasses.replace(config, engine="reference")),
            function,
            tuple(args),
            state,
        )

    def machine_key(self, machine, function, args, flush_caches) -> tuple:
        sampler = machine.sampler
        state = (
            flush_caches,
            None if sampler is None else (sampler.period, sampler.next_at),
        )
        key = self._history.get(machine, ()) + (self._identity(
            machine.module, machine.space, machine.config, function, args,
            state,
        ),)
        self._history[machine] = key
        return key

    def cell_key(self, cell, function, args) -> tuple:
        return (self._identity(
            cell.module, cell.space, cell.config, function, args,
            (False, None),
        ),)

    def add(self, key: tuple, counters: dict) -> None:
        self.executed += 1
        if key not in self._seen:
            self._seen.add(key)
            add_counts(self.totals, sim_counts(counters))


def graph_misses() -> int:
    from repro.workloads.graphs import graph_store

    return graph_store().metrics.counters().get("graph_cache.misses", 0)


class Tracer:
    """In-memory span recorder plus the per-layer counts of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        #: Open frames: [span id, name, start, child seconds, parent id].
        self._stack: list[list] = []
        self._next_id = 1
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: Memory-port kind -> [calls, seconds].
        self.ports = {"load": [0, 0.0], "store": [0, 0.0], "prefetch": [0, 0.0]}
        self.compile_s = 0.0
        self.run_instructions = 0
        self.store_hits = 0

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, time.perf_counter(), 0.0, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s, parent = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "run": self.run_id,
            "self_s": duration - child_s,
        })

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return traced

    def wrap_port(self, kind: str, fn):
        acc = self.ports[kind]
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(port, addr, now, pc):
            start = perf()
            value = fn(port, addr, now, pc)
            elapsed = perf() - start
            acc[0] += 1
            acc[1] += elapsed
            if stack:
                stack[-1][3] += elapsed
            return value

        return traced

    def wrap_store(self, name: str, fn, skip):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def dispatch(store, key, *args, **kwargs):
            if skip(store, key):
                return fn(store, key, *args, **kwargs)
            value = traced(store, key, *args, **kwargs)
            if name == "store.get" and value is not None:
                self.store_hits += 1
            return value

        return dispatch

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "totals": self.totals,
            "ports": self.ports,
            "compile_s": self.compile_s,
            "run_instructions": self.run_instructions,
            "store_hits": self.store_hits,
            "graph_misses": graph_misses(),
        }

    def dump(self, path) -> None:
        """Write the spans and counts out (called once, when the run ends)."""
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle)


def rebind(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement`` (a function imported by name is a separate binding,
    so patching the defining module alone would miss its callers)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def wrap_runs(
    sim: SimCounter | None, tracer: Tracer | None,
    latencies: list | None = None,
) -> None:
    """Wrap ``Machine.run`` and ``run_batch`` once: count each run into
    ``sim``, append ``(start, seconds)`` of each outermost simulated run (a
    batch is one) to ``latencies`` and, with a tracer, record it as a span (plus,
    for ``Machine.run``, its compile time and simulated instructions)."""
    import repro.service.api  # noqa: F401 - binds run_batch by name
    from repro.machine import batch
    from repro.machine.machine import Machine

    run = Machine.run
    run_batch = batch.run_batch
    timed_batch = run_batch if tracer is None else tracer.wrap(
        "run_batch", run_batch
    )
    depth = [0]

    def timed(call, *args):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            depth[0] -= 1
            if latencies is not None and not depth[0]:
                latencies.append((start, time.perf_counter() - start))

    @functools.wraps(run)
    def machine_run(machine, function="main", args=(), flush_caches=False):
        if sim is not None:
            key = sim.machine_key(machine, function, args, flush_caches)
        if tracer is None:
            result = timed(run, machine, function, args, flush_caches)
        else:
            before = machine.engine_run_stats()["compile_seconds"]
            frame = tracer.open("Machine.run")
            try:
                result = timed(run, machine, function, args, flush_caches)
            finally:
                tracer.close(frame)
            tracer.compile_s += (
                machine.engine_run_stats()["compile_seconds"] - before
            )
            tracer.run_instructions += result.counters.instructions
        if sim is not None:
            sim.add(key, result.counters.as_dict())
        return result

    @functools.wraps(run_batch)
    def batch_run(cells, function="main", args=(), tier=None):
        cells = list(cells)
        if sim is not None:
            keys = [sim.cell_key(cell, function, args) for cell in cells]
        outcome = timed(timed_batch, cells, function, args, tier)
        # A replayed batch ran each cell through Machine.run: counted there.
        if sim is not None and outcome.batched:
            for key, result in zip(keys, outcome.results):
                sim.add(key, result.counters.as_dict())
        return outcome

    Machine.run = machine_run
    rebind(run_batch, batch_run)


def not_service_store(store, key) -> bool:
    """The graph memo and the code cache are stores too, but they are the
    workload and machine layers' caches, not the service's."""
    from repro.machine.codecache import CodeCache
    from repro.workloads import graphs

    return store is graphs._GRAPH_STORE or key.kind == CodeCache.KIND


def time_cache_hits(latencies: list) -> None:
    """Append ``(start, seconds)`` of each service-cache lookup that finds
    its entry (``MemoryStore``/``ArtifactStore.get`` returning a value) to
    ``latencies``."""
    from repro.service.store import ArtifactStore, MemoryStore

    for cls in (MemoryStore, ArtifactStore):
        get = cls.get

        @functools.wraps(get)
        def timed_get(store, key, *args, _get=get, **kwargs):
            start = time.perf_counter()
            value = _get(store, key, *args, **kwargs)
            if value is not None and not not_service_store(store, key):
                latencies.append((start, time.perf_counter() - start))
            return value

        cls.get = timed_get


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the imported ``repro`` package except
    ``Machine.run`` and ``run_batch``, which :func:`wrap_runs` covers."""
    import repro.experiments  # noqa: F401 - binds collect_profile by name
    from repro.core.aptget import AptGet
    from repro.mem.fastpath import MemoryFastPath
    from repro.passes.ainsworth_jones import AinsworthJonesPass
    from repro.passes.aptget_pass import AptGetPass
    from repro.profiling import collect
    from repro.service.store import ArtifactStore, MemoryStore
    from repro.workloads.base import Workload

    Workload.build = tracer.wrap("Workload.build", Workload.build)
    AinsworthJonesPass.run = tracer.wrap(
        "AinsworthJonesPass.run", AinsworthJonesPass.run
    )
    AptGetPass.run = tracer.wrap("AptGetPass.run", AptGetPass.run)
    AptGet.analyze = tracer.wrap("AptGet.analyze", AptGet.analyze)
    for kind in ("load", "store", "prefetch"):
        setattr(
            MemoryFastPath, kind,
            tracer.wrap_port(kind, getattr(MemoryFastPath, kind)),
        )
    rebind(
        collect.collect_profile,
        tracer.wrap("collect_profile", collect.collect_profile),
    )

    for cls in (MemoryStore, ArtifactStore):
        cls.get = tracer.wrap_store("store.get", cls.get, not_service_store)
        cls.put = tracer.wrap_store("store.put", cls.put, not_service_store)


def layer_metrics(snapshots: list[dict]) -> dict:
    """Per-layer metrics summed over the snapshots of every traced process."""
    totals: dict[str, list] = {}
    ports = {"load": [0, 0.0], "store": [0, 0.0], "prefetch": [0, 0.0]}
    compile_s = 0.0
    instructions = store_hits = misses = 0
    for snap in snapshots:
        for name, (calls, total_s, self_s) in snap["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total_s
            acc[2] += self_s
        for kind, (calls, seconds) in snap["ports"].items():
            ports[kind][0] += calls
            ports[kind][1] += seconds
        compile_s += snap["compile_s"]
        instructions += snap["run_instructions"]
        store_hits += snap["store_hits"]
        misses += snap["graph_misses"]

    def get(name):
        return totals.get(name, [0, 0.0, 0.0])

    metrics: dict = {"workloads.graph.misses": misses}
    for layer, span in SPAN_LAYERS:
        calls, _, self_s = get(span)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.s"] = self_s
    run_calls, run_total, run_self = get("Machine.run")
    metrics["machine.run.calls"] = run_calls
    metrics["machine.run.self_s"] = run_self
    metrics["machine.compile_s"] = compile_s
    metrics["machine.ns_per_instr"] = (
        run_total * 1e9 / instructions if instructions else 0.0
    )
    for kind in ("load", "store", "prefetch"):
        metrics[f"mem.{kind}.calls"] = ports[kind][0]
    metrics["mem.port.s"] = sum(seconds for _, seconds in ports.values())
    lookups = metrics["service.store.get.calls"]
    metrics["service.cache.hits"] = store_hits
    metrics["service.cache.lookups"] = lookups
    metrics["service.cache.hit_ratio"] = (
        store_hits / lookups if lookups else 0.0
    )
    return metrics
