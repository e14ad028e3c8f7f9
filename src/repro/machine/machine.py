"""The Machine facade: binds a finalized module + address space to the
memory hierarchy, PMU, LBR, and an execution engine.

Typical use::

    machine = Machine(module, space)
    result = machine.run("main")
    print(result.perf.ipc)

For profiling runs (the paper's ``perf record`` step)::

    machine = Machine(module, space)
    machine.enable_profiling()
    machine.run("main")
    samples = machine.sampler.samples
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.ir.nodes import IRError, Module
from repro.machine import codecache
from repro.machine.batchturbo import compile_fused
from repro.machine.config import (
    ENGINE_ALIASES,
    ENGINES,
    MachineConfig,
    normalize_engine,
)
from repro.machine.context import ExecutionContext
from repro.machine.interpreter import run_function
from repro.machine.lbr import LastBranchRecord, NullLBR
from repro.machine.pmu import Counters, PerfStat
from repro.machine.sampler import ProfileSampler
from repro.machine.translator import compile_function
from repro.mem.address import AddressSpace
from repro.mem.hierarchy import MemorySystem


@dataclass
class RunResult:
    """Outcome of one Machine.run: return value + the run's counter delta."""

    value: int
    counters: Counters

    @property
    def perf(self) -> PerfStat:
        return PerfStat(self.counters)

    @property
    def cycles(self) -> float:
        return self.counters.cycles


class Machine:
    """One simulated process: module + data + microarchitectural state."""

    def __init__(
        self,
        module: Module,
        space: AddressSpace,
        config: Optional[MachineConfig] = None,
        engine: Optional[str] = None,
    ) -> None:
        if not module.finalized:
            module.finalize()
        # A workload's inputs are generated here, never inside run(): a
        # run's time is the simulation's alone.
        space.materialize()
        self.module = module
        self.space = space
        self.config = config or MachineConfig()
        if engine is None:
            engine = self.config.engine
        elif engine in ENGINE_ALIASES:
            warnings.warn(
                f"engine {engine!r} is a deprecated alias; "
                f"use {ENGINE_ALIASES[engine]!r}",
                DeprecationWarning,
                stacklevel=2,
            )
        self.engine = normalize_engine(engine)
        self.counters = Counters()
        self.mem = MemorySystem(self.config.memory, space, self.counters)
        self.lbr: LastBranchRecord | NullLBR = NullLBR()
        self.sampler: Optional[ProfileSampler] = None
        self.trace = None
        #: Compiled-form cache, keyed by (engine, function name) so one
        #: machine can serve several engines (e.g. translated_source()
        #: on a machine running the turbo engine).
        self._compiled: dict[tuple[str, str], object] = {}
        #: Wall seconds spent compiling (the compile half of the
        #: compile-vs-execute split telemetry reports per engine.run).
        self._compile_seconds = 0.0
        #: Persistent AOT code cache (None unless config.code_cache is
        #: set); load-or-compile for every compiled engine.
        self._code_cache = codecache.resolve(self.config.code_cache)

    # ------------------------------------------------------------------
    def enable_profiling(
        self, period: Optional[int] = None, first_at: Optional[int] = None
    ) -> ProfileSampler:
        """Turn on the LBR + PEBS sampling hardware for subsequent runs."""
        lbr = LastBranchRecord(self.config.lbr_entries)
        self.sampler = ProfileSampler(
            lbr,
            period or self.config.lbr_sample_period,
            first_at=first_at,
        )
        if self.trace is not None:
            from repro.obs.trace import BranchTap

            self.lbr = BranchTap(lbr, self.trace)
        else:
            self.lbr = lbr
        return self.sampler

    def disable_profiling(self) -> None:
        self.lbr = NullLBR()
        self.sampler = None

    # ------------------------------------------------------------------
    def enable_tracing(self, capacity: Optional[int] = None):
        """Turn on prefetch-lifecycle tracing for subsequent runs.

        Builds the injection-site tables from the (pass-stamped) module,
        attaches a :class:`~repro.obs.trace.PrefetchTrace` to the memory
        system, and taps the LBR stream so the timeline can reconstruct
        loop iterations.  Returns the trace; roll it up with
        :func:`repro.obs.sites.site_reports` or export it with
        :func:`repro.obs.timeline.chrome_trace`.

        Tracing-off runs pay near-zero cost (one predictable branch per
        L1-missing event); traced runs pay for the event stream.
        """
        from repro.obs.sites import site_table
        from repro.obs.trace import DEFAULT_CAPACITY, BranchTap, PrefetchTrace

        prefetch_sites, load_sites = site_table(self.module)
        trace = PrefetchTrace(
            capacity=capacity if capacity is not None else DEFAULT_CAPACITY,
            sites=prefetch_sites,
            site_loads=load_sites,
        )
        self.trace = trace
        self.mem.attach_trace(trace)
        if not isinstance(self.lbr, BranchTap):
            self.lbr = BranchTap(self.lbr, trace)
        else:
            self.lbr.trace = trace
        return trace

    def disable_tracing(self) -> None:
        from repro.obs.trace import BranchTap

        self.mem.detach_trace()
        if isinstance(self.lbr, BranchTap):
            self.lbr = self.lbr.inner
        self.trace = None

    # ------------------------------------------------------------------
    def _context(self) -> ExecutionContext:
        return ExecutionContext(
            space=self.space,
            mem=self.mem,
            counters=self.counters,
            lbr=self.lbr,
            config=self.config,
            sampler=self.sampler,
            invoke=self._invoke,
            trace=self.trace,
        )

    def _compile(self, name: str, engine: Optional[str] = None):
        """Fetch (or build) the compiled form of ``name`` for ``engine``."""
        engine = engine or self.engine
        key = (engine, name)
        compiled = self._compiled.get(key)
        if compiled is None:
            started = time.perf_counter()
            function = self.module.function(name)
            if self._code_cache is not None:
                compiled = self._code_cache.load_or_compile(
                    function, self.config, engine
                )
            elif engine == "translate":
                compiled = compile_function(function, self.config)
            else:  # turbo, and fast: the name the v1 contract keeps for it
                compiled = compile_fused(function, self.config)
            self._compiled[key] = compiled
            self._compile_seconds += time.perf_counter() - started
        return compiled

    def _invoke(self, callee: str, args: Sequence[int], from_pc: int) -> int:
        """CALL trampoline: run ``callee`` on this machine's engine with
        the shared clock; records the call's taken branch in the LBR."""
        if callee not in self.module.functions:
            raise IRError(f"call to unknown function {callee!r}")
        function = self.module.function(callee)
        entry_pc = function.entry.start_pc
        self.lbr.push((from_pc, entry_pc, int(self.counters.cycles)))
        self.counters.taken_branches += 1
        if self.engine == "reference":
            return run_function(function, self._context(), args)
        return self._compile(callee)(self._context(), args)

    def run(
        self,
        function: str = "main",
        args: Sequence[int] = (),
        flush_caches: bool = False,
    ) -> RunResult:
        """Execute ``function`` and return its value plus the counter delta."""
        if function not in self.module.functions:
            raise IRError(f"module has no function {function!r}")
        if flush_caches:
            self.mem.flush()
        before = self.counters.copy()
        if self.engine == "reference":
            value = run_function(
                self.module.function(function), self._context(), args
            )
        else:
            value = self._compile(function)(self._context(), args)
        return RunResult(value=value, counters=self.counters - before)

    def translated_source(self, function: str) -> str:
        """Source of the translating engine's code for ``function``
        (debug aid; compiles on demand whatever engine is active)."""
        return self._compile(function, engine="translate").source

    def engine_run_stats(self) -> dict:
        """Engine-phase profiling rollup for this machine's lifetime:
        the compile-vs-execute wall split plus, on the superblock tier
        (the turbo and fast names), the bulk-stepping/guard-bail
        tallies.  Read by the telemetry layer at ``engine.run`` span
        close; pure observation (compiled-function attributes, never
        PMU counters)."""
        stats: dict = {
            "compiled_functions": len(self._compiled),
            "compile_seconds": round(self._compile_seconds, 6),
        }
        bulk_calls = bulk_iters = declines = cleared = 0
        turbo = False
        for compiled in self._compiled.values():
            if hasattr(compiled, "bulk_calls"):
                turbo = True
                bulk_calls += compiled.bulk_calls
                bulk_iters += compiled.bulk_iters
                declines += compiled.guard_declines
                cleared += compiled.adaptive_cleared
        if turbo:
            stats["bulk_calls"] = bulk_calls
            stats["bulk_iters"] = bulk_iters
            stats["guard_declines"] = declines
            stats["adaptive_cleared"] = cleared
        return stats
