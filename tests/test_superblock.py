"""The fused superblock steppers of the sequential ``turbo``/``fast``
path: nest-fusion shape, steady-state bulk stepping, observation-point
guards (instruction budget, profiling samples), the tracing bypass, and
the adaptive short-trip fallback.

The steppers come from the one fused-nest generator
(:mod:`repro.machine.batchturbo`) specialized for one cell, plain and
profiled.  Cross-engine bit-identicality over random programs lives in
the ``repro.qa`` oracle and ``tests/test_machine_engines.py``; this file
pins down the *structural* behaviour of the steppers and the
dispatch-loop contract around them, on small builders and on the tiny
suite with and without the A&J pass.
"""

from __future__ import annotations

import functools

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.machine.batchturbo import compile_fused
from repro.machine.blockengine import _ADAPT_WARMUP, BlockCompiledFunction
from repro.machine.config import MachineConfig
from repro.machine.interpreter import ExecutionLimitExceeded
from repro.machine.machine import Machine
from repro.mem.address import AddressSpace
from repro.mem.config import CacheConfig
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
)
from repro.workloads.registry import TINY_SUITE, make_workload
from tests.conftest import (
    build_indirect_loop,
    build_nested_indirect,
    build_sum_loop,
    tiny_memory,
)


def build_diamond_outer_short_inner(
    outer: int = 200, inner: int = 1
) -> tuple[Module, AddressSpace, int]:
    """An outer loop whose body is a branch diamond (unfusable) around
    a short-trip inner loop (fusable): the shape that exercises the
    adaptive bypass — the inner superblock is entered once per outer
    iteration and never gets to amortize its prologue."""
    space = AddressSpace()
    data = space.allocate("data", [3] * 1024, elem_size=8)
    module = Module("diamond_outer")
    b = IRBuilder(module)
    b.function("main")
    (
        entry,
        outer_h,
        left,
        right,
        merge,
        inner_h,
        outer_latch,
        done,
    ) = b.blocks(
        "entry",
        "outer_h",
        "left",
        "right",
        "merge",
        "inner_h",
        "outer_latch",
        "done",
    )
    b.at(entry)
    b.jmp(outer_h)
    b.at(outer_h)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 0)], name="acc")
    half = b.lt(i, outer // 2, name="half")
    b.br(half, left, right)
    b.at(left)
    lv = b.add(acc, 1, name="lv")
    b.jmp(merge)
    b.at(right)
    rv = b.add(acc, 2, name="rv")
    b.jmp(merge)
    b.at(merge)
    base = b.phi([(left, lv), (right, rv)], name="base")
    b.jmp(inner_h)
    b.at(inner_h)
    j = b.phi([(merge, 0)], name="j")
    acc_i = b.phi([(merge, base)], name="acc.i")
    a = b.gep(data.base, j, 8, name="a")
    v = b.load(a, name="v")
    acc_i2 = b.add(acc_i, v, name="acc.i2")
    j2 = b.add(j, 1, name="j2")
    b.add_incoming(j, inner_h, j2)
    b.add_incoming(acc_i, inner_h, acc_i2)
    jc = b.lt(j2, inner, name="jc")
    b.br(jc, inner_h, outer_latch)
    b.at(outer_latch)
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, outer_latch, i2)
    b.add_incoming(acc, outer_latch, acc_i2)
    ic = b.lt(i2, outer, name="ic")
    b.br(ic, outer_h, done)
    b.at(done)
    b.ret(acc_i2)
    module.finalize()
    expected = 0
    for k in range(outer):
        expected += 1 if k < outer // 2 else 2
        expected += 3 * inner
    return module, space, expected


class TestFusionShape:
    def test_plain_loop_fuses_to_depth_one(self):
        module, _, _ = build_sum_loop()
        tcf = compile_fused(module.functions["main"])
        assert isinstance(tcf, BlockCompiledFunction)
        fused = tcf.superblocks()
        assert [sb.header for sb in fused] == ["loop"]
        assert fused[0].depth == 1
        assert fused[0].bound_cycles > 0
        assert fused[0].bound_retired > 0

    def test_nest_fuses_to_depth_two_and_keeps_inner(self):
        module, _, _ = build_nested_indirect()
        tcf = compile_fused(module.functions["main"])
        by_header = {sb.header: sb for sb in tcf.superblocks()}
        # The outer unit absorbs the fused inner loop; the inner loop
        # also keeps a standalone superblock at its own header, where
        # a run resumed after a mid-nest sample re-enters bulk mode.
        assert by_header["outer_h"].depth == 2
        assert by_header["inner_h"].depth == 1
        assert set(by_header["inner_h"].path) <= set(
            by_header["outer_h"].path
        )
        stats = tcf.stats()
        assert stats["superblocks"] == 2
        assert stats["max_fusion_depth"] == 2

    def test_diamond_body_is_rejected_but_inner_fuses(self):
        module, _, _ = build_diamond_outer_short_inner()
        tcf = compile_fused(module.functions["main"])
        assert [sb.header for sb in tcf.superblocks()] == ["inner_h"]

    def test_generated_source_shape(self):
        module, _, _ = build_sum_loop()
        tcf = compile_fused(module.functions["main"])
        sb = tcf.superblocks()[0]
        for source in (sb.source, sb.source_profiled):
            assert "def __fused(R, st, cd, PT):" in source
            # The entry guard and the hoisted budget limit.
            assert "_gm = st.max_instructions" in source
            assert "return -1" in source
            # One cell: no cell loop, no shadow code.
            assert " in CELLS:" not in source
            assert "SHADOWS" not in source
        # Only the profiled variant guards the next sample, records
        # taken branches and long-latency loads.
        for token in ("_gc = st.next_sample", "lbr_push", "record_load"):
            assert token in sb.source_profiled
            assert token not in sb.source


@pytest.mark.parametrize(
    "builder",
    [build_sum_loop, build_indirect_loop, build_nested_indirect,
     build_diamond_outer_short_inner],
    ids=["sum", "indirect", "nested", "diamond"],
)
class TestBulkSteppingIsExact:
    def _run(self, builder, engine, profile_period=None, config=None):
        module, space, expected = builder()
        machine = Machine(module, space, config=config, engine=engine)
        if profile_period is not None:
            machine.enable_profiling(period=profile_period)
        result = machine.run("main")
        return machine, result, expected

    def test_matches_reference(self, builder):
        machine_t, result_t, expected = self._run(builder, "turbo")
        machine_r, result_r, _ = self._run(builder, "reference")
        assert result_t.value == result_r.value == expected
        assert (
            machine_t.counters.as_dict() == machine_r.counters.as_dict()
        )

    def test_matches_reference_with_sampler(self, builder):
        # A short period forces the guard to bail near every sample so
        # the observation fires at the exact per-block boundary.
        machine_t, result_t, _ = self._run(builder, "turbo", profile_period=300)
        machine_r, result_r, _ = self._run(
            builder, "reference", profile_period=300
        )
        assert result_t.value == result_r.value
        assert (
            machine_t.counters.as_dict() == machine_r.counters.as_dict()
        )
        assert machine_t.sampler.samples == machine_r.sampler.samples
        assert (
            machine_t.sampler.load_miss_counts
            == machine_r.sampler.load_miss_counts
        )


class TestDispatchContract:
    def test_execution_limit_raises_like_reference(self):
        module, _, _ = build_sum_loop(n=1000)
        config = MachineConfig(max_instructions=500)
        for engine in ("turbo", "reference"):
            machine = Machine(
                module, build_sum_loop(n=1000)[1], config=config, engine=engine
            )
            with pytest.raises(ExecutionLimitExceeded):
                machine.run("main")

    def test_tracing_bypasses_bulk_stepping(self):
        module, space, expected = build_indirect_loop()
        machine = Machine(module, space, engine="turbo")
        machine.enable_tracing()
        tcf = machine._compile("main")
        calls = 0
        sb = tcf.superblocks()[0]
        original = sb.run

        def counting(R, st, cd, PT):
            nonlocal calls
            calls += 1
            return original(R, st, cd, PT)

        sb.run = counting
        try:
            result = machine.run("main")
        finally:
            sb.run = original
        assert result.value == expected
        assert calls == 0, "bulk stepping must be disabled while tracing"

    def test_bulk_stepping_engages_without_tracing(self):
        module, space, expected = build_indirect_loop()
        machine = Machine(module, space, engine="turbo")
        tcf = machine._compile("main")
        calls = 0
        sb = tcf.superblocks()[0]
        original = sb.run

        def counting(R, st, cd, PT):
            nonlocal calls
            calls += 1
            return original(R, st, cd, PT)

        sb.run = counting
        try:
            result = machine.run("main")
        finally:
            sb.run = original
        assert result.value == expected
        assert calls > 0

    def test_adaptive_bypass_stops_short_trip_bulk_calls(self):
        # 200 outer iterations enter the 1-trip inner superblock once
        # each; after the warmup window the dispatch loop must clear
        # the slot and stop paying the bulk-call prologue.
        module, space, expected = build_diamond_outer_short_inner(
            outer=200, inner=1
        )
        machine = Machine(module, space, engine="turbo")
        tcf = machine._compile("main")
        calls = 0
        sb = tcf.superblocks()[0]
        original = sb.run

        def counting(R, st, cd, PT):
            nonlocal calls
            calls += 1
            return original(R, st, cd, PT)

        sb.run = counting
        try:
            result = machine.run("main")
        finally:
            sb.run = original
        assert result.value == expected
        assert calls == _ADAPT_WARMUP

    def test_adaptive_bypass_is_per_run(self):
        # The cleared slot is run-local state: a fresh run warms up
        # again (and stays bit-identical either way).
        module, space, expected = build_diamond_outer_short_inner(
            outer=200, inner=1
        )
        machine = Machine(module, space, engine="turbo")
        first = machine.run("main")
        second = machine.run("main")
        assert first.value == second.value == expected


def _fast_memory():
    """Latencies so short that a sum-loop iteration's worst case (13
    cycles) fits between two samples 17 cycles apart."""
    return tiny_memory(
        l1=CacheConfig("L1D", 1024, 4, 1),
        l2=CacheConfig("L2", 4096, 4, 2),
        llc=CacheConfig("LLC", 16 * 1024, 8, 3),
        dram_latency=4,
    )


class TestProfiledStepper:
    def test_samples_inside_a_fused_nest_match_reference(self):
        # At sample period 17 the profiled stepper runs an iteration or
        # two between samples, so LBR snapshots hold branches it pushed
        # and its PEBS records land between samples too.
        machines = {}
        for engine in ("turbo", "reference"):
            module, space, expected = build_sum_loop(n=300)
            machine = Machine(
                module, space, config=MachineConfig(memory=_fast_memory()),
                engine=engine,
            )
            machine.enable_profiling(period=17)
            assert machine.run("main").value == expected
            machines[engine] = machine
        turbo, reference = machines["turbo"], machines["reference"]
        assert turbo.counters.as_dict() == reference.counters.as_dict()
        assert turbo.sampler.samples == reference.sampler.samples
        assert len(turbo.sampler.samples) > 100
        for attr in ("load_miss_counts", "load_miss_latency"):
            assert getattr(turbo.sampler, attr)
            assert getattr(turbo.sampler, attr) == getattr(
                reference.sampler, attr
            )
        (sb,) = turbo._compiled[("turbo", "main")].superblocks()
        assert sb.bound_cycles < 17
        stats = turbo.engine_run_stats()
        assert stats["bulk_iters"] > 0
        assert stats["guard_declines"] > 0


# ----------------------------------------------------------------------
# The tiny suite, plain and after the A&J pass
# ----------------------------------------------------------------------
SUITE = [
    (name, scheme) for name in sorted(TINY_SUITE) for scheme in ("plain", "aj")
]

#: A sample period that lands samples inside every hot fused nest.
PERIOD = 20011


def _build(name: str, scheme: str):
    workload = make_workload(name, "tiny")
    module, space = workload.build()
    if scheme == "aj":
        AinsworthJonesPass(AinsworthJonesConfig(distance=8)).run(module)
    return module, space, workload.entry


def _observe(name, scheme, engine, period=None, traced=False, runs=1):
    """(observation, engine stats) of ``runs`` runs on one machine."""
    module, space, entry = _build(name, scheme)
    machine = Machine(module, space, config=MachineConfig(), engine=engine)
    if period is not None:
        machine.enable_profiling(period=period)
    if traced:
        machine.enable_tracing()
    observation = [
        (result.value, result.counters.as_dict())
        for result in (machine.run(entry) for _ in range(runs))
    ]
    if period is not None:
        sampler = machine.sampler
        observation += [
            [tuple(snapshot) for snapshot in sampler.samples],
            dict(sampler.load_miss_counts),
            dict(sampler.load_miss_latency),
        ]
    return observation, machine.engine_run_stats()


@functools.lru_cache(maxsize=None)
def _reference(name, scheme, period=None):
    return _observe(name, scheme, "reference", period)[0]


@pytest.mark.parametrize("name,scheme", SUITE)
class TestTinySuite:
    def test_matches_reference(self, name, scheme):
        observation, stats = _observe(name, scheme, "turbo")
        assert observation == _reference(name, scheme)
        assert stats["bulk_calls"] > 0  # bulk stepping engaged

    def test_profiled_matches_reference(self, name, scheme):
        observation, stats = _observe(name, scheme, "turbo", PERIOD)
        assert observation == _reference(name, scheme, PERIOD)
        assert observation[1] and observation[2]  # LBR and PEBS samples
        # The profiled steppers ran, and bailed before samples.
        assert stats["bulk_calls"] > 0
        assert stats["guard_declines"] > 0

    def test_tracing_bypasses_bulk_stepping(self, name, scheme):
        traced, stats = _observe(name, scheme, "turbo", traced=True)
        assert stats["bulk_calls"] == 0
        assert traced == _observe(name, scheme, "turbo")[0]

    def test_execution_limit_raises_like_reference(self, name, scheme):
        budget = _reference(name, scheme)[0][1]["instructions"] // 2
        config = MachineConfig(max_instructions=budget)
        errors = []
        for engine in ("turbo", "reference"):
            module, space, entry = _build(name, scheme)
            machine = Machine(module, space, config=config, engine=engine)
            with pytest.raises(ExecutionLimitExceeded) as raised:
                machine.run(entry)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    def test_adaptive_bypass_is_per_run(self, name, scheme):
        # Two runs on one machine: the second re-warms every cleared
        # slot and both stay bit-identical to a non-fused engine.
        turbo, _ = _observe(name, scheme, "turbo", runs=2)
        assert turbo == _observe(name, scheme, "translate", runs=2)[0]
