"""Turbo-tier tests: nest-fusion shape, steady-state bulk stepping,
observation-point guards, the tracing bypass, and the adaptive
short-trip fallback.

Cross-engine bit-identicality over random programs lives in the
``repro.qa`` oracle and ``tests/test_machine_engines.py``; this file
pins down the *structural* behaviour of the superblock compiler and the
dispatch-loop contract around it.
"""

from __future__ import annotations

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.machine.blockengine import _ADAPT_WARMUP
from repro.machine.config import MachineConfig
from repro.machine.interpreter import ExecutionLimitExceeded
from repro.machine.machine import Machine
from repro.machine.superblock import TurboCompiledFunction, compile_turbo
from repro.mem.address import AddressSpace
from tests.conftest import (
    build_indirect_loop,
    build_nested_indirect,
    build_sum_loop,
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
        tcf = compile_turbo(module.functions["main"])
        assert isinstance(tcf, TurboCompiledFunction)
        fused = tcf.superblocks()
        assert [sb.header for sb in fused] == ["loop"]
        assert fused[0].depth == 1
        assert fused[0].bound_cycles > 0
        assert fused[0].bound_retired > 0

    def test_nest_fuses_to_depth_two_and_keeps_inner(self):
        module, _, _ = build_nested_indirect()
        tcf = compile_turbo(module.functions["main"])
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
        tcf = compile_turbo(module.functions["main"])
        assert [sb.header for sb in tcf.superblocks()] == ["inner_h"]

    def test_generated_source_shape(self):
        module, _, _ = build_sum_loop()
        tcf = compile_turbo(module.functions["main"])
        sb = tcf.superblocks()[0]
        assert "def __superblock(R, st, fp):" in sb.source_plain
        # The entry guard and the hoisted observation-point limits.
        assert "_gc = st.next_sample" in sb.source_plain
        assert "_gm = st.max_instructions" in sb.source_plain
        assert "return -1" in sb.source_plain
        # The profiled variant records branches; the plain one must not.
        assert "lbr_push" in sb.source_profiled
        assert "lbr_push" not in sb.source_plain


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
        original = sb.run_plain

        def counting(R, st, fp):
            nonlocal calls
            calls += 1
            return original(R, st, fp)

        sb.run_plain = counting
        try:
            result = machine.run("main")
        finally:
            sb.run_plain = original
        assert result.value == expected
        assert calls == 0, "bulk stepping must be disabled while tracing"

    def test_bulk_stepping_engages_without_tracing(self):
        module, space, expected = build_indirect_loop()
        machine = Machine(module, space, engine="turbo")
        tcf = machine._compile("main")
        calls = 0
        sb = tcf.superblocks()[0]
        original = sb.run_plain

        def counting(R, st, fp):
            nonlocal calls
            calls += 1
            return original(R, st, fp)

        sb.run_plain = counting
        try:
            result = machine.run("main")
        finally:
            sb.run_plain = original
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
        original = sb.run_plain

        def counting(R, st, fp):
            nonlocal calls
            calls += 1
            return original(R, st, fp)

        sb.run_plain = counting
        try:
            result = machine.run("main")
        finally:
            sb.run_plain = original
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
