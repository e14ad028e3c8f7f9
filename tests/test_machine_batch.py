"""Tests for the batched multi-config runner (`repro.machine.batch`):
bit-identity against per-cell sequential runs, divergence analysis and
fallback triggers, shared-space validation, and the CALL/RET plumbing."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.nodes import IRError, Module
from repro.ir.verifier import verify_module
from repro.machine.batch import (
    BatchCell,
    BatchDivergence,
    BatchMachine,
    analyze_modules,
    run_batch,
)
from repro.machine.config import MachineConfig, paper_like_memory
from repro.machine.machine import Machine
from repro.mem.address import AddressSpace
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
)
from repro.workloads.registry import make_workload


DISTANCES = (2, 4, 8, 16)


def fast_config(memory=None) -> MachineConfig:
    return MachineConfig(memory=memory or paper_like_memory(), engine="fast")


def build_kernel(n=80, distance=None, branchy=False):
    """A small gather loop (optionally with a prefetch at ``distance``)."""
    space = AddressSpace()
    b_seg = space.allocate("B", [(i * 7) % n for i in range(n)], elem_size=8)
    t_seg = space.allocate("T", [i * 3 + 1 for i in range(n)], elem_size=8)
    module = Module("kernel")
    b = IRBuilder(module)
    b.function("main")
    entry, loop, done = b.blocks("entry", "loop", "done")
    b.at(entry)
    b.jmp(loop)
    b.at(loop)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 0)], name="acc")
    ba = b.gep(b_seg.base, i, 8)
    idx = b.load(ba, name="idx")
    ta = b.gep(t_seg.base, idx, 8)
    if distance is not None:
        adv = b.add(i, distance, name="adv")
        clamped = b.min(adv, n - 1, name="clamped")
        pa = b.gep(b_seg.base, clamped, 8)
        pidx = b.load(pa, name="pidx")
        pt = b.gep(t_seg.base, pidx, 8)
        b.prefetch(pt)
    value = b.load(ta, name="value")
    if branchy:
        big = b.lt(50, value, name="big")
        bonus = b.select(big, 2, 1, name="bonus")
        acc2 = b.add(acc, bonus, name="acc2")
    else:
        acc2 = b.add(acc, value, name="acc2")
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, loop, i2)
    b.add_incoming(acc, loop, acc2)
    cond = b.lt(i2, n, name="cond")
    b.br(cond, loop, done)
    b.at(done)
    b.ret(acc2)
    module.finalize()
    verify_module(module, strict=True)
    return module, space


def assert_identical(outcome, cells, function="main", args=()):
    """Every batch result must be bit-identical to a fresh sequential
    run of the same cell (fresh module+space so caches start cold)."""
    rebuilt = [
        Machine(module, space, config=cell.config).run(function, args=args)
        for cell, (module, space) in zip(cells.cells_spec, cells.rebuilds)
    ]
    for index, (seq, bat) in enumerate(zip(rebuilt, outcome.results)):
        assert bat.value == seq.value, f"cell {index} value"
        assert bat.counters.as_dict() == seq.counters.as_dict(), (
            f"cell {index} counters"
        )


class _CellSet:
    """Cells plus an identical rebuild for the sequential comparison."""

    def __init__(self, builders_and_configs):
        self.cells_spec = []
        self.rebuilds = []
        for build, config in builders_and_configs:
            module, space = build()
            self.cells_spec.append(BatchCell(module, space, config))
            self.rebuilds.append(build())

    @property
    def cells(self):
        return self.cells_spec


class TestUniformBatches:
    def test_cache_scale_sweep_bit_identical(self):
        memory = paper_like_memory()
        cells = _CellSet(
            [
                (lambda: build_kernel(), fast_config(memory.scaled(s)))
                for s in (1, 2, 4, 8)
            ]
        )
        outcome = run_batch(cells.cells)
        assert outcome.batched
        assert_identical(outcome, cells)

    def test_identical_cells_still_batch(self):
        cells = _CellSet([(build_kernel, fast_config()) for _ in range(3)])
        outcome = run_batch(cells.cells)
        assert outcome.batched
        assert_identical(outcome, cells)

    def test_branchy_kernel_uniform_control_flow(self):
        memory = paper_like_memory()
        cells = _CellSet(
            [
                (
                    lambda: build_kernel(branchy=True),
                    fast_config(memory.scaled(s)),
                )
                for s in (1, 4)
            ]
        )
        outcome = run_batch(cells.cells)
        assert outcome.batched
        assert_identical(outcome, cells)


class TestDivergentImmediates:
    def test_distance_sweep_bit_identical(self):
        cells = _CellSet(
            [
                (lambda d=d: build_kernel(distance=d), fast_config())
                for d in DISTANCES
            ]
        )
        outcome = run_batch(cells.cells)
        assert outcome.batched
        assert_identical(outcome, cells)

    def test_aj_injected_distance_sweep(self):
        def build(d):
            module, space = make_workload("micro-tiny").build()
            AinsworthJonesPass(AinsworthJonesConfig(distance=d)).run(module)
            return module, space

        cells = _CellSet(
            [(lambda d=d: build(d), fast_config()) for d in DISTANCES]
        )
        outcome = run_batch(cells.cells)
        assert outcome.batched
        assert_identical(outcome, cells)

    def test_divergent_registers_detected(self):
        modules = []
        for d in (4, 8):
            module, _ = build_kernel(distance=d)
            modules.append(module)
        plans = analyze_modules(modules)
        divergent = plans["main"].divergent
        # The prefetch slice computed from the distance is divergent...
        assert "adv" in divergent
        assert "clamped" in divergent
        assert "pidx" in divergent
        # ...but the demand stream and induction variable stay uniform.
        assert "i" not in divergent
        assert "idx" not in divergent
        assert "acc2" not in divergent


class TestFallbacks:
    def test_single_cell_runs_sequentially(self):
        module, space = build_kernel()
        outcome = run_batch([BatchCell(module, space, fast_config())])
        assert not outcome.batched
        assert outcome.reason == "single cell"
        assert len(outcome.results) == 1

    def test_structural_misalignment_falls_back(self):
        def build(d):
            module, space = make_workload("micro-tiny").build()
            AinsworthJonesPass(AinsworthJonesConfig(distance=d)).run(module)
            return module, space

        # AJ folds the loop increment into the advance at distance==1,
        # so the d=1 module has one fewer instruction: misaligned.
        cells = _CellSet(
            [(lambda d=d: build(d), fast_config()) for d in (1, 2)]
        )
        outcome = run_batch(cells.cells)
        assert not outcome.batched
        assert "instruction counts differ" in outcome.reason
        assert_identical(outcome, cells)

    def test_divergent_branch_condition_falls_back(self):
        def build(limit):
            module = Module("m")
            b = IRBuilder(module)
            b.function("main")
            entry, loop, done = b.blocks("entry", "loop", "done")
            b.at(entry)
            b.jmp(loop)
            b.at(loop)
            i = b.phi([(entry, 0)], name="i")
            i2 = b.add(i, 1, name="i2")
            b.add_incoming(i, loop, i2)
            cond = b.lt(i2, limit, name="cond")
            b.br(cond, loop, done)
            b.at(done)
            b.ret(i2)
            module.finalize()
            return module, AddressSpace()

        cells = _CellSet(
            [(lambda n=n: build(n), fast_config()) for n in (10, 20)]
        )
        outcome = run_batch(cells.cells)
        assert not outcome.batched
        assert "divergent branch condition" in outcome.reason
        assert_identical(outcome, cells)
        assert [r.value for r in outcome.results] == [10, 20]

    def test_divergent_store_falls_back(self):
        def build(value):
            space = AddressSpace()
            seg = space.allocate("S", [0] * 8, elem_size=8)
            module = Module("m")
            b = IRBuilder(module)
            b.function("main")
            b.at(b.block("entry"))
            b.store(seg.base, value)
            loaded = b.load(seg.base, name="loaded")
            b.ret(loaded)
            module.finalize()
            return module, space

        cells = _CellSet(
            [(lambda v=v: build(v), fast_config()) for v in (7, 9)]
        )
        outcome = run_batch(cells.cells)
        assert not outcome.batched
        assert "divergent store" in outcome.reason
        assert_identical(outcome, cells)

    def test_divergent_work_amount_falls_back(self):
        def build(amount):
            module = Module("m")
            b = IRBuilder(module)
            b.function("main")
            b.at(b.block("entry"))
            b.work(amount)
            b.ret(0)
            module.finalize()
            return module, AddressSpace()

        cells = _CellSet(
            [(lambda a=a: build(a), fast_config()) for a in (5, 6)]
        )
        outcome = run_batch(cells.cells)
        assert not outcome.batched
        assert "divergent WORK amount" in outcome.reason
        assert_identical(outcome, cells)

    def test_cost_param_mismatch_falls_back(self):
        module_a, space_a = build_kernel()
        module_b, space_b = build_kernel()
        memory = paper_like_memory()
        outcome = run_batch(
            [
                BatchCell(module_a, space_a, fast_config(memory)),
                BatchCell(
                    module_b,
                    space_b,
                    MachineConfig(memory=memory, engine="fast", alu_cost=2),
                ),
            ]
        )
        assert not outcome.batched
        assert "alu_cost differs" in outcome.reason

    def test_space_mismatch_falls_back(self):
        def build(values):
            space = AddressSpace()
            seg = space.allocate("B", list(values), elem_size=8)
            module = Module("m")
            b = IRBuilder(module)
            b.function("main")
            b.at(b.block("entry"))
            loaded = b.load(seg.base, name="loaded")
            b.ret(loaded)
            module.finalize()
            return module, space

        cells = _CellSet(
            [
                (lambda: build([1, 2, 3]), fast_config()),
                (lambda: build([1, 2, 4]), fast_config()),
            ]
        )
        outcome = run_batch(cells.cells)
        assert not outcome.batched
        assert "initial contents differ" in outcome.reason
        assert_identical(outcome, cells)


class TestCalls:
    def _build(self, distance):
        space = AddressSpace()
        seg = space.allocate(
            "T", [(i * 5) % 97 for i in range(128)], elem_size=8
        )
        module = Module("m")
        b = IRBuilder(module)
        b.function("probe", params=["i"])
        b.at(b.block("entry"))
        adv = b.add("i", distance, name="adv")
        clamped = b.min(adv, 127, name="clamped")
        pa = b.gep(seg.base, clamped, 8)
        b.prefetch(pa)
        ta = b.gep(seg.base, "i", 8)
        value = b.load(ta, name="value")
        offset = b.add(value, distance, name="offset")
        b.ret(offset)

        b.function("main")
        entry, loop, done = b.blocks("entry", "loop", "done")
        b.at(entry)
        b.jmp(loop)
        b.at(loop)
        i = b.phi([(entry, 0)], name="i")
        acc = b.phi([(entry, 0)], name="acc")
        value = b.call("probe", [i], name="value")
        masked = b.mul(value, 0, name="masked")
        acc2 = b.add(acc, masked, name="acc2")
        i2 = b.add(i, 1, name="i2")
        b.add_incoming(i, loop, i2)
        b.add_incoming(acc, loop, acc2)
        cond = b.lt(i2, 64, name="cond")
        b.br(cond, loop, done)
        b.at(done)
        b.ret(acc2)
        module.finalize()
        verify_module(module, strict=True)
        return module, space

    def test_divergent_callee_return_bit_identical(self):
        # probe's return value depends on the per-cell distance, so the
        # interprocedural fixpoint must mark the CALL dst divergent; the
        # caller then masks it so control flow stays uniform.
        cells = _CellSet(
            [(lambda d=d: self._build(d), fast_config()) for d in (3, 9)]
        )
        plans = analyze_modules([c.module for c in cells.cells])
        assert plans["probe"].ret_divergent
        assert "value" in plans["main"].divergent
        outcome = run_batch(cells.cells)
        assert outcome.batched
        assert_identical(outcome, cells)


class TestBatchMachineSurface:
    def test_unknown_function_raises(self):
        module_a, space_a = build_kernel()
        module_b, space_b = build_kernel()
        machine = BatchMachine(
            [
                BatchCell(module_a, space_a, fast_config()),
                BatchCell(module_b, space_b, fast_config()),
            ]
        )
        with pytest.raises(IRError, match="no function"):
            machine.run("nope")

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchMachine([])

    def test_run_twice_continues_clocks(self):
        """Counters accumulate across runs exactly as Machine's do."""
        module_a, space_a = build_kernel()
        module_b, space_b = build_kernel()
        memory = paper_like_memory()
        machine = BatchMachine(
            [
                BatchCell(module_a, space_a, fast_config(memory)),
                BatchCell(module_b, space_b, fast_config(memory.scaled(4))),
            ]
        )
        first = machine.run()
        second = machine.run()
        # Second run sees warm caches: strictly fewer or equal cycles.
        for f, s in zip(first, second):
            assert s.counters.cycles <= f.counters.cycles

        seq_module, seq_space = build_kernel()
        seq = Machine(seq_module, seq_space, config=fast_config(memory))
        seq_first = seq.run()
        seq_second = seq.run()
        assert first[0].counters.as_dict() == seq_first.counters.as_dict()
        assert second[0].counters.as_dict() == seq_second.counters.as_dict()


# ----------------------------------------------------------------------
# Shadow cells: same-config cells run on their leader's timing while
# their memory ops touch the leader's lines, else the batch re-runs
# plain.  Every case compares bit for bit with sequential turbo runs.
# ----------------------------------------------------------------------
def turbo_config(memory=None) -> MachineConfig:
    return MachineConfig(memory=memory or paper_like_memory(), engine="turbo")


def build_shadow_kernel(
    d, split=None, store=False, tail=False, loop=True, stride=8,
    load_stride=8,
):
    """A loop of 40 iterations over a 64-element array ``A`` (8 lines)
    whose per-cell immediate ``d`` moves one prefetch.

    * ``split=None``: the prefetch goes to ``A[min(i + d, 7)]``, always
      line 0 (a bucket in one line), and the cell returns
      ``sum(A[min(i + d, 7)]) + d`` — a per-cell value.
    * ``split=K``: the prefetch goes to line 0 for ``i < K`` and to
      line ``d`` after, so lines agree for ``K`` iterations; line 0 is
      resident (the loop loads ``A[i & 7]``), line ``d > 0`` is not.
    * ``store``: each iteration first increments ``A[i & 7]`` in place.
    * ``tail``: ``A`` is 5 elements, one partly mapped line, and the
      prefetch goes to ``A[(i & 1) + d]``: mapped at ``d = 0``, in the
      unmapped tail of the same line at ``d = 5``.
    * ``loop=False``: straight-line code (no fused nest, so the per-block
      chains run it) that loads ``A[0]``, prefetches ``A + stride * d``
      and returns ``A[0]`` plus the word at ``A + load_stride * d``.
    """
    space = AddressSpace()
    n = 5 if tail else 64
    a_seg = space.allocate("A", [i * 3 + 1 for i in range(n)], elem_size=8)
    module = Module("shadow")
    b = IRBuilder(module)
    b.function("main")
    if not loop:
        (entry,) = b.blocks("entry")
        b.at(entry)
        first = b.load(a_seg.base, name="first")
        b.prefetch(b.gep(a_seg.base, b.add(d, 0, name="far"), stride))
        near = b.load(
            b.gep(a_seg.base, b.add(d, 0, name="dn"), load_stride)
        )
        b.ret(b.add(first, near, name="sum"))
        module.finalize()
        verify_module(module, strict=True)
        return module, space
    entry, body, done = b.blocks("entry", "loop", "done")
    b.at(entry)
    b.jmp(body)
    b.at(body)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 0)], name="acc")
    j = b.and_(i, 3 if tail else 7, name="j")
    ja = b.gep(a_seg.base, j, 8, name="ja")
    value = b.load(ja, name="value")
    if store:
        b.store(ja, b.add(value, 1, name="bumped"))
    if tail:
        target = b.add(b.and_(i, 1, name="odd"), d, name="target")
        b.prefetch(b.gep(a_seg.base, target, 8))
        acc2 = b.add(acc, value, name="acc2")
    elif split is None:
        target = b.min(b.add(i, d, name="adv"), 7, name="clamped")
        ahead = b.load(b.gep(a_seg.base, target, 8), name="ahead")
        b.prefetch(b.gep(a_seg.base, target, 8))
        acc2 = b.add(b.add(acc, ahead, name="sum"), d, name="acc2")
    else:
        early = b.lt(i, split, name="early")
        line = b.select(early, 0, d, name="line")
        b.prefetch(b.gep(a_seg.base, line, 64))
        acc2 = b.add(acc, value, name="acc2")
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, body, i2)
    b.add_incoming(acc, body, acc2)
    b.br(b.lt(i2, 40, name="cond"), body, done)
    b.at(done)
    b.ret(acc2)
    module.finalize()
    verify_module(module, strict=True)
    return module, space


def run_shadow_batch(distances, shared_space=False, **kernel):
    """Batch one same-config cell per distance; return the outcome and
    each cell's sequential turbo ``(value, counters)``."""
    config = turbo_config()
    builds = [build_shadow_kernel(d, **kernel) for d in distances]
    if shared_space:
        builds = [(module, builds[0][1]) for module, _ in builds]
    outcome = run_batch([BatchCell(m, s, config) for m, s in builds])
    expected = []
    for d in distances:
        module, space = build_shadow_kernel(d, **kernel)
        result = Machine(module, space, config=config).run()
        expected.append((result.value, result.counters.as_dict()))
    got = [(r.value, r.counters.as_dict()) for r in outcome.results]
    return outcome, got, expected


class TestShadowCells:
    def test_same_line_cells_complete_as_shadows(self):
        outcome, got, expected = run_shadow_batch((2, 4, 8))
        assert outcome.batched
        assert (outcome.shadowed, outcome.shadow_aborts) == (2, 0)
        assert got == expected

    def test_divergent_return_values_stay_per_cell(self):
        outcome, got, expected = run_shadow_batch((1, 3, 9))
        assert (outcome.shadowed, outcome.shadow_aborts) == (2, 0)
        assert len({value for value, _ in got}) == 3
        assert got == expected

    @pytest.mark.parametrize("split", [1, 5, 39])
    def test_lines_agree_then_differ(self, split):
        outcome, got, expected = run_shadow_batch((0, 5, 3), split=split)
        assert (outcome.shadowed, outcome.shadow_aborts) == (0, 1)
        assert got == expected
        # The shadows' own lines are not the leader's resident line 0:
        # their timing really differs from the leader's.
        assert got[1][1] != got[0][1]

    def test_lines_that_never_split_stay_shadowed(self):
        outcome, got, expected = run_shadow_batch((0, 5, 3), split=40)
        assert (outcome.shadowed, outcome.shadow_aborts) == (2, 0)
        assert got == expected

    @pytest.mark.parametrize("shared_space", [False, True])
    def test_abort_reruns_from_the_initial_image(self, shared_space):
        outcome, got, expected = run_shadow_batch(
            (0, 5, 3), split=5, store=True, shared_space=shared_space
        )
        assert (outcome.shadowed, outcome.shadow_aborts) == (0, 1)
        assert got == expected

    def test_same_line_but_unmapped_tail_aborts(self):
        outcome, got, expected = run_shadow_batch((0, 5), tail=True)
        assert (outcome.shadowed, outcome.shadow_aborts) == (0, 1)
        assert expected[1][1]["sw_prefetch_dropped_unmapped"] == 40
        assert expected[0][1]["sw_prefetch_dropped_unmapped"] == 0
        assert got == expected

    @pytest.mark.parametrize(
        "stride, load_stride, shadowed, aborts",
        [(8, 8, 2, 0), (64, 8, 0, 1), (8, 64, 0, 1)],
    )
    def test_per_block_chains_compare_shadows(
        self, stride, load_stride, shadowed, aborts
    ):
        outcome, got, expected = run_shadow_batch(
            (0, 1, 2), loop=False, stride=stride, load_stride=load_stride
        )
        assert outcome.batched
        assert (outcome.shadowed, outcome.shadow_aborts) == (shadowed, aborts)
        assert got == expected
