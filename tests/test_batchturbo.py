"""The batched superblock tier every batched sweep runs: guarded-nest
discovery and execution,
budget-boundary replay exactness, segment ordering and fault identity
of the one-cell-loop-per-segment codegen, the inline software-prefetch
arm, the ``run_batch`` contract and its fallback plumbing, and the
service/CLI surfaces that report whether a sweep group ran batched."""

from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.ir.verifier import verify_module
from repro.machine.batch import (
    BatchCell,
    BatchMachine,
    FALLBACK_CODES,
    run_batch,
)
from repro.machine.batchturbo import compile_fused
from repro.machine.fusion import (
    GuardedUnit,
    discover_units,
    flatten_unit,
    unit_depth,
)
from repro.machine.interpreter import ExecutionLimitExceeded
from repro.machine.machine import Machine
from repro.mem.address import AddressSpace, MemoryError_
from repro.mem.fastpath import MemoryFastPath
from repro.passes.ainsworth_jones import (
    AinsworthJonesConfig,
    AinsworthJonesPass,
)
from repro.qa.corpus import default_corpus_dir, load_case
from repro.qa.generate import build_program
from repro.qa.oracle import OracleConfig, check_batch
from repro.workloads.registry import make_workload
from tests.conftest import tiny_memory
from tests.test_calls import build_two_function_module
from tests.test_machine_batch import build_kernel, fast_config


def build_guarded_nest(
    outer: int = 40, inner: int = 4, enter_on_true: bool = True, seed: int = 7
):
    """``for i: if G[i] (or not G[i]): for j: acc += T[j]`` — an inner
    loop entered conditionally from a guard diamond whose arms rejoin
    at the outer latch (the shape :class:`GuardedUnit` models)."""
    rng = random.Random(seed)
    space = AddressSpace()
    gate_values = [rng.randrange(2) for _ in range(outer + 8)]
    gate = space.allocate("G", gate_values, elem_size=8)
    t_values = [rng.randrange(1 << 10) for _ in range(inner + 8)]
    t_seg = space.allocate("T", t_values, elem_size=8)
    body = sum(t_values[j] for j in range(inner))
    expected = sum(
        body
        for i in range(outer)
        if bool(gate_values[i]) == enter_on_true
    )

    module = Module("guarded_nest")
    b = IRBuilder(module)
    b.function("main")
    entry, outer_h, inner_h, outer_latch, done = b.blocks(
        "entry", "outer_h", "inner_h", "outer_latch", "done"
    )
    b.at(entry)
    b.jmp(outer_h)
    b.at(outer_h)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 0)], name="acc")
    ga = b.gep(gate.base, i, 8, name="ga")
    work = b.load(ga, name="work")
    if enter_on_true:
        b.br(work, inner_h, outer_latch)
    else:
        b.br(work, outer_latch, inner_h)
    b.at(inner_h)
    j = b.phi([(outer_h, 0)], name="j")
    jacc = b.phi([(outer_h, acc)], name="jacc")
    ta = b.gep(t_seg.base, j, 8, name="ta")
    tv = b.load(ta, name="tv")
    jacc2 = b.add(jacc, tv, name="jacc2")
    j2 = b.add(j, 1, name="j2")
    b.add_incoming(j, inner_h, j2)
    b.add_incoming(jacc, inner_h, jacc2)
    cj = b.lt(j2, inner, name="cj")
    b.br(cj, inner_h, outer_latch)
    b.at(outer_latch)
    accm = b.phi([(outer_h, acc), (inner_h, jacc2)], name="accm")
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, outer_latch, i2)
    b.add_incoming(acc, outer_latch, accm)
    ci = b.lt(i2, outer, name="ci")
    b.br(ci, outer_h, done)
    b.at(done)
    b.ret(accm)
    module.finalize()
    verify_module(module, strict=True)
    return module, space, expected


def run_sequential(module, space, config, function="main"):
    result = Machine(module, space, config=config).run(function)
    return result.value, result.counters.as_dict()


def assert_cells_match_sequential(outcome, rebuilds, configs):
    for index, (result, (module, space), config) in enumerate(
        zip(outcome.results, rebuilds, configs)
    ):
        value, counters = run_sequential(module, space, config)
        assert result.value == value, f"cell {index} value"
        assert result.counters.as_dict() == counters, f"cell {index} counters"


# ----------------------------------------------------------------------
# Guarded nests: discovery shape + execution identity
# ----------------------------------------------------------------------
class TestGuardedNestFusion:
    @pytest.mark.parametrize("enter_on_true", [True, False])
    def test_discovery_shape(self, enter_on_true):
        module, _, _ = build_guarded_nest(enter_on_true=enter_on_true)
        units = discover_units(module.functions["main"])
        assert "outer_h" in units
        unit = units["outer_h"]
        assert unit_depth(unit) == 2
        guarded = [n for n in unit.path if isinstance(n, GuardedUnit)]
        assert len(guarded) == 1
        node = guarded[0]
        assert node.guard == "outer_h"
        assert node.skip == "outer_latch"
        assert node.enter_on_true is enter_on_true
        assert node.unit.header == "inner_h"
        assert unit.guards == {"outer_h": "inner_h"}
        # Both guard arms converge on the continuation block.
        assert unit.cont["outer_h"] == "outer_latch"
        assert set(flatten_unit(unit)) == {
            "outer_h",
            "inner_h",
            "outer_latch",
        }
        # The inner loop stays in the map under its own header so a run
        # resumed mid-nest can re-enter bulk stepping there.
        assert "inner_h" in units

    @pytest.mark.parametrize("enter_on_true", [True, False])
    def test_engines_agree_on_guarded_nest(self, enter_on_true):
        config = fast_config(tiny_memory())
        results = {}
        for engine in ("reference", "fast", "turbo"):
            module, space, expected = build_guarded_nest(
                enter_on_true=enter_on_true
            )
            result = Machine(
                module, space, config=replace(config, engine=engine)
            ).run("main")
            assert result.value == expected
            results[engine] = result.counters.as_dict()
        assert results["fast"] == results["reference"]
        assert results["turbo"] == results["reference"]

    @pytest.mark.parametrize("enter_on_true", [True, False])
    def test_batchturbo_bit_identical_on_guarded_nest(self, enter_on_true):
        memory = tiny_memory()
        configs = [fast_config(memory.scaled(s)) for s in (1, 2, 4, 8)]
        cells, rebuilds = [], []
        for config in configs:
            module, space, _ = build_guarded_nest(
                enter_on_true=enter_on_true
            )
            cells.append(BatchCell(module, space, config))
            rebuilds.append(
                build_guarded_nest(enter_on_true=enter_on_true)[:2]
            )
        outcome = run_batch(cells)
        assert outcome.batched
        assert_cells_match_sequential(outcome, rebuilds, configs)


# ----------------------------------------------------------------------
# Budget boundaries: guard bails must replay to the exact instruction
# ----------------------------------------------------------------------
class TestBudgetBoundaryReplay:
    @staticmethod
    def _sweep(build) -> None:
        """Sweep ``max_instructions`` across a two-cell batch of
        ``build()`` programs: at every boundary the batched run raises
        exactly when the sequential runs raise, and matches them
        bit-for-bit when it does not."""
        base = fast_config(tiny_memory())
        module, space, _ = build()
        total = (
            Machine(module, space, config=base)
            .run("main")
            .counters.instructions
        )
        assert total > 40

        step = max(1, total // 30)
        for budget in range(1, total + step + 1, step):
            config = replace(base, max_instructions=budget)
            configs = [
                replace(config, memory=tiny_memory().scaled(scale))
                for scale in (1, 4)
            ]
            sequential = []
            for cfg in configs:
                seq_module, seq_space, _ = build()
                try:
                    sequential.append(
                        ("ok",)
                        + run_sequential(seq_module, seq_space, cfg)
                    )
                except ExecutionLimitExceeded:
                    sequential.append(("limit",))

            cells = [BatchCell(*build()[:2], cfg) for cfg in configs]
            try:
                outcome = run_batch(cells)
            except ExecutionLimitExceeded:
                batched = [("limit",), ("limit",)]
            else:
                assert outcome.batched
                batched = [
                    ("ok", r.value, r.counters.as_dict())
                    for r in outcome.results
                ]
            assert batched == sequential, f"budget {budget}"

    def test_budget_sweep_matches_sequential_at_every_boundary(self):
        # The superblock guard must decline bulk stepping before it
        # could overrun the budget.
        self._sweep(lambda: build_guarded_nest(outer=24, inner=4))

    def test_budget_sweep_on_per_block_chains(self):
        # A CALL in the loop body keeps the loop unfused, so every
        # block runs the N-cell per-block chains and the budget check
        # is the shared dispatch loop's, in the caller and the callee.
        module, _, _ = build_two_function_module(n=30)
        assert not compile_fused(module.function("main")).superblocks()
        self._sweep(lambda: build_two_function_module(n=30))


# ----------------------------------------------------------------------
# One cell loop per segment: ordering and fault identity
# ----------------------------------------------------------------------
def build_slice_kernel(
    distance, n=40, clamp=True, store_clamp=True, ahead=0, trip=None
):
    """An A&J-style gather loop whose divergent slice load reads
    ``B[min(i + distance, n - 1)]`` (unclamped ``B[i + distance]`` with
    ``clamp=False``).  With ``store_clamp`` the next memory op is a
    uniform store rewriting ``B[n - 1]`` every iteration, so once the
    clamp engages the two alias.  ``ahead`` adds a uniform ``T[i + ahead]``
    load after the slice; ``trip`` past ``n`` makes the uniform ``B[i]``
    load fault.  The slice value feeds the prefetch address and the
    (divergent) return value."""
    space = AddressSpace()
    b_seg = space.allocate("B", [(i * 7) % n for i in range(n)], elem_size=8)
    t_seg = space.allocate("T", [i * 3 + 1 for i in range(n)], elem_size=8)
    module = Module("slice_kernel")
    b = IRBuilder(module)
    b.function("main")
    entry, loop, done = b.blocks("entry", "loop", "done")
    b.at(entry)
    b.jmp(loop)
    b.at(loop)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 0)], name="acc")
    slot = b.add(i, distance, name="adv")
    if clamp:
        slot = b.min(slot, n - 1, name="clamped")
    pidx = b.load(b.gep(b_seg.base, slot, 8), name="pidx")
    b.prefetch(b.gep(t_seg.base, pidx, 8))
    if store_clamp:
        b.store(b.gep(b_seg.base, n - 1, 8), b.mul(i, 8, name="i8"))
    if ahead:
        ahead_value = b.load(b.gep(t_seg.base, b.add(i, ahead), 8))
        pidx = b.add(pidx, ahead_value, name="pidx2")
    idx = b.load(b.gep(b_seg.base, i, 8), name="idx")
    value = b.load(b.gep(t_seg.base, b.and_(idx, n - 1), 8), name="value")
    acc2 = b.add(b.add(acc, value, name="accv"), pidx, name="acc2")
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, loop, i2)
    b.add_incoming(acc, loop, acc2)
    b.br(b.lt(i2, trip or n, name="cond"), loop, done)
    b.at(done)
    b.ret(acc2)
    module.finalize()
    verify_module(module, strict=True)
    return module, space


def _sequential_error(module, space, config) -> str:
    with pytest.raises(MemoryError_) as raised:
        Machine(
            module, space, config=replace(config, engine="turbo")
        ).run("main")
    return str(raised.value)


def _batched_error(cells) -> str:
    assert BatchMachine(cells)._compile("main").superblocks()
    with pytest.raises(MemoryError_) as raised:
        run_batch(cells)
    assert type(raised.value) is MemoryError_
    return str(raised.value)


class TestSegmentOrdering:
    DISTANCES = (2, 4, 8)

    def test_divergent_load_sees_store_in_program_order(self):
        config = fast_config(tiny_memory())
        cells = [
            BatchCell(*build_slice_kernel(d), config) for d in self.DISTANCES
        ]
        fused = BatchMachine(cells)._compile("main").superblocks()
        assert [sb.header for sb in fused] == ["loop"]
        outcome = run_batch(cells)
        assert outcome.batched
        turbo = replace(config, engine="turbo")
        values = set()
        for result, distance in zip(outcome.results, self.DISTANCES):
            value, counters = run_sequential(
                *build_slice_kernel(distance), turbo
            )
            assert result.value == value, f"distance {distance} value"
            assert result.counters.as_dict() == counters, (
                f"distance {distance} counters"
            )
            values.add(value)
        # The store really aliases the clamped slice: without it the
        # slice values, and so the return value, change.
        unaliased = run_sequential(
            *build_slice_kernel(2, store_clamp=False), turbo
        )[0]
        assert len(values) == len(self.DISTANCES)
        assert unaliased not in values

    @pytest.mark.parametrize("reread", ["uniform", "divergent"])
    def test_non_ssa_rewrite_after_a_read(self, reread):
        """Non-SSA IR where the loop reads a register before the same
        block rewrites it.  ``uniform``: a divergent op reads uniform
        ``w``; hoisting the rewrite past the cell loop would hand it the
        new value.  ``divergent``: ``x`` is divergent; keeping it in a
        loop-local would hand the read another cell's value."""

        def build(distance, n=24):
            space = AddressSpace()
            t_seg = space.allocate("T", list(range(64)), elem_size=8)
            module = Module("rewrite")
            b = IRBuilder(module)
            b.function("main")
            entry, loop, done = b.blocks("entry", "loop", "done")
            b.at(entry)
            if reread == "uniform":
                b.const(0, name="w")
            else:
                b.add(0, distance, name="x")
            b.jmp(loop)
            b.at(loop)
            i = b.phi([(entry, 0)], name="i")
            acc = b.phi([(entry, 0)], name="acc")
            if reread == "uniform":
                d = b.add("w", distance, name="d")
            else:
                d = b.add("x", i, name="d")
            b.prefetch(b.gep(t_seg.base, b.and_(d, 63, name="dm"), 8))
            if reread == "uniform":
                b.mul(i, 3, name="w")
            else:
                b.add(i, distance, name="x")
            acc2 = b.add(acc, d, name="acc2")
            i2 = b.add(i, 1, name="i2")
            b.add_incoming(i, loop, i2)
            b.add_incoming(acc, loop, acc2)
            b.br(b.lt(i2, n, name="cond"), loop, done)
            b.at(done)
            b.ret(acc2)
            module.finalize()
            verify_module(module, allow_non_ssa=True)
            return module, space

        config = fast_config(tiny_memory())
        cells = [BatchCell(*build(d), config) for d in self.DISTANCES]
        assert BatchMachine(cells)._compile("main").superblocks()
        outcome = run_batch(cells)
        assert outcome.batched
        assert_cells_match_sequential(
            outcome,
            [build(d) for d in self.DISTANCES],
            [replace(config, engine="turbo")] * len(self.DISTANCES),
        )

    @pytest.mark.parametrize("divergent", [False, True])
    def test_functional_fault_matches_sequential_turbo(self, divergent):
        """The uniform ``B[i]`` load runs off the array, behind slice
        and prefetch timing in the same block: the batch raises the
        sequential turbo engine's exact error."""
        n = 40
        base = fast_config(tiny_memory())
        if divergent:
            grid = [(d, base) for d in self.DISTANCES]
        else:
            grid = [
                (4, replace(base, memory=tiny_memory().scaled(s)))
                for s in (1, 2)
            ]

        def build(distance):
            return build_slice_kernel(distance, n=n, trip=n + 4)

        expected = {
            _sequential_error(*build(d), config) for d, config in grid
        }
        cells = [BatchCell(*build(d), config) for d, config in grid]
        assert expected == {_batched_error(cells)}

    def test_divergent_fault_raises_before_later_uniform_fault(self):
        """Cell ``d=8``'s unclamped slice load faults in the same
        iteration as the later uniform ``T[i + 8]`` load: the batch must
        raise the slice fault, as that cell's sequential run does, not
        the uniform load's (a different address)."""
        n = 40
        config = fast_config(tiny_memory())

        def build(distance):
            return build_slice_kernel(
                distance, n=n, clamp=False, store_clamp=False, ahead=8
            )

        first = _sequential_error(*build(8), config)
        other = _sequential_error(*build(2), config)
        assert first != other
        cells = [BatchCell(*build(d), config) for d in self.DISTANCES]
        assert _batched_error(cells) == first


# ----------------------------------------------------------------------
# The inline software-prefetch arm
# ----------------------------------------------------------------------
def _main_path_cell_loops(source: str, header: str = "while True:") -> int:
    """Cell loops (``for _i ...``) directly in the body of the generated
    stepper's first ``while True:`` — one per segment on the iteration's
    main path (exit and guard arms nest deeper)."""
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == header)
    depth = len(lines[start]) - len(lines[start].lstrip()) + 4
    count = 0
    for line in lines[start + 1:]:
        indent = len(line) - len(line.lstrip())
        if line.strip() and indent < depth:
            break
        if indent == depth and line.strip().startswith("for _i"):
            count += 1
    return count


def _aj_ladder(name, distances, scales=(1,)):
    cells = []
    for scale in scales:
        for distance in distances:
            module, space = make_workload(name, "tiny").build()
            AinsworthJonesPass(AinsworthJonesConfig(distance=distance)).run(
                module
            )
            config = fast_config(tiny_memory().scaled(scale))
            cells.append(BatchCell(module, space, config))
    return BatchMachine(cells)


class TestShadowLoops:
    def test_shadow_loop_only_with_a_same_config_class(self):
        entry = make_workload("HJ8-tiny", "tiny").entry
        classes = _aj_ladder("HJ8-tiny", (4, 8))._compile(entry)
        distinct = _aj_ladder("HJ8-tiny", (4,), scales=(1, 2))._compile(
            entry
        )
        assert all(
            "in SHADOWS:" in sb.source for sb in classes.superblocks()
            if "PT[" in sb.source
        )
        assert not any(
            "SHADOWS" in sb.source for sb in distinct.superblocks()
        )

    def test_hj8_bucket_cells_complete_as_shadows(self):
        distances = (2, 4, 8, 64)
        config = fast_config(tiny_memory())
        cells, rebuilds = [], []
        for distance in distances:
            for target in (cells, rebuilds):
                module, space = make_workload("HJ8-tiny", "tiny").build()
                AinsworthJonesPass(
                    AinsworthJonesConfig(distance=distance)
                ).run(module)
                target.append((module, space))
        entry = make_workload("HJ8-tiny", "tiny").entry
        outcome = run_batch(
            [BatchCell(m, s, config) for m, s in cells], function=entry
        )
        assert (outcome.shadowed, outcome.shadow_aborts) == (3, 0)
        for result, (module, space) in zip(outcome.results, rebuilds):
            value, counters = run_sequential(
                module, space, replace(config, engine="turbo"), entry
            )
            assert (result.value, result.counters.as_dict()) == (
                value, counters
            )


class TestInlinePrefetchArm:
    def test_hj8_aj_inner_loop_is_one_cell_loop(self):
        bm = _aj_ladder("HJ8-tiny", (4, 8), scales=(1, 2))
        function = bm._compile(make_workload("HJ8-tiny", "tiny").entry)
        (inner,) = [sb for sb in function.superblocks() if sb.depth == 1]
        assert _main_path_cell_loops(inner.source) == 1
        # The prefetch is answered inline when redundant in the L1.
        assert "sw_prefetch_redundant" in inner.source

    def test_unmapped_tail_of_a_resident_line_is_dropped(self):
        """A 5-element array leaves the tail of its only line unmapped.
        After a load makes the line resident, a prefetch into the tail
        is still an unmapped drop, not a redundant hit."""

        def build(tail):
            space = AddressSpace()
            a_seg = space.allocate("A", [1, 2, 3, 4, 5], elem_size=8)
            module = Module("tail")
            b = IRBuilder(module)
            b.function("main")
            entry, loop, done = b.blocks("entry", "loop", "done")
            b.at(entry)
            b.jmp(loop)
            b.at(loop)
            i = b.phi([(entry, 0)], name="i")
            acc = b.phi([(entry, 0)], name="acc")
            value = b.load(b.gep(a_seg.base, b.and_(i, 3, name="j"), 8))
            b.prefetch(b.gep(a_seg.base, b.add(i, tail, name="t"), 8))
            acc2 = b.add(acc, value, name="acc2")
            i2 = b.add(i, 1, name="i2")
            b.add_incoming(i, loop, i2)
            b.add_incoming(acc, loop, acc2)
            b.br(b.lt(i2, 3, name="cond"), loop, done)
            b.at(done)
            b.ret(acc2)
            module.finalize()
            verify_module(module, strict=True)
            return module, space

        config = fast_config(tiny_memory())
        tails = (5, 6)  # A[5 + i], A[6 + i]: past the end, same line
        expected = []
        for tail in tails:
            value, counters = run_sequential(
                *build(tail), replace(config, engine="reference")
            )
            assert counters["sw_prefetch_dropped_unmapped"] == 3
            expected.append((value, counters))
            assert run_sequential(
                *build(tail), replace(config, engine="turbo")
            ) == (value, counters)
        outcome = run_batch([BatchCell(*build(t), config) for t in tails])
        assert outcome.batched
        assert [
            (r.value, r.counters.as_dict()) for r in outcome.results
        ] == expected

    def test_hj8_aj_ladder_port_calls_under_a_quarter(self):
        bm = _aj_ladder("HJ8-tiny", (4, 8, 16, 32))
        calls = [0]

        def counted(port):
            def call(addr, now, pc):
                calls[0] += 1
                return port(addr, now, pc)

            return call

        bm.prefetch_ports[:] = [counted(p) for p in bm.prefetch_ports]
        results = bm.run(make_workload("HJ8-tiny", "tiny").entry)
        issued = sum(r.counters.sw_prefetch_issued for r in results)
        assert issued > 0
        assert calls[0] < 0.25 * issued, (calls[0], issued)

    def test_prefetch_arms_corpus_case_reaches_every_arm(self, monkeypatch):
        spec = load_case(default_corpus_dir() / "seed-prefetch-arms.json")[
            "spec"
        ]
        census: dict = {}
        port = MemoryFastPath.prefetch

        def classify(self, addr, now, pc):
            mem, line, counters = self.mem, addr >> 6, self._counters
            mapped = mem.space.is_mapped(addr)
            due = bool(mem._mshr) and now >= mem._mshr_next_ready
            in_l1 = line in self._l1_sets[line & self._l1_mask]
            before = (
                counters.sw_prefetch_redundant,
                counters.sw_prefetch_dropped_mshr,
            )
            port(self, addr, now, pc)
            if not mapped:
                arm = "unmapped"
            elif counters.sw_prefetch_dropped_mshr > before[1]:
                arm = "mshr-full"
            elif counters.sw_prefetch_redundant == before[0]:
                arm = "issued"
            else:
                arm = "redundant-mshr"
                for level, sets, mask in (
                    ("l1", self._l1_sets, self._l1_mask),
                    ("l2", self._l2_sets, self._l2_mask),
                    ("llc", self._llc_sets, self._llc_mask),
                ):
                    if line in sets[line & mask]:
                        arm = f"redundant-{level}"
                        break
            if due and in_l1:
                census["drain-due-in-l1"] = census.get("drain-due-in-l1", 0) + 1
            census[arm] = census.get(arm, 0) + 1

        monkeypatch.setattr(MemoryFastPath, "prefetch", classify)
        module, space = build_program(spec)
        config = OracleConfig().machine_config("turbo")
        result = Machine(module, space, config=config).run("main")
        inline = result.counters.sw_prefetch_issued - sum(
            count for arm, count in census.items() if arm != "drain-due-in-l1"
        )
        assert inline > 0  # redundant in the L1, answered without the port
        for arm in (
            "unmapped",
            "drain-due-in-l1",
            "redundant-l2",
            "redundant-llc",
            "redundant-mshr",
            "mshr-full",
            "issued",
        ):
            assert census.get(arm, 0) > 0, (arm, census)
        monkeypatch.undo()
        # The batched tier's arm, both address shapes: uniform cells and
        # divergent A&J slices, bit-identical to sequential runs.
        assert check_batch(spec)["axes"] == {
            "batch-uniform": True,
            "batch-aj": True,
        }


# ----------------------------------------------------------------------
# The run_batch contract + fallback reporting
# ----------------------------------------------------------------------
class TestRunBatchContract:
    """What callers that wrap or rebind ``run_batch`` rely on."""

    def test_run_batch_signature_and_retired_tiers(self):
        import inspect

        from repro.service.api import TuningService

        params = inspect.signature(run_batch).parameters
        assert list(params) == ["cells", "function", "args", "tier"]
        assert params["function"].default == "main"
        assert params["args"].default == ()
        assert params["tier"].default is None
        config = fast_config(tiny_memory())
        cells = [BatchCell(*build_kernel(), config) for _ in range(2)]
        # Four positional arguments with tier=None still run batched.
        outcome = run_batch(cells, "main", (), None)
        assert outcome.batched
        assert not hasattr(outcome, "tier")
        for retired in ("batch", "batchturbo"):
            with pytest.raises(ValueError, match="tier= argument was removed"):
                run_batch(cells, tier=retired)
        # Sweep groups still say whether they ran batched.
        payload = TuningService().sweep(
            "micro-tiny", "tiny", schemes=("aj",), distances=(2, 4)
        )
        (group,) = payload["execution"]["groups"]
        assert group["batched"] is True
        assert "tier" not in group


class TestTierPlumbing:
    def test_turbo_engine_cells_pick_batchturbo(self):
        # The fused tier is the only one: cells of any engine get it.
        for engine in ("turbo", "fast"):
            config = replace(fast_config(tiny_memory()), engine=engine)
            cells = [BatchCell(*build_kernel(), config) for _ in range(2)]
            assert BatchMachine(cells)._compile("main").superblocks(), engine
            assert run_batch(cells).batched, engine

    def test_single_cell_replays(self):
        config = fast_config(tiny_memory())
        outcome = run_batch([BatchCell(*build_kernel(), config)])
        assert not outcome.batched
        assert outcome.reason_code == "single-cell"
        module, space = build_kernel()
        value, _ = run_sequential(module, space, config)
        assert outcome.results[0].value == value

    def test_divergent_cells_replay_with_reason_code(self):
        config = fast_config(tiny_memory())
        cells = [
            BatchCell(*build_kernel(distance=None), config),
            BatchCell(*build_kernel(distance=4), config),
        ]
        outcome = run_batch(cells)
        assert not outcome.batched
        assert outcome.reason_code in FALLBACK_CODES
        rebuilds = [
            build_kernel(distance=None),
            build_kernel(distance=4),
        ]
        assert_cells_match_sequential(
            outcome, rebuilds, [config, config]
        )


# ----------------------------------------------------------------------
# Service + CLI reporting surfaces
# ----------------------------------------------------------------------
class TestServiceSurfaces:
    def test_sweep_reports_batchturbo_tier(self):
        from repro.service.api import TuningService

        service = TuningService()
        payload = service.sweep(
            "micro-tiny",
            "tiny",
            schemes=("aj",),
            distances=(2, 4),
            engine="turbo",
        )
        (group,) = payload["execution"]["groups"]
        assert group["batched"] is True
        assert group["reason_code"] is None
        for cell in payload["cells"]:
            assert cell["batched"] is True

    def test_fallback_sweep_counts_reason_metric(self):
        from repro.service.api import TuningService

        service = TuningService()
        # Distance 1 folds the loop increment into the prefetch
        # advance, changing per-cell instruction shape — a legitimate
        # per-cell fallback.
        payload = service.sweep(
            "micro-tiny",
            "tiny",
            schemes=("aj",),
            distances=(1, 2),
            engine="turbo",
        )
        (group,) = payload["execution"]["groups"]
        assert group["batched"] is False
        assert group["reason_code"] in FALLBACK_CODES
        for cell in payload["cells"]:
            assert cell["batched"] is False
        counters = service.metrics.counters()
        assert (
            counters.get(f"batch.fallback.{group['reason_code']}", 0) >= 1
        )

    def test_misaligned_cell_replays_alone(self):
        """Distance 1 changes the A&J instruction shape: only that cell
        replays, the aligned 2/4/8 cells still batch (as shadows of the
        first, since they share one config and HJ8's inner loop walks
        one line), and every cell equals a fresh single run."""
        from repro.service.api import TuningService, run_to_payload

        service = TuningService()
        payload = service.sweep(
            "HJ8-tiny",
            "tiny",
            schemes=("aj",),
            distances=(1, 2, 4, 8),
            engine="turbo",
        )
        (group,) = payload["execution"]["groups"]
        assert group["batched"] is True
        assert group["reason_code"] == "alignment"
        assert group["replayed_cells"] == 1
        assert [cell["batched"] for cell in payload["cells"]] == [
            False, True, True, True,
        ]
        from repro.cli import _format_sweep_table

        table = _format_sweep_table(SimpleNamespace(**payload))
        assert "aj:batch (1 replayed) (alignment: " in table
        counters = service.metrics.counters()
        assert counters["sweep.batched_cells"] == 3
        assert counters["sweep.fallback_cells"] == 1
        assert counters["sweep.shadowed_cells"] == 2
        assert counters["sweep.shadow_aborts"] == 0
        assert counters["batch.fallback.alignment"] == 1
        fresh = TuningService()
        for cell in payload["cells"]:
            run = fresh.run(
                "HJ8-tiny", "tiny", scheme="aj", distance=cell["distance"],
                engine="turbo",
            )
            assert cell["run"] == run_to_payload(run), cell["distance"]

    def test_sweep_counts_shadow_aborts(self):
        from repro.service.api import TuningService

        service = TuningService()
        service.sweep(
            "BFS-tiny", "tiny", schemes=("aj",), distances=(2, 4),
            engine="turbo",
        )
        counters = service.metrics.counters()
        assert counters["sweep.shadowed_cells"] == 0
        assert counters["sweep.shadow_aborts"] == 1

    def test_sweep_table_shows_executed_tier(self):
        from repro.cli import _format_sweep_table

        def cell(scheme, cached=False, batched=True):
            return {
                "scheme": scheme,
                "distance": 4,
                "cache_scale": 1,
                "cached": cached,
                "batched": batched,
                "run": {"counters": {"cycles": 100.0}},
            }

        result = SimpleNamespace(
            workload="micro-tiny",
            scale="tiny",
            engine="turbo",
            cells=[
                cell("aj"),
                cell("aj", cached=True, batched=None),
                cell("baseline", batched=False),
            ],
            execution={
                "cached_cells": 1,
                "computed_cells": 2,
                "groups": [
                    {
                        "scheme": "aj",
                        "batched": True,
                        "reason": None,
                        "reason_code": None,
                    },
                    {
                        "scheme": "baseline",
                        "batched": False,
                        "reason": "single cell",
                        "reason_code": "single-cell",
                    },
                ],
            },
        )
        table = _format_sweep_table(result)
        sources = [line.split()[-1] for line in table.splitlines()[2:5]]
        assert sources == ["batch", "cache", "replay"]
        assert "aj:batch," in table
        assert "baseline:replay (single-cell: single cell)" in table

    def test_cache_stats_reports_fallback_counters(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        store.merge_metrics(
            {"batch.fallback.divergent-work": 2, "batch.fallback.single-cell": 1}
        )
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "batch fallbacks: 3" in out
        assert "divergent-work=2" in out
        assert "single-cell=1" in out
