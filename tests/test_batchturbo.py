"""The batched superblock tier every batched sweep runs: shared fusion
verdicts with the turbo engine, guarded-nest discovery and execution,
budget-boundary replay exactness, the ``run_batch`` contract and its
fallback plumbing, and the service/CLI surfaces that report whether a
sweep group ran batched."""

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
from repro.machine.fusion import (
    GuardedUnit,
    discover_units,
    flatten_unit,
    unit_depth,
)
from repro.machine.interpreter import ExecutionLimitExceeded
from repro.machine.machine import Machine
from repro.machine.superblock import compile_turbo
from repro.mem.address import AddressSpace
from repro.workloads.registry import TINY_SUITE, make_workload
from tests.conftest import tiny_memory
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
# Fusion-verdict agreement: turbo and batchturbo accept the same nests
# ----------------------------------------------------------------------
class TestVerdictAgreement:
    @pytest.mark.parametrize("name", sorted(TINY_SUITE))
    def test_turbo_and_batchturbo_fuse_the_same_nests(self, name):
        instance = make_workload(name, "tiny")
        module, _ = instance.build()
        entry = instance.entry
        tcf = compile_turbo(module.functions[entry])
        turbo_headers = {sb.header for sb in tcf.superblocks()}

        cells = []
        for _ in range(2):
            cell_instance = make_workload(name, "tiny")
            cell_module, cell_space = cell_instance.build()
            cells.append(
                BatchCell(cell_module, cell_space, fast_config(tiny_memory()))
            )
        bm = BatchMachine(cells)
        btf = bm._compile(entry)
        batch_headers = {sb.header for sb in btf.superblocks()}

        # Same fusability verdict on every loop nest of the entry
        # function — neither codegen declines a nest the other takes.
        assert batch_headers == turbo_headers
        # And both agree with the shared discovery module, including
        # nesting depth.
        units = discover_units(module.functions[entry])
        assert turbo_headers == set(units)
        for sb in btf.superblocks():
            assert sb.depth == unit_depth(units[sb.header])


# ----------------------------------------------------------------------
# Budget boundaries: guard bails must replay to the exact instruction
# ----------------------------------------------------------------------
class TestBudgetBoundaryReplay:
    def test_budget_sweep_matches_sequential_at_every_boundary(self):
        base = fast_config(tiny_memory())
        module, space, _ = build_guarded_nest(outer=24, inner=4)
        total = (
            Machine(module, space, config=base)
            .run("main")
            .counters.instructions
        )
        assert total > 40

        step = max(1, total // 30)
        for budget in range(1, total + step + 1, step):
            config = replace(base, max_instructions=budget)
            sequential = []
            for scale in (1, 4):
                cfg = replace(config, memory=tiny_memory().scaled(scale))
                seq_module, seq_space, _ = build_guarded_nest(
                    outer=24, inner=4
                )
                try:
                    sequential.append(
                        ("ok",)
                        + run_sequential(seq_module, seq_space, cfg)
                    )
                except ExecutionLimitExceeded:
                    sequential.append(("limit",))

            cells = []
            for scale in (1, 4):
                cfg = replace(config, memory=tiny_memory().scaled(scale))
                cell_module, cell_space, _ = build_guarded_nest(
                    outer=24, inner=4
                )
                cells.append(BatchCell(cell_module, cell_space, cfg))
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
            # The superblock guard must decline bulk stepping before it
            # could overrun the budget: at every boundary the batched
            # run raises exactly when the sequential runs raise, and
            # matches them bit-for-bit when it does not.
            assert batched == sequential, f"budget {budget}"


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
