"""Workload inputs are generated on first use, and only then.

A workload's build declares its segments by length and hands the
address space one fill; the fill runs the first time anything can
observe the values (``Machine`` construction, ``clone``, ``segment``,
``segments``, ``load``/``store``), never for static consumers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import table3, table4
from repro.machine.machine import Machine
from repro.mem.address import AddressSpace, MemoryError_
from repro.service import api as service_api
from repro.service.api import TuningService
from repro.workloads import graphs
from repro.workloads.registry import SUITE, make_workload

RESULTS = Path(__file__).resolve().parents[1] / "results"


@pytest.fixture()
def fills(monkeypatch):
    """The spaces whose pending fill ran while the test ran, in order."""
    filled = []
    original = AddressSpace.materialize

    def counting(space):
        if space._fill is not None:
            filled.append(space)
        return original(space)

    monkeypatch.setattr(AddressSpace, "materialize", counting)
    return filled


@pytest.fixture()
def generated(monkeypatch):
    """Names of the catalog graphs generated (graph-store misses) while
    the test ran, on an empty graph store."""
    names = []
    original = graphs.Dataset._generate

    def counting(dataset):
        names.append(dataset.name)
        return original(dataset)

    graphs.clear_graph_cache()
    monkeypatch.setattr(graphs.Dataset, "_generate", counting)
    yield names
    graphs.clear_graph_cache()


def tiny_build():
    return make_workload("micro-tiny", "tiny").build()


class TestStaticConsumersFillNothing:
    def test_table3_over_the_small_suite(self, fills, generated):
        result = table3.run("small")
        assert len(result.rows) == len(SUITE)
        assert fills == []
        assert generated == []

    def test_table4_generates_only_the_road_graphs(self, fills, generated):
        result = table4.run("small")
        assert fills == []
        assert sorted(generated) == ["roadNet-CA", "roadNet-PA"]
        committed = (RESULTS / "table4.txt").read_text()
        assert result.to_text() + "\n" == committed

    def test_build_and_layout_fill_nothing(self, fills):
        module, space = tiny_build()
        assert space.total_bytes() > 0
        for segment in space._segments:
            assert space.is_mapped(segment.base)
            assert len(segment) > 0
        assert fills == []

    def test_service_run_answered_from_a_sim_entry(self, fills, machine_runs):
        service = TuningService()
        service.profile("micro-tiny", "tiny")
        assert len(fills) == 1
        del fills[:], machine_runs[:]
        service.run("micro-tiny", "tiny", scheme="baseline")
        assert machine_runs == []
        assert service.metrics.get("sim.hits") == 1
        assert fills == []


class TestFirstUseFillsOnce:
    @pytest.mark.parametrize(
        "observe",
        [
            pytest.param(lambda module, space: Machine(module, space), id="machine"),
            pytest.param(lambda module, space: space.clone(), id="clone"),
            pytest.param(lambda module, space: space.segments(), id="segments"),
            pytest.param(lambda module, space: space.segment("T"), id="segment"),
            pytest.param(
                lambda module, space: space.load(space._segments[0].base),
                id="load",
            ),
            pytest.param(
                lambda module, space: space.store(space._segments[0].base, 7),
                id="store",
            ),
        ],
    )
    def test_each_observer(self, fills, observe):
        module, space = tiny_build()
        observe(module, space)
        assert fills == [space]
        observe(module, space)
        Machine(module, space)
        space.clone()
        assert fills == [space]

    def test_load_and_store_shadows_are_dropped(self, fills):
        _, space = tiny_build()
        assert "load" in vars(space) and "store" in vars(space)
        base = space._segments[0].base
        space.store(base, 41)
        assert "load" not in vars(space) and "store" not in vars(space)
        assert space.load(base) == 41
        assert fills == [space]

    def test_shared_build_fills_once_before_run_batch(self, fills, monkeypatch):
        seen = []
        original = service_api.run_batch

        def checking(cells, *args, **kwargs):
            cells = list(cells)
            seen.append(len(fills))
            assert all(cell.space._fill is None for cell in cells)
            return original(cells, *args, **kwargs)

        monkeypatch.setattr(service_api, "run_batch", checking)
        sweep = TuningService().sweep(
            "micro-tiny", "tiny", schemes=("aj",), distances=(4, 8),
        )
        assert len(sweep["cells"]) == 2
        # The shared build's one fill, at its first clone, before the batch.
        assert seen == [1]
        assert len(fills) == 1


class TestFillContract:
    def test_unlisted_segments_start_zeroed(self):
        space = AddressSpace(fill=lambda: {"a": [1, 2, 3]})
        space.allocate("a", 3)
        space.allocate("b", 2, elem_size=64)
        assert space.segment("a").values == [1, 2, 3]
        assert space.segment("b").values == [0, 0]

    def test_wrong_length_is_refused(self):
        space = AddressSpace(fill=lambda: {"a": [1, 2]})
        space.allocate("a", 3)
        with pytest.raises(MemoryError_, match="3 values"):
            space.segments()

    def test_unknown_segment_is_refused(self):
        space = AddressSpace(fill=lambda: {"nope": [1]})
        space.allocate("a", 1)
        with pytest.raises(MemoryError_, match="unknown"):
            space.materialize()

    def test_hand_built_space_has_nothing_pending(self):
        space = AddressSpace()
        seg = space.allocate("a", 4)
        assert seg.values == [0, 0, 0, 0]
        assert "load" not in vars(space)
