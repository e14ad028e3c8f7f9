"""CRONO-style depth-first traversal with an explicit stack.

Same indirect pattern as BFS (``visited[col[j]]``) but LIFO work order,
which gives different temporal locality on the vertex-state array.
"""

from __future__ import annotations

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import Workload
from repro.workloads.csr_common import (
    VERTEX_ELEM,
    allocate_csr,
    allocate_vertex_state,
    allocate_worklist,
    csr_values,
    vertex_values,
    worklist_values,
)
from repro.workloads.graphs import CSRGraph, Dataset


class DFSWorkload(Workload):
    """Depth-first search from a source vertex (paper Table 3: DFS)."""

    name = "DFS"
    nested = True

    def __init__(self, dataset: Dataset, source: int = 0) -> None:
        self.dataset = dataset
        self.source = source
        self.name = f"DFS/{dataset.name}"

    def _inputs(self) -> dict[str, list]:
        graph: CSRGraph = self.dataset.build()
        values = csr_values(graph)
        values["visited"] = vertex_values(graph.n, 0)
        values["visited"][self.source] = 1
        values["stack"] = worklist_values(graph.n, self.source)
        return values

    def _build(self) -> tuple[Module, AddressSpace]:
        n, m = self.dataset.shape()
        space = AddressSpace(fill=self._inputs)
        row, col = allocate_csr(space, n, m)
        visited = allocate_vertex_state(space, "visited", n)
        stack = allocate_worklist(space, "stack", n)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, outer_h, inner_h, outer_latch, done = b.blocks(
            "entry", "outer_h", "inner_h", "outer_latch", "done"
        )

        b.at(entry)
        b.jmp(outer_h)

        b.at(outer_h)
        sp = b.phi([(entry, 1)], name="sp")
        visits = b.phi([(entry, 0)], name="visits")
        sp2 = b.sub(sp, 1, name="sp2")
        sa = b.gep(stack.base, sp2, 8, name="sa")
        u = b.load(sa, name="u")
        ra = b.gep(row.base, u, 8, name="ra")
        rs = b.load(ra, name="rs")
        u1 = b.add(u, 1, name="u1")
        ra2 = b.gep(row.base, u1, 8, name="ra2")
        re = b.load(ra2, name="re")
        visits2 = b.add(visits, 1, name="visits2")
        has_neighbours = b.lt(rs, re, name="has.nb")
        b.br(has_neighbours, inner_h, outer_latch)

        b.at(inner_h)
        j = b.phi([(outer_h, rs)], name="j")
        sp_i = b.phi([(outer_h, sp2)], name="sp.i")
        ca = b.gep(col.base, j, 8, name="ca")
        v = b.load(ca, name="v")
        va = b.gep(visited.base, v, VERTEX_ELEM, name="va")
        vv = b.load(va, name="vv")  # the delinquent load
        seen = b.ne(vv, 0, name="seen")
        b.store(va, 1)
        slot = b.gep(stack.base, sp_i, 8, name="slot")
        b.store(slot, v)
        sp_next = b.add(sp_i, 1, name="sp.p1")
        sp2_i = b.select(seen, sp_i, sp_next, name="sp2.i")
        j2 = b.add(j, 1, name="j2")
        b.add_incoming(j, inner_h, j2)
        b.add_incoming(sp_i, inner_h, sp2_i)
        more = b.lt(j2, re, name="more")
        b.br(more, inner_h, outer_latch)

        b.at(outer_latch)
        sp3 = b.phi([(outer_h, sp2), (inner_h, sp2_i)], name="sp3")
        pending = b.gt(sp3, 0, name="pending")
        b.add_incoming(sp, outer_latch, sp3)
        b.add_incoming(visits, outer_latch, visits2)
        b.br(pending, outer_h, done)

        b.at(done)
        b.ret(visits2)

        module.finalize()
        return module, space
