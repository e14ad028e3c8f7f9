"""CRONO-style breadth-first search over a CSR graph.

The hot pattern: a frontier queue drives an outer loop; the inner loop
walks ``col[row[u] .. row[u+1])`` and performs the indirect, delinquent
load ``dist[col[j]]`` (one cache line per vertex).  Discovered vertices
are enqueued with the branch-free slot-write + select-advance idiom so
the loop nest stays a clean two-level structure for the passes.
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


class BFSWorkload(Workload):
    """Breadth-first search from a source vertex (paper Table 3: BFS)."""

    name = "BFS"
    nested = True

    def __init__(self, dataset: Dataset, source: int = 0) -> None:
        self.dataset = dataset
        self.source = source
        self.name = f"BFS/{dataset.name}"

    def _inputs(self) -> dict[str, list]:
        graph: CSRGraph = self.dataset.build()
        values = csr_values(graph)
        values["dist"] = vertex_values(graph.n, -1)
        values["dist"][self.source] = 0
        values["queue"] = worklist_values(graph.n, self.source)
        return values

    def _build(self) -> tuple[Module, AddressSpace]:
        n, m = self.dataset.shape()
        space = AddressSpace(fill=self._inputs)
        row, col = allocate_csr(space, n, m)
        dist = allocate_vertex_state(space, "dist", n)
        queue = allocate_worklist(space, "queue", n)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, outer_h, inner_h, outer_latch, done = b.blocks(
            "entry", "outer_h", "inner_h", "outer_latch", "done"
        )

        b.at(entry)
        b.jmp(outer_h)

        b.at(outer_h)
        head = b.phi([(entry, 0)], name="head")
        tail = b.phi([(entry, 1)], name="tail")
        qa = b.gep(queue.base, head, 8, name="qa")
        u = b.load(qa, name="u")
        ra = b.gep(row.base, u, 8, name="ra")
        rs = b.load(ra, name="rs")
        u1 = b.add(u, 1, name="u1")
        ra2 = b.gep(row.base, u1, 8, name="ra2")
        re = b.load(ra2, name="re")
        da_u = b.gep(dist.base, u, VERTEX_ELEM, name="da.u")
        du = b.load(da_u, name="du")
        du1 = b.add(du, 1, name="du1")
        head2 = b.add(head, 1, name="head2")
        has_neighbours = b.lt(rs, re, name="has.nb")
        b.br(has_neighbours, inner_h, outer_latch)

        b.at(inner_h)
        j = b.phi([(outer_h, rs)], name="j")
        tail_i = b.phi([(outer_h, tail)], name="tail.i")
        ca = b.gep(col.base, j, 8, name="ca")
        v = b.load(ca, name="v")
        da = b.gep(dist.base, v, VERTEX_ELEM, name="da")
        dv = b.load(da, name="dv")  # the delinquent load
        visited = b.ge(dv, 0, name="visited")
        new_dist = b.select(visited, dv, du1, name="new.dist")
        b.store(da, new_dist)
        slot = b.gep(queue.base, tail_i, 8, name="slot")
        b.store(slot, v)
        tail2 = b.select(visited, tail_i, b.add(tail_i, 1, name="tail.p1"), name="tail2")
        j2 = b.add(j, 1, name="j2")
        b.add_incoming(j, inner_h, j2)
        b.add_incoming(tail_i, inner_h, tail2)
        more = b.lt(j2, re, name="more")
        b.br(more, inner_h, outer_latch)

        b.at(outer_latch)
        tail3 = b.phi([(outer_h, tail), (inner_h, tail2)], name="tail3")
        pending = b.lt(head2, tail3, name="pending")
        b.add_incoming(head, outer_latch, head2)
        b.add_incoming(tail, outer_latch, tail3)
        b.br(pending, outer_h, done)

        b.at(done)
        b.ret(head2)

        module.finalize()
        return module, space
