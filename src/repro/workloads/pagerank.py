"""CRONO-style PageRank (pull variant, fixed-point arithmetic).

Per iteration, each vertex accumulates the contributions of its
in-neighbours: ``acc += contrib[col[j]]`` — the delinquent indirect load.
Ranks are 16.16 fixed-point integers (the memory access pattern, the
object of study, is identical to the floating-point original).
"""

from __future__ import annotations

import random

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import Workload
from repro.workloads.csr_common import (
    VERTEX_ELEM,
    allocate_csr,
    allocate_vertex_state,
    csr_values,
    vertex_values,
)
from repro.workloads.graphs import CSRGraph, Dataset

FIXED_ONE = 1 << 16


class PageRankWorkload(Workload):
    """PageRank power iterations (paper Table 3: PR)."""

    name = "PR"
    nested = True

    def __init__(self, dataset: Dataset, iterations: int = 1) -> None:
        self.dataset = dataset
        self.iterations = max(1, int(iterations))
        self.name = f"PR/{dataset.name}"

    def _inputs(self) -> dict[str, list]:
        graph: CSRGraph = self.dataset.build()
        rng = random.Random(self.dataset.seed + 7)
        values = csr_values(graph)
        contrib = values["contrib"] = vertex_values(graph.n, 0)
        for index in range(graph.n):
            contrib[index] = rng.randrange(FIXED_ONE)
        return values

    def _build(self) -> tuple[Module, AddressSpace]:
        n, m = self.dataset.shape()
        space = AddressSpace(fill=self._inputs)
        row, col = allocate_csr(space, n, m)
        contrib = allocate_vertex_state(space, "contrib", n)
        new_rank = space.allocate("new_rank", n + 1, elem_size=8)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, it_h, u_h, inner_h, u_latch, it_latch, done = b.blocks(
            "entry", "it_h", "u_h", "inner_h", "u_latch", "it_latch", "done"
        )

        b.at(entry)
        b.jmp(it_h)

        b.at(it_h)
        it = b.phi([(entry, 0)], name="it")
        b.jmp(u_h)

        b.at(u_h)
        u = b.phi([(it_h, 0)], name="u")
        ra = b.gep(row.base, u, 8, name="ra")
        rs = b.load(ra, name="rs")
        u1 = b.add(u, 1, name="u1")
        ra2 = b.gep(row.base, u1, 8, name="ra2")
        re = b.load(ra2, name="re")
        has_edges = b.lt(rs, re, name="has.edges")
        b.br(has_edges, inner_h, u_latch)

        b.at(inner_h)
        j = b.phi([(u_h, rs)], name="j")
        acc = b.phi([(u_h, 0)], name="acc")
        ca = b.gep(col.base, j, 8, name="ca")
        v = b.load(ca, name="v")
        pa = b.gep(contrib.base, v, VERTEX_ELEM, name="pa")
        pv = b.load(pa, name="pv")  # the delinquent load
        acc2 = b.add(acc, pv, name="acc2")
        j2 = b.add(j, 1, name="j2")
        b.add_incoming(j, inner_h, j2)
        b.add_incoming(acc, inner_h, acc2)
        more = b.lt(j2, re, name="more")
        b.br(more, inner_h, u_latch)

        b.at(u_latch)
        rank = b.phi([(u_h, 0), (inner_h, acc2)], name="rank")
        # new_rank[u] = (1-d) + d * acc, fixed point with d = 0.85.
        damped = b.mul(rank, 55705, name="damped")  # 0.85 * 2^16
        shifted = b.shr(damped, 16, name="shifted")
        base_rank = b.add(shifted, 9830, name="base.rank")  # 0.15 * 2^16
        na = b.gep(new_rank.base, u, 8, name="na")
        b.store(na, base_rank)
        u2 = b.add(u, 1, name="u2")
        b.add_incoming(u, u_latch, u2)
        more_u = b.lt(u2, n, name="more.u")
        b.br(more_u, u_h, it_latch)

        b.at(it_latch)
        it2 = b.add(it, 1, name="it2")
        b.add_incoming(it, it_latch, it2)
        more_it = b.lt(it2, self.iterations, name="more.it")
        b.br(more_it, it_h, done)

        b.at(done)
        b.ret(it2)

        module.finalize()
        return module, space
