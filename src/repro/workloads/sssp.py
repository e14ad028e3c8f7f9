"""CRONO-style single-source shortest paths (Bellman-Ford rounds).

Each round relaxes every edge: ``dist[col[j]] = min(dist[col[j]],
dist[u] + w[j])``.  The indirect ``dist[col[j]]`` read-modify-write is the
delinquent access.  Relaxation is monotone, so the branch-free min-store
form is exactly equivalent to the conditional original.
"""

from __future__ import annotations

import random

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import GUARD_ELEMS, Workload
from repro.workloads.csr_common import (
    VERTEX_ELEM,
    allocate_csr,
    allocate_vertex_state,
    csr_values,
    vertex_values,
)
from repro.workloads.graphs import CSRGraph, Dataset

INFINITY = 1 << 30


class SSSPWorkload(Workload):
    """Bellman-Ford SSSP rounds (paper Table 3: SSSP)."""

    name = "SSSP"
    nested = True

    def __init__(self, dataset: Dataset, rounds: int = 2, source: int = 0) -> None:
        self.dataset = dataset
        self.rounds = max(1, int(rounds))
        self.source = source
        self.name = f"SSSP/{dataset.name}"

    def _inputs(self) -> dict[str, list]:
        graph: CSRGraph = self.dataset.build()
        rng = random.Random(self.dataset.seed + 13)
        values = csr_values(graph)
        values["weights"] = [
            rng.randrange(1, 64) for _ in range(graph.m + GUARD_ELEMS)
        ]
        values["dist"] = vertex_values(graph.n, INFINITY)
        values["dist"][self.source] = 0
        return values

    def _build(self) -> tuple[Module, AddressSpace]:
        n, m = self.dataset.shape()
        space = AddressSpace(fill=self._inputs)
        row, col = allocate_csr(space, n, m)
        weights = space.allocate("weights", m + GUARD_ELEMS, elem_size=8)
        dist = allocate_vertex_state(space, "dist", n)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, r_h, u_h, inner_h, u_latch, r_latch, done = b.blocks(
            "entry", "r_h", "u_h", "inner_h", "u_latch", "r_latch", "done"
        )

        b.at(entry)
        b.jmp(r_h)

        b.at(r_h)
        rnd = b.phi([(entry, 0)], name="round")
        b.jmp(u_h)

        b.at(u_h)
        u = b.phi([(r_h, 0)], name="u")
        ra = b.gep(row.base, u, 8, name="ra")
        rs = b.load(ra, name="rs")
        u1 = b.add(u, 1, name="u1")
        ra2 = b.gep(row.base, u1, 8, name="ra2")
        re = b.load(ra2, name="re")
        da_u = b.gep(dist.base, u, VERTEX_ELEM, name="da.u")
        du = b.load(da_u, name="du")
        has_edges = b.lt(rs, re, name="has.edges")
        b.br(has_edges, inner_h, u_latch)

        b.at(inner_h)
        j = b.phi([(u_h, rs)], name="j")
        ca = b.gep(col.base, j, 8, name="ca")
        v = b.load(ca, name="v")
        wa = b.gep(weights.base, j, 8, name="wa")
        w = b.load(wa, name="w")
        candidate = b.add(du, w, name="cand")
        da = b.gep(dist.base, v, VERTEX_ELEM, name="da")
        dv = b.load(da, name="dv")  # the delinquent load
        relaxed = b.min(dv, candidate, name="relaxed")
        b.store(da, relaxed)
        j2 = b.add(j, 1, name="j2")
        b.add_incoming(j, inner_h, j2)
        more = b.lt(j2, re, name="more")
        b.br(more, inner_h, u_latch)

        b.at(u_latch)
        u2 = b.add(u, 1, name="u2")
        b.add_incoming(u, u_latch, u2)
        more_u = b.lt(u2, n, name="more.u")
        b.br(more_u, u_h, r_latch)

        b.at(r_latch)
        rnd2 = b.add(rnd, 1, name="round2")
        b.add_incoming(rnd, r_latch, rnd2)
        more_r = b.lt(rnd2, self.rounds, name="more.r")
        b.br(more_r, r_h, done)

        b.at(done)
        b.ret(rnd2)

        module.finalize()
        return module, space
