"""NAS Parallel Benchmarks Conjugate Gradient (CG) — the SpMV core.

CG's time goes into ``y = A x`` over a random sparse matrix in CSR
format: per non-zero, ``acc += a[j] * x[col[j]]`` — a streaming read of
``a``/``col`` plus the delinquent indirect gather ``x[col[j]]`` (one
cache line per vector element, as NPB's double-precision rows effectively
are).  Fixed-point arithmetic replaces floating point; access pattern
identical.
"""

from __future__ import annotations

import random

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import GUARD_ELEMS, Workload
from repro.workloads.csr_common import (
    VERTEX_ELEM,
    allocate_vertex_state,
    vertex_values,
)


class ConjugateGradientWorkload(Workload):
    """NPB CG sparse matrix-vector kernel (paper Table 3: CG)."""

    name = "CG"
    nested = True

    def __init__(
        self,
        rows: int = 16_000,
        nnz_per_row: int = 8,
        iterations: int = 1,
        seed: int = 601,
    ) -> None:
        self.rows = int(rows)
        self.nnz_per_row = int(nnz_per_row)
        self.iterations = max(1, int(iterations))
        self.seed = seed
        self.name = f"CG-n{rows}"

    def _inputs(self) -> dict[str, list]:
        rng = random.Random(self.seed)
        n = self.rows
        row_values = [0]
        col_values: list[int] = []
        for _ in range(n):
            for _ in range(self.nnz_per_row):
                col_values.append(rng.randrange(n))
            row_values.append(len(col_values))
        row_values.extend([len(col_values)] * GUARD_ELEMS)
        nnz = len(col_values)
        col_values.extend([0] * GUARD_ELEMS)
        a_values = [rng.randrange(1, 1 << 12) for _ in range(nnz + GUARD_ELEMS)]
        x_values = vertex_values(n, 0)
        for index in range(n):
            x_values[index] = rng.randrange(1 << 12)
        return {"row": row_values, "col": col_values, "a": a_values, "x": x_values}

    def _build(self) -> tuple[Module, AddressSpace]:
        n = self.rows
        nnz = n * self.nnz_per_row
        space = AddressSpace(fill=self._inputs)
        row = space.allocate("row", n + 1 + GUARD_ELEMS, elem_size=8)
        col = space.allocate("col", nnz + GUARD_ELEMS, elem_size=8)
        a = space.allocate("a", nnz + GUARD_ELEMS, elem_size=8)
        x = allocate_vertex_state(space, "x", n)
        y = space.allocate("y", n + 1, elem_size=8)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, it_h, r_h, inner_h, r_latch, it_latch, done = b.blocks(
            "entry", "it_h", "r_h", "inner_h", "r_latch", "it_latch", "done"
        )

        b.at(entry)
        b.jmp(it_h)

        b.at(it_h)
        it = b.phi([(entry, 0)], name="it")
        b.jmp(r_h)

        b.at(r_h)
        u = b.phi([(it_h, 0)], name="u")
        ra = b.gep(row.base, u, 8, name="ra")
        rs = b.load(ra, name="rs")
        u1 = b.add(u, 1, name="u1")
        ra2 = b.gep(row.base, u1, 8, name="ra2")
        re = b.load(ra2, name="re")
        has_nnz = b.lt(rs, re, name="has.nnz")
        b.br(has_nnz, inner_h, r_latch)

        b.at(inner_h)
        j = b.phi([(r_h, rs)], name="j")
        acc = b.phi([(r_h, 0)], name="acc")
        ca = b.gep(col.base, j, 8, name="ca")
        v = b.load(ca, name="v")
        xa = b.gep(x.base, v, VERTEX_ELEM, name="xa")
        xv = b.load(xa, name="xv")  # the delinquent gather
        aa = b.gep(a.base, j, 8, name="aa")
        av = b.load(aa, name="av")
        prod = b.mul(av, xv, name="prod")
        acc2 = b.add(acc, prod, name="acc2")
        j2 = b.add(j, 1, name="j2")
        b.add_incoming(j, inner_h, j2)
        b.add_incoming(acc, inner_h, acc2)
        more = b.lt(j2, re, name="more")
        b.br(more, inner_h, r_latch)

        b.at(r_latch)
        dot = b.phi([(r_h, 0), (inner_h, acc2)], name="dot")
        ya = b.gep(y.base, u, 8, name="ya")
        b.store(ya, dot)
        u2 = b.add(u, 1, name="u2")
        b.add_incoming(u, r_latch, u2)
        more_u = b.lt(u2, n, name="more.u")
        b.br(more_u, r_h, it_latch)

        b.at(it_latch)
        it2 = b.add(it, 1, name="it2")
        b.add_incoming(it, it_latch, it2)
        more_it = b.lt(it2, self.iterations, name="more.it")
        b.br(more_it, it_h, done)

        b.at(done)
        b.ret(it2)

        module.finalize()
        return module, space
