"""HPC Challenge RandomAccess (GUPS): random XOR updates to a huge table.

The HPCC original drives the table index with an LCG recurrence computed
in registers; because a prefetch slice must be re-computable from a loop
induction variable (the framework requirement shared with the paper's
LLVM pass), the index stream is materialized into an array — turning the
update into the canonical indirect pattern ``T[idx[i]] ^= f(idx[i])``
while preserving the uniformly random table access that defines GUPS.
The index array itself streams sequentially (hardware-prefetchable).
"""

from __future__ import annotations

import random

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import GUARD_ELEMS, Workload


class RandomAccessWorkload(Workload):
    """GUPS table update (paper Table 3: RandAcc, 1 GiB table scaled)."""

    name = "randAccess"
    nested = False

    def __init__(
        self,
        table_elems: int = 1 << 20,  # 8 MiB of int64 (paper: 1 GiB, /128)
        updates: int = 120_000,
        seed: int = 701,
    ) -> None:
        self.table_elems = int(table_elems)
        self.updates = int(updates)
        self.seed = seed
        self.name = "randAccess"

    def _inputs(self) -> dict[str, list]:
        rng = random.Random(self.seed)
        return {
            "indices": [
                rng.randrange(self.table_elems)
                for _ in range(self.updates + GUARD_ELEMS)
            ]
        }

    def _build(self) -> tuple[Module, AddressSpace]:
        space = AddressSpace(fill=self._inputs)
        indices = space.allocate(
            "indices", self.updates + GUARD_ELEMS, elem_size=8
        )
        table = space.allocate("table", self.table_elems, elem_size=8)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, loop, done = b.blocks("entry", "loop", "done")

        b.at(entry)
        b.jmp(loop)

        b.at(loop)
        i = b.phi([(entry, 0)], name="i")
        ia = b.gep(indices.base, i, 8, name="ia")
        idx = b.load(ia, name="idx")
        ta = b.gep(table.base, idx, 8, name="ta")
        value = b.load(ta, name="value")  # the delinquent load
        mixed = b.xor(value, idx, name="mixed")
        b.store(ta, mixed)
        i2 = b.add(i, 1, name="i2")
        b.add_incoming(i, loop, i2)
        more = b.lt(i2, self.updates, name="more")
        b.br(more, loop, done)

        b.at(done)
        b.ret(i2)

        module.finalize()
        return module, space
