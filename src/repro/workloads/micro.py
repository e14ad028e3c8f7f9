"""The paper's Listing-1 microbenchmark: a two-level loop nest with an
indirect access ``T[BO[i] + BI[j]]`` and a tunable ``work()`` function.

``INNER`` controls the inner trip count (Fig 2), ``COMPLEXITY`` the work
function cost (Fig 1).  The generated IR matches Listing 3's shape: the
outer GEP lives in the outer block, the loads in the inner block, so the
load-slice terminates at both induction PHIs.
"""

from __future__ import annotations

import random

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import GUARD_ELEMS, Workload

#: Work-function cost (instructions per inner iteration) per complexity
#: class; chosen so the Eq-1 optimal distances spread over ~4..32 like
#: the paper's 32/16/4 (Fig 1).
COMPLEXITY_WORK = {"low": 0, "medium": 24, "high": 90}

#: Default total inner iterations across the whole run (keeps simulation
#: time flat while INNER varies).
DEFAULT_TOTAL_ITERATIONS = 120_000

#: Elements in the target array T (8B each -> 8 MiB >> LLC).
DEFAULT_TARGET_ELEMS = 1 << 20


class IndirectMicrobenchmark(Workload):
    """Listing 1: ``for i < OUTER: for j < INNER: sum += T[BO[i]+BI[j]]; work()``."""

    name = "micro"
    nested = True

    def __init__(
        self,
        inner: int = 256,
        outer: int | None = None,
        complexity: str = "low",
        work: int | None = None,
        target_elems: int = DEFAULT_TARGET_ELEMS,
        total_iterations: int = DEFAULT_TOTAL_ITERATIONS,
        seed: int = 11,
    ) -> None:
        if complexity not in COMPLEXITY_WORK:
            raise ValueError(f"unknown complexity {complexity!r}")
        self.inner = int(inner)
        self.outer = (
            int(outer)
            if outer is not None
            else max(2, total_iterations // self.inner)
        )
        self.complexity = complexity
        self.work = COMPLEXITY_WORK[complexity] if work is None else int(work)
        self.target_elems = int(target_elems)
        self.seed = seed
        self.name = f"micro-{complexity}-i{self.inner}"

    # ------------------------------------------------------------------
    def _inputs(self) -> dict[str, list]:
        rng = random.Random(self.seed)
        half = self.target_elems // 2
        bo = [rng.randrange(half) for _ in range(self.outer + GUARD_ELEMS)]
        bi = [rng.randrange(half) for _ in range(self.inner + GUARD_ELEMS)]
        # Give T nonzero contents so checksums are meaningful.
        target = [0] * self.target_elems
        for index in range(0, len(target), 97):
            target[index] = index & 0xFFFF
        return {"BO": bo, "BI": bi, "T": target}

    def _build(self) -> tuple[Module, AddressSpace]:
        space = AddressSpace(fill=self._inputs)
        bo = space.allocate("BO", self.outer + GUARD_ELEMS, elem_size=8)
        bi = space.allocate("BI", self.inner + GUARD_ELEMS, elem_size=8)
        target = space.allocate("T", self.target_elems, elem_size=8)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, outer_h, inner_h, outer_latch, done = b.blocks(
            "entry", "outer_h", "inner_h", "outer_latch", "done"
        )

        b.at(entry)
        b.jmp(outer_h)

        b.at(outer_h)
        i = b.phi([(entry, 0)], name="iv1")
        acc_outer = b.phi([(entry, 0)], name="acc.o")
        p_bo = b.gep(bo.base, i, 8, name="p.bo")
        b.jmp(inner_h)

        b.at(inner_h)
        j = b.phi([(outer_h, 0)], name="iv2")
        acc = b.phi([(outer_h, acc_outer)], name="acc.i")
        bo_v = b.load(p_bo, name="bo.v")
        p_bi = b.gep(bi.base, j, 8, name="p.bi")
        bi_v = b.load(p_bi, name="bi.v")
        idx = b.add(bo_v, bi_v, name="idx")
        p_t = b.gep(target.base, idx, 8, name="p.t")
        value = b.load(p_t, name="t.v")  # the delinquent load
        if self.work:
            b.work(self.work)
        acc2 = b.add(acc, value, name="acc2")
        j2 = b.add(j, 1, name="iv2.next")
        b.add_incoming(j, inner_h, j2)
        b.add_incoming(acc, inner_h, acc2)
        cont = b.lt(j2, self.inner, name="inner.cont")
        b.br(cont, inner_h, outer_latch)

        b.at(outer_latch)
        i2 = b.add(i, 1, name="iv1.next")
        b.add_incoming(i, outer_latch, i2)
        b.add_incoming(acc_outer, outer_latch, acc2)
        cont2 = b.lt(i2, self.outer, name="outer.cont")
        b.br(cont2, outer_h, done)

        b.at(done)
        b.ret(acc2)

        module.finalize()
        return module, space

    # ------------------------------------------------------------------
    def delinquent_load_pc(self, module: Module) -> int:
        """PC of the ``T[...]`` load (ground truth for tests)."""
        function = module.function("main")
        inner = function.block("inner_h")
        loads = [
            inst
            for inst in inner.instructions
            if inst.op.name == "LOAD"
        ]
        return loads[-1].pc
