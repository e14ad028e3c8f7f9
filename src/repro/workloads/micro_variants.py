"""Microbenchmark variants exercising the §3.5 generality claims:

* :class:`NonCanonicalMicrobenchmark` — the inner induction variable
  advances geometrically (``j *= 2``), the paper's example of a
  non-canonical recurrence the pass must still advance by ``step**d``;
* :class:`BreakConditionMicrobenchmark` — the inner loop has a second,
  data-dependent exit (``if (cond(v)) break;``), so the loop has
  multiple exit edges and injection must still find the counted bound.
"""

from __future__ import annotations

import random

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import GUARD_ELEMS, Workload


class NonCanonicalMicrobenchmark(Workload):
    """``for o < OUTER: for (j = 1; j < SPAN; j *= 2): sum += T[B[o*SPAN + j]]``."""

    name = "micro-mul-iv"
    nested = True

    def __init__(
        self,
        outer: int = 4_000,
        span: int = 4_096,
        target_elems: int = 1 << 19,
        seed: int = 17,
    ) -> None:
        if span & (span - 1):
            raise ValueError("span must be a power of two")
        self.outer = outer
        self.span = span
        self.target_elems = target_elems
        self.seed = seed

    def _inputs(self) -> dict[str, list]:
        rng = random.Random(self.seed)
        bits = self.span.bit_length() - 1
        return {
            "B": [
                rng.randrange(self.target_elems)
                for _ in range((self.outer + GUARD_ELEMS) * bits)
            ]
        }

    def _build(self) -> tuple[Module, AddressSpace]:
        space = AddressSpace(fill=self._inputs)
        # Sparse index plane: only the power-of-two offsets are read, so
        # keep B small: one slot per (outer, bit) pair.
        bits = self.span.bit_length() - 1
        b_seg = space.allocate("B", (self.outer + GUARD_ELEMS) * bits, elem_size=8)
        t_seg = space.allocate("T", self.target_elems, elem_size=8)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, outer_h, inner_h, outer_latch, done = b.blocks(
            "entry", "outer_h", "inner_h", "outer_latch", "done"
        )
        b.at(entry)
        b.jmp(outer_h)

        b.at(outer_h)
        o = b.phi([(entry, 0)], name="o")
        acc_o = b.phi([(entry, 0)], name="acc.o")
        base = b.mul(o, bits, name="base")
        b.jmp(inner_h)

        b.at(inner_h)
        j = b.phi([(outer_h, 1)], name="j")
        bit = b.phi([(outer_h, 0)], name="bit")
        acc = b.phi([(outer_h, acc_o)], name="acc")
        slot = b.add(base, bit, name="slot")
        ba = b.gep(b_seg.base, slot, 8, name="ba")
        idx = b.load(ba, name="idx")
        ta = b.gep(t_seg.base, idx, 8, name="ta")
        value = b.load(ta, name="value")  # the delinquent load
        acc2 = b.add(acc, value, name="acc2")
        j2 = b.mul(j, 2, name="j2")  # non-canonical induction: j *= 2
        bit2 = b.add(bit, 1, name="bit2")
        b.add_incoming(j, inner_h, j2)
        b.add_incoming(bit, inner_h, bit2)
        b.add_incoming(acc, inner_h, acc2)
        more = b.lt(j2, self.span, name="more")
        b.br(more, inner_h, outer_latch)

        b.at(outer_latch)
        o2 = b.add(o, 1, name="o2")
        b.add_incoming(o, outer_latch, o2)
        b.add_incoming(acc_o, outer_latch, acc2)
        more_o = b.lt(o2, self.outer, name="more.o")
        b.br(more_o, outer_h, done)

        b.at(done)
        b.ret(acc2)
        module.finalize()
        return module, space


class BreakConditionMicrobenchmark(Workload):
    """Inner loop with a data-dependent early exit (§3.5's
    ``for(i:K){if(cond(i)) break;}`` support)."""

    name = "micro-break"
    nested = True

    def __init__(
        self,
        outer: int = 2_000,
        inner: int = 48,
        target_elems: int = 1 << 19,
        sentinel_period: int = 97,
        seed: int = 19,
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.target_elems = target_elems
        self.sentinel_period = sentinel_period
        self.seed = seed

    def _inputs(self) -> dict[str, list]:
        rng = random.Random(self.seed)
        half = self.target_elems // 2
        bo = [rng.randrange(half) for _ in range(self.outer + GUARD_ELEMS)]
        bi = [rng.randrange(half) for _ in range(self.inner + GUARD_ELEMS)]
        target = [rng.randrange(1, 1 << 16) for _ in range(self.target_elems)]
        # Scatter sentinels so some inner loops break early.
        for index in range(0, self.target_elems, self.sentinel_period):
            target[index] = 0
        return {"BO": bo, "BI": bi, "T": target}

    def _build(self) -> tuple[Module, AddressSpace]:
        space = AddressSpace(fill=self._inputs)
        bo = space.allocate("BO", self.outer + GUARD_ELEMS, elem_size=8)
        bi = space.allocate("BI", self.inner + GUARD_ELEMS, elem_size=8)
        t_seg = space.allocate("T", self.target_elems, elem_size=8)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, outer_h, inner_h, inner_body, outer_latch, done = b.blocks(
            "entry", "outer_h", "inner_h", "inner_body", "outer_latch", "done"
        )
        b.at(entry)
        b.jmp(outer_h)

        b.at(outer_h)
        i = b.phi([(entry, 0)], name="i")
        acc_o = b.phi([(entry, 0)], name="acc.o")
        p_bo = b.gep(bo.base, i, 8, name="p.bo")
        b.jmp(inner_h)

        b.at(inner_h)
        j = b.phi([(outer_h, 0)], name="j")
        acc = b.phi([(outer_h, acc_o)], name="acc")
        bo_v = b.load(p_bo, name="bo.v")
        p_bi = b.gep(bi.base, j, 8, name="p.bi")
        bi_v = b.load(p_bi, name="bi.v")
        idx = b.add(bo_v, bi_v, name="idx")
        p_t = b.gep(t_seg.base, idx, 8, name="p.t")
        value = b.load(p_t, name="t.v")  # the delinquent load
        hit_sentinel = b.eq(value, 0, name="hit.sentinel")
        # Break: if value == 0, leave the inner loop immediately.
        b.br(hit_sentinel, outer_latch, inner_body)

        b.at(inner_body)
        acc2 = b.add(acc, value, name="acc2")
        j2 = b.add(j, 1, name="j2")
        b.add_incoming(j, inner_body, j2)
        b.add_incoming(acc, inner_body, acc2)
        more = b.lt(j2, self.inner, name="more")
        b.br(more, inner_h, outer_latch)

        b.at(outer_latch)
        acc3 = b.phi(
            [(inner_h, acc), (inner_body, acc2)], name="acc3"
        )
        i2 = b.add(i, 1, name="i2")
        b.add_incoming(i, outer_latch, i2)
        b.add_incoming(acc_o, outer_latch, acc3)
        more_i = b.lt(i2, self.outer, name="more.i")
        b.br(more_i, outer_h, done)

        b.at(done)
        b.ret(acc3)
        module.finalize()
        return module, space


class CallWorkMicrobenchmark(Workload):
    """Listing 1 with ``work()`` as a real function call (the paper's
    microbenchmark literally calls a work function): exercises CALL
    support through the whole profile -> analyze -> inject pipeline.
    """

    name = "micro-callwork"
    nested = True

    def __init__(
        self,
        inner: int = 64,
        outer: int = 600,
        work: int = 6,
        target_elems: int = 1 << 17,
        seed: int = 29,
    ) -> None:
        self.inner = inner
        self.outer = outer
        self.work = work
        self.target_elems = target_elems
        self.seed = seed

    def _inputs(self) -> dict[str, list]:
        rng = random.Random(self.seed)
        half = self.target_elems // 2
        bo = [rng.randrange(half) for _ in range(self.outer + GUARD_ELEMS)]
        bi = [rng.randrange(half) for _ in range(self.inner + GUARD_ELEMS)]
        target = [rng.randrange(1 << 10) for _ in range(self.target_elems)]
        return {"BO": bo, "BI": bi, "T": target}

    def _build(self) -> tuple[Module, AddressSpace]:
        space = AddressSpace(fill=self._inputs)
        bo = space.allocate("BO", self.outer + GUARD_ELEMS, elem_size=8)
        bi = space.allocate("BI", self.inner + GUARD_ELEMS, elem_size=8)
        t_seg = space.allocate("T", self.target_elems, elem_size=8)

        module = Module(self.name)
        b = IRBuilder(module)

        # work(v): a fixed-cost transform of the loaded value.
        b.function("work", params=["v"])
        b.at(b.block("entry"))
        b.work(self.work)
        masked = b.and_("v", 0xFFFF, name="masked")
        b.ret(masked)

        b.function("main")
        entry, outer_h, inner_h, outer_latch, done = b.blocks(
            "entry", "outer_h", "inner_h", "outer_latch", "done"
        )
        b.at(entry)
        b.jmp(outer_h)
        b.at(outer_h)
        i = b.phi([(entry, 0)], name="iv1")
        acc_o = b.phi([(entry, 0)], name="acc.o")
        p_bo = b.gep(bo.base, i, 8, name="p.bo")
        b.jmp(inner_h)
        b.at(inner_h)
        j = b.phi([(outer_h, 0)], name="iv2")
        acc = b.phi([(outer_h, acc_o)], name="acc.i")
        bo_v = b.load(p_bo, name="bo.v")
        p_bi = b.gep(bi.base, j, 8, name="p.bi")
        bi_v = b.load(p_bi, name="bi.v")
        idx = b.add(bo_v, bi_v, name="idx")
        p_t = b.gep(t_seg.base, idx, 8, name="p.t")
        value = b.load(p_t, name="t.v")  # the delinquent load
        worked = b.call("work", [value], name="worked")
        acc2 = b.add(acc, worked, name="acc2")
        j2 = b.add(j, 1, name="iv2.next")
        b.add_incoming(j, inner_h, j2)
        b.add_incoming(acc, inner_h, acc2)
        cont = b.lt(j2, self.inner, name="inner.cont")
        b.br(cont, inner_h, outer_latch)
        b.at(outer_latch)
        i2 = b.add(i, 1, name="iv1.next")
        b.add_incoming(i, outer_latch, i2)
        b.add_incoming(acc_o, outer_latch, acc2)
        cont2 = b.lt(i2, self.outer, name="outer.cont")
        b.br(cont2, outer_h, done)
        b.at(done)
        b.ret(acc2)
        module.finalize()
        return module, space
