"""NAS Parallel Benchmarks Integer Sort (IS) — the bucket-counting core.

The key ranking loop ``count[key[i]] += 1`` performs an indirect
read-modify-write into a bucket array sized well beyond the LLC while the
key array streams sequentially (covered by the hardware stride
prefetcher).  Problem classes mirror NPB's B and C, scaled to the
simulator (key count and bucket range scaled together).
"""

from __future__ import annotations

import random

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import GUARD_ELEMS, Workload

#: Scaled problem classes: (keys, bucket_bits, iterations).
CLASSES = {
    "A": (40_000, 16, 2),
    "B": (60_000, 17, 2),
    "C": (90_000, 18, 2),
}


class IntegerSortWorkload(Workload):
    """NPB IS bucket sort (paper Table 3: IS, classes B and C)."""

    name = "IS"
    nested = True

    def __init__(self, klass: str = "B", seed: int = 501) -> None:
        if klass not in CLASSES:
            raise ValueError(f"unknown IS class {klass!r}")
        self.klass = klass
        self.keys, self.bucket_bits, self.iterations = CLASSES[klass]
        self.seed = seed
        self.name = f"IS-{klass}"

    def _inputs(self) -> dict[str, list]:
        rng = random.Random(self.seed)
        buckets = 1 << self.bucket_bits
        return {
            "keys": [
                rng.randrange(buckets) for _ in range(self.keys + GUARD_ELEMS)
            ]
        }

    def _build(self) -> tuple[Module, AddressSpace]:
        buckets = 1 << self.bucket_bits
        space = AddressSpace(fill=self._inputs)
        keys = space.allocate("keys", self.keys + GUARD_ELEMS, elem_size=8)
        count = space.allocate("count", buckets + GUARD_ELEMS, elem_size=8)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, it_h, key_h, it_latch, done = b.blocks(
            "entry", "it_h", "key_h", "it_latch", "done"
        )

        b.at(entry)
        b.jmp(it_h)

        b.at(it_h)
        it = b.phi([(entry, 0)], name="it")
        b.jmp(key_h)

        b.at(key_h)
        i = b.phi([(it_h, 0)], name="i")
        ka = b.gep(keys.base, i, 8, name="ka")
        k = b.load(ka, name="k")
        ba = b.gep(count.base, k, 8, name="ba")
        c = b.load(ba, name="c")  # the delinquent load
        c2 = b.add(c, 1, name="c2")
        b.store(ba, c2)
        i2 = b.add(i, 1, name="i2")
        b.add_incoming(i, key_h, i2)
        more = b.lt(i2, self.keys, name="more")
        b.br(more, key_h, it_latch)

        b.at(it_latch)
        it2 = b.add(it, 1, name="it2")
        b.add_incoming(it, it_latch, it2)
        more_it = b.lt(it2, self.iterations, name="more.it")
        b.br(more_it, it_h, done)

        b.at(done)
        b.ret(it2)

        module.finalize()
        return module, space
