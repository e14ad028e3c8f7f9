"""Hash-join probe kernel (Balkesen et al. style, paper Table 3: HJ2/HJ8).

The probe side hashes each tuple key and scans a bucket of ``epb``
(entries per bucket) candidate keys: the first bucket access is the
delinquent indirect load (a random line in a multi-MiB table); the bucket
scan is a tiny inner loop of 2 (HJ2) or 8 (HJ8) iterations — the paper's
flagship case for outer-loop prefetch injection.

Two hash functions mirror the paper's NPO / NPO_st variants:
``npo`` masks the key directly; ``npo_st`` uses a Fibonacci
multiply-shift (different bucket distribution, same footprint).
"""

from __future__ import annotations

import random

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import GUARD_ELEMS, Workload

FIB_MULTIPLIER = 2654435761


class HashJoinWorkload(Workload):
    """Bucket-chained hash join probe (HJ2 = 2 entries/bucket, HJ8 = 8)."""

    name = "HJ"
    nested = True

    def __init__(
        self,
        entries_per_bucket: int = 8,
        algorithm: str = "NPO",
        table_entries: int = 1 << 19,  # 4 MiB of keys (paper: 970 MiB, scaled)
        probes: int = 60_000,
        seed: int = 801,
    ) -> None:
        if algorithm not in ("NPO", "NPO_st"):
            raise ValueError(f"unknown hash join algorithm {algorithm!r}")
        if table_entries % entries_per_bucket:
            raise ValueError("table_entries must divide by entries_per_bucket")
        self.epb = int(entries_per_bucket)
        self.algorithm = algorithm
        self.table_entries = int(table_entries)
        self.buckets = self.table_entries // self.epb
        if self.buckets & (self.buckets - 1):
            raise ValueError("bucket count must be a power of two")
        self.probes = int(probes)
        self.seed = seed
        self.name = f"HJ{self.epb}-{algorithm}"

    # ------------------------------------------------------------------
    def _hash(self, key: int) -> int:
        if self.algorithm == "NPO":
            return key & (self.buckets - 1)
        product = (key * FIB_MULTIPLIER) & 0xFFFFFFFF
        return (product >> 16) & (self.buckets - 1)

    def _inputs(self) -> dict[str, list]:
        rng = random.Random(self.seed)
        # Build side: fill each bucket with keys that hash to it.
        table_values = [0] * (self.table_entries + GUARD_ELEMS)
        fill = rng.randrange(1, 1 << 30)
        for bucket in range(0, self.buckets, 1):
            base = bucket * self.epb
            for slot in range(self.epb):
                table_values[base + slot] = (fill + bucket * 7 + slot) & ((1 << 30) - 1)
        probe_values = [
            rng.randrange(1, 1 << 30) for _ in range(self.probes + GUARD_ELEMS)
        ]
        return {"hash_table": table_values, "probe_keys": probe_values}

    def _build(self) -> tuple[Module, AddressSpace]:
        space = AddressSpace(fill=self._inputs)
        table = space.allocate(
            "hash_table", self.table_entries + GUARD_ELEMS, elem_size=8
        )
        probe = space.allocate("probe_keys", self.probes + GUARD_ELEMS, elem_size=8)

        module = Module(self.name)
        b = IRBuilder(module)
        b.function("main")
        entry, outer_h, inner_h, outer_latch, done = b.blocks(
            "entry", "outer_h", "inner_h", "outer_latch", "done"
        )

        b.at(entry)
        b.jmp(outer_h)

        b.at(outer_h)
        i = b.phi([(entry, 0)], name="i")
        matches = b.phi([(entry, 0)], name="matches")
        pa = b.gep(probe.base, i, 8, name="pa")
        key = b.load(pa, name="key")
        if self.algorithm == "NPO":
            bucket = b.and_(key, self.buckets - 1, name="bucket")
        else:
            product = b.mul(key, FIB_MULTIPLIER, name="product")
            masked = b.and_(product, 0xFFFFFFFF, name="masked")
            shifted = b.shr(masked, 16, name="shifted")
            bucket = b.and_(shifted, self.buckets - 1, name="bucket")
        base = b.mul(bucket, self.epb, name="base")
        b.jmp(inner_h)

        b.at(inner_h)
        slot = b.phi([(outer_h, 0)], name="slot")
        match_i = b.phi([(outer_h, matches)], name="match.i")
        index = b.add(base, slot, name="index")
        ea = b.gep(table.base, index, 8, name="ea")
        candidate = b.load(ea, name="candidate")  # the delinquent load
        hit = b.eq(candidate, key, name="hit")
        match2 = b.add(match_i, hit, name="match2")
        slot2 = b.add(slot, 1, name="slot2")
        b.add_incoming(slot, inner_h, slot2)
        b.add_incoming(match_i, inner_h, match2)
        more = b.lt(slot2, self.epb, name="more")
        b.br(more, inner_h, outer_latch)

        b.at(outer_latch)
        i2 = b.add(i, 1, name="i2")
        b.add_incoming(i, outer_latch, i2)
        b.add_incoming(matches, outer_latch, match2)
        more_probes = b.lt(i2, self.probes, name="more.probes")
        b.br(more_probes, outer_h, done)

        b.at(done)
        b.ret(match2)

        module.finalize()
        return module, space
