"""Per-configuration cache state for the batched sweep runner.

A batched run (:mod:`repro.machine.batch`) executes N memory/scheme
configurations in one pass over the instruction stream.  Cache geometry
affects *timing*, never loaded values, and the batch compiler rejects
any program whose stores or control flow could diverge across cells —
so every cell observes the same value stream and the batch shares one
:class:`~repro.mem.address.AddressSpace` (cell 0's).  What each cell
keeps private is the full microarchitectural state: L1/L2/LLC tags and
recency, MSHR occupancy, hardware prefetchers, and its own
:class:`~repro.machine.pmu.Counters`.

A cell whose config equals an earlier cell's may run as that cell's
*shadow* (:meth:`repro.machine.batch.BatchMachine.run_shadowed`): its
:class:`CellState` is then never touched, and its counters end as a
copy of its leader's.  That is exact because a hierarchy's next state
depends only on each op's kind, line, mapped status, ``pc`` and
``now`` — not on the address within the line, and not on any value —
and the batch checks the line and mapped status of every divergent
address against the leader's.  If any check fails, the batch rebuilds
every cell's state here from scratch, over a pristine space, and runs
plain.  An untouched cell's own space serves as that pristine image
when the cells were built separately, as sweep cells are, so the
shadows cost no copy of the data.

Why the tag checks are not vectorized
-------------------------------------
Probing N cells for one line address looks like an obvious candidate
for a vectorized compare, but every probe also *mutates* per-cell state
(LRU recency, MSHR slots, stride tables), and cells stop agreeing after
the first capacity difference.  A numpy mirror of each L1 set's MRU
line was tried and measured 1.45-2.19x slower than the scalar dict
probes the batched steppers inline (docs/PERFORMANCE.md), so each cell
keeps the scalar L1 fast-path views of :mod:`repro.mem.fastpath` — the
same ones the sequential engines bind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.machine.pmu import Counters
from repro.mem.address import AddressSpace
from repro.mem.hierarchy import MemorySystem

if TYPE_CHECKING:  # pragma: no cover - hint only, avoids an import cycle
    from repro.machine.config import MachineConfig


class CellState:
    """One sweep cell: a private hierarchy + counters over a shared space.

    The ports are pre-bound once at construction so the batched op
    closures pay one attribute load per access, exactly like the
    sequential block engine's ``_Frame``.
    """

    __slots__ = ("config", "counters", "mem", "load", "store", "prefetch")

    def __init__(self, config: "MachineConfig", space: AddressSpace) -> None:
        self.config = config
        self.counters = Counters()
        self.mem = MemorySystem(config.memory, space, self.counters)
        self.load = self.mem.load_port()
        self.store = self.mem.store_port()
        self.prefetch = self.mem.prefetch_port()


def space_mismatch(
    base: AddressSpace, other: AddressSpace
) -> Optional[str]:
    """Why ``other`` cannot share ``base``'s address space, or None.

    Cells are built independently (one workload build per cell), so the
    layouts *should* be deterministic clones; this check turns a
    violated assumption into a clean per-cell fallback instead of a
    silently wrong batch.
    """
    segments = base.segments()
    others = other.segments()
    if len(segments) != len(others):
        return f"segment count {len(others)} != {len(segments)}"
    for mine, theirs in zip(segments, others):
        if (
            mine.name != theirs.name
            or mine.base != theirs.base
            or mine.elem_size != theirs.elem_size
        ):
            return f"segment {theirs.name!r} layout differs from {mine.name!r}"
        if mine.values != theirs.values:
            return f"segment {mine.name!r} initial contents differ"
    return None


def shared_space(spaces: Sequence[AddressSpace]) -> AddressSpace:
    """Validate that every cell's space is identical and return cell 0's.

    Raises ``ValueError`` naming the first mismatch.
    """
    base = spaces[0]
    for index, other in enumerate(spaces[1:], start=1):
        why = space_mismatch(base, other)
        if why is not None:
            raise ValueError(f"cell {index} address space: {why}")
    return base
