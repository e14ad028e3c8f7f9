"""Flat byte-addressed memory with named array segments.

Workloads allocate named arrays here *before* building their IR, so array
base addresses appear as immediates in the IR (the moral equivalent of a
linked binary's data section).  The machine's functional side reads and
writes values through this class; the timing side only sees addresses.

Values are Python integers (64-bit-ish by convention).  Arrays are stored
as Python lists for fast scalar access in the interpreter hot path; numpy
arrays are accepted and converted at allocation.

A space may be built with a *fill*: segments are then allocated by
length only, so bases (and the IR that embeds them) exist before any
input value does, and the fill supplies the values the first time
anything can observe them (:meth:`AddressSpace.materialize`).  Static
consumers, such as loop and slice analysis, never pay for the inputs.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

LINE_BYTES = 64

ArrayLike = Union[Sequence[int], Iterable[int]]

#: Supplies a space's input values: segment name -> a list of exactly
#: the segment's length.  Segments it leaves out start zeroed.
Fill = Callable[[], Mapping[str, list]]


class MemoryError_(Exception):
    """Raised on out-of-bounds or unmapped accesses (demand side only)."""


class Segment:
    """One named, contiguous array of fixed-size elements.

    ``values`` is None until the owning space's fill has run.
    """

    __slots__ = ("name", "base", "elem_size", "values", "end")

    def __init__(
        self,
        name: str,
        base: int,
        elem_size: int,
        length: int,
        values: Optional[list] = None,
    ) -> None:
        self.name = name
        self.base = base
        self.elem_size = elem_size
        self.values = values
        self.end = base + elem_size * length

    def __len__(self) -> int:
        return (self.end - self.base) // self.elem_size

    def address_of(self, index: int) -> int:
        return self.base + index * self.elem_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Segment {self.name} base={self.base:#x} n={len(self)} "
            f"elem={self.elem_size}B>"
        )


class AddressSpace:
    """Allocator + functional memory for a single simulated process.

    ``fill`` makes the space lazy: segments allocated by length take
    their values from it, once, on the first :meth:`materialize`.  That
    runs on ``Machine`` construction, :meth:`clone`, :meth:`segment`,
    :meth:`segments` and the first :meth:`load` or :meth:`store`; bases,
    lengths and :meth:`is_mapped` never need it.
    """

    #: Base of the data section; leaves PC space (< 16MiB) unmapped.
    DATA_BASE = 0x1000_0000
    #: Guard gap between segments so no cache line spans two arrays.
    GUARD_BYTES = 2 * LINE_BYTES

    def __init__(self, fill: Optional[Fill] = None) -> None:
        self._segments: list[Segment] = []
        self._bases: list[int] = []
        self._by_name: dict[str, Segment] = {}
        self._next_base = self.DATA_BASE
        self._last: Optional[Segment] = None
        self._fill = fill
        if fill is not None:
            # Until the fill runs, load/store are instance attributes
            # that run it first; materialize() deletes them, so the class
            # methods (the engines' hot path) never test for a fill.
            self.load = self._filled_first(AddressSpace.load)
            self.store = self._filled_first(AddressSpace.store)

    def _filled_first(self, access):
        def first_access(*args):
            self.materialize()
            return access(self, *args)

        return first_access

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(
        self,
        name: str,
        data: Union[int, ArrayLike],
        elem_size: int = 8,
    ) -> Segment:
        """Allocate a segment.

        ``data`` is either an element count or an iterable of initial
        values.  A counted segment is zero-initialized, or, in a space
        with a fill, takes its values from the fill.  ``elem_size`` only
        affects address arithmetic (4 for int32-style arrays, 8 for
        int64/pointers).
        """
        if name in self._by_name:
            raise MemoryError_(f"segment {name!r} already allocated")
        if elem_size <= 0 or (elem_size & (elem_size - 1)) != 0:
            raise MemoryError_(f"elem_size must be a positive power of two")
        if not isinstance(data, int):
            values = [int(v) for v in data]
            length = len(values)
        elif self._fill is None:
            values, length = [0] * data, data
        else:
            values, length = None, data
        base = self._next_base
        segment = Segment(name, base, elem_size, length, values)
        self._segments.append(segment)
        self._bases.append(base)
        self._by_name[name] = segment
        span = elem_size * length
        self._next_base = base + span + self.GUARD_BYTES
        # Keep 64-byte alignment for the next segment.
        remainder = self._next_base % LINE_BYTES
        if remainder:
            self._next_base += LINE_BYTES - remainder
        return segment

    def materialize(self) -> None:
        """Run the pending fill, if any: every segment gets its values.

        Idempotent; a space without a fill (or already filled) returns at
        once.  Segments the fill leaves out start zeroed.
        """
        fill = self._fill
        if fill is None:
            return
        values = dict(fill())
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise MemoryError_(f"fill wrote unknown segments {sorted(unknown)}")
        pending = [s for s in self._segments if s.values is None]
        for segment in pending:
            data = values.get(segment.name)
            if data is not None and (
                type(data) is not list or len(data) != len(segment)
            ):
                raise MemoryError_(
                    f"fill for segment {segment.name!r} is not a list "
                    f"of {len(segment)} values"
                )
        for segment in pending:
            data = values.get(segment.name)
            segment.values = [0] * len(segment) if data is None else data
        self._fill = None
        del self.load, self.store

    def segment(self, name: str) -> Segment:
        self.materialize()
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryError_(f"unknown segment {name!r}") from None

    def segments(self) -> list[Segment]:
        self.materialize()
        return list(self._segments)

    def clone(self) -> "AddressSpace":
        """An independent copy: same segments at the same bases, each
        with its own value list (this space is filled first).

        The lists are shallow copies sharing the (immutable) ints, so a
        clone costs one pointer per element, and stores into the clone
        never reach this space or any other clone.
        """
        self.materialize()
        twin = AddressSpace()
        for segment in self._segments:
            copy = Segment(
                segment.name, segment.base, segment.elem_size,
                len(segment), list(segment.values),
            )
            twin._segments.append(copy)
            twin._by_name[copy.name] = copy
        twin._bases = list(self._bases)
        twin._next_base = self._next_base
        return twin

    # ------------------------------------------------------------------
    # Address resolution
    # ------------------------------------------------------------------
    def _find(self, addr: int) -> Optional[Segment]:
        last = self._last
        if last is not None and last.base <= addr < last.end:
            return last
        position = bisect_right(self._bases, addr) - 1
        if position < 0:
            return None
        candidate = self._segments[position]
        if candidate.base <= addr < candidate.end:
            self._last = candidate
            return candidate
        return None

    def is_mapped(self, addr: int) -> bool:
        return self._find(addr) is not None

    # ------------------------------------------------------------------
    # Functional access (demand side; raises on bad addresses)
    # ------------------------------------------------------------------
    def load(self, addr: int) -> int:
        segment = self._find(addr)
        if segment is None:
            raise MemoryError_(f"load from unmapped address {addr:#x}")
        offset = addr - segment.base
        index, misalign = divmod(offset, segment.elem_size)
        if misalign:
            raise MemoryError_(
                f"misaligned load at {addr:#x} in segment {segment.name}"
            )
        return segment.values[index]

    def store(self, addr: int, value: int) -> None:
        segment = self._find(addr)
        if segment is None:
            raise MemoryError_(f"store to unmapped address {addr:#x}")
        offset = addr - segment.base
        index, misalign = divmod(offset, segment.elem_size)
        if misalign:
            raise MemoryError_(
                f"misaligned store at {addr:#x} in segment {segment.name}"
            )
        segment.values[index] = value

    def total_bytes(self) -> int:
        return sum(s.elem_size * len(s) for s in self._segments)
