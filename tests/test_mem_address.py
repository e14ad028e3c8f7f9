"""Unit tests for the address space / segment allocator."""

import pytest

from repro.mem.address import LINE_BYTES, AddressSpace, MemoryError_


class TestAllocation:
    def test_allocate_zeroed(self):
        space = AddressSpace()
        seg = space.allocate("a", 10, elem_size=8)
        assert len(seg) == 10
        assert space.load(seg.base) == 0

    def test_allocate_with_values(self):
        space = AddressSpace()
        seg = space.allocate("a", [1, 2, 3], elem_size=8)
        assert [space.load(seg.address_of(i)) for i in range(3)] == [1, 2, 3]

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.allocate("a", 1)
        with pytest.raises(MemoryError_):
            space.allocate("a", 1)

    def test_bad_elem_size(self):
        space = AddressSpace()
        with pytest.raises(MemoryError_):
            space.allocate("a", 1, elem_size=3)

    def test_segments_are_line_aligned_and_disjoint(self):
        space = AddressSpace()
        segments = [space.allocate(f"s{i}", 7, elem_size=8) for i in range(5)]
        for seg in segments:
            assert seg.base % LINE_BYTES == 0
        for a, b in zip(segments, segments[1:]):
            assert a.end <= b.base
            # Guard gap: no cache line spans two segments.
            assert (a.end - 1) >> 6 < b.base >> 6

    def test_wide_elements(self):
        space = AddressSpace()
        seg = space.allocate("v", [5, 6], elem_size=64)
        assert space.load(seg.base + 64) == 6

    def test_lookup_by_name(self):
        space = AddressSpace()
        seg = space.allocate("data", 4)
        assert space.segment("data") is seg
        with pytest.raises(MemoryError_):
            space.segment("nope")

    def test_total_bytes(self):
        space = AddressSpace()
        space.allocate("a", 10, elem_size=8)
        space.allocate("b", 4, elem_size=64)
        assert space.total_bytes() == 10 * 8 + 4 * 64


class TestAccess:
    def test_store_then_load(self):
        space = AddressSpace()
        seg = space.allocate("a", 4, elem_size=8)
        space.store(seg.address_of(2), 99)
        assert space.load(seg.address_of(2)) == 99
        assert seg.values[2] == 99

    def test_unmapped_load_raises(self):
        space = AddressSpace()
        space.allocate("a", 4)
        with pytest.raises(MemoryError_):
            space.load(0x10)

    def test_between_segments_unmapped(self):
        space = AddressSpace()
        a = space.allocate("a", 1, elem_size=8)
        space.allocate("b", 1, elem_size=8)
        assert not space.is_mapped(a.end + 8)

    def test_misaligned_access_raises(self):
        space = AddressSpace()
        seg = space.allocate("a", 4, elem_size=8)
        with pytest.raises(MemoryError_):
            space.load(seg.base + 3)
        with pytest.raises(MemoryError_):
            space.store(seg.base + 5, 1)

    def test_is_mapped_boundaries(self):
        space = AddressSpace()
        seg = space.allocate("a", 4, elem_size=8)
        assert space.is_mapped(seg.base)
        assert space.is_mapped(seg.end - 1)
        assert not space.is_mapped(seg.end)
        assert not space.is_mapped(seg.base - 1)

    def test_lookup_cache_consistency(self):
        # Interleaved accesses across segments exercise the last-segment
        # fast path.
        space = AddressSpace()
        a = space.allocate("a", 4, elem_size=8)
        b = space.allocate("b", 4, elem_size=8)
        space.store(a.base, 1)
        space.store(b.base, 2)
        assert space.load(a.base) == 1
        assert space.load(b.base) == 2
        assert space.load(a.base) == 1


class TestClone:
    def _space(self):
        space = AddressSpace()
        space.allocate("a", [1, 2, 3], elem_size=8)
        space.allocate("b", [7, 8], elem_size=4)
        return space

    def test_same_layout_and_values(self):
        space = self._space()
        twin = space.clone()
        assert [
            (s.name, s.base, s.elem_size, s.end, s.values)
            for s in twin.segments()
        ] == [
            (s.name, s.base, s.elem_size, s.end, s.values)
            for s in space.segments()
        ]
        for seg in space.segments():
            assert twin.load(seg.base) == space.load(seg.base)
            assert twin.segment(seg.name).values == seg.values

    def test_lists_are_independent(self):
        space = self._space()
        twin = space.clone()
        a = space.segment("a")
        for original, copy in zip(space.segments(), twin.segments()):
            assert copy is not original
            assert copy.values is not original.values
        twin.store(a.base, 99)
        assert space.load(a.base) == 1
        space.store(a.address_of(1), -5)
        assert twin.load(a.address_of(1)) == 2

    def test_allocate_after_clone_lands_at_same_base(self):
        space = self._space()
        twin = space.clone()
        assert twin.allocate("c", 4).base == space.allocate("c", 4).base
        twin.allocate("d", 1)
        with pytest.raises(MemoryError_):
            space.segment("d")

    def test_lookup_memo_is_not_shared(self):
        space = self._space()
        b = space.segment("b")
        assert space.load(b.base) == 7  # primes space's last-segment memo
        twin = space.clone()
        assert twin._last is None
        a = twin.segment("a")
        assert twin.load(a.base) == 1
        assert twin._last is a
        assert space._last is b
