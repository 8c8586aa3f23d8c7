"""Global memory model tests."""

import numpy as np
import pytest

from repro.errors import ConfigError, MemoryFault
from repro.sim.memory import GlobalMemory


class TestAllocation:
    def test_alloc_returns_aligned_base(self):
        mem = GlobalMemory()
        a = mem.alloc("a", 100 * 4)
        b = mem.alloc("b", 16)
        assert a.base % 256 == 0 or a.base == 0x1000
        assert b.base >= a.end
        assert b.base % 256 == 0

    def test_duplicate_name_rejected(self):
        mem = GlobalMemory()
        mem.alloc("a", 16)
        with pytest.raises(ConfigError, match="already allocated"):
            mem.alloc("a", 16)

    def test_bad_size_rejected(self):
        mem = GlobalMemory()
        with pytest.raises(ConfigError):
            mem.alloc("a", 0)
        with pytest.raises(ConfigError):
            mem.alloc("b", 6)

    def test_exhaustion(self):
        mem = GlobalMemory(capacity_bytes=8192)
        with pytest.raises(ConfigError, match="exhausted"):
            mem.alloc("big", 1 << 20)

    def test_alloc_from_preserves_data(self):
        mem = GlobalMemory()
        data = np.array([1.5, -2.5], dtype=np.float32)
        buffer = mem.alloc_from("f", data)
        assert np.array_equal(mem.read_host(buffer, np.float32), data)


class TestDeviceAccess:
    def test_load_store_roundtrip(self):
        mem = GlobalMemory()
        buffer = mem.alloc("a", 64)
        addrs = buffer.base + np.arange(16) * 4
        mem.store_words(addrs, np.arange(16, dtype=np.uint32))
        assert np.array_equal(mem.load_words(addrs), np.arange(16, dtype=np.uint32))

    def test_unallocated_load_faults(self):
        mem = GlobalMemory()
        mem.alloc("a", 64)
        with pytest.raises(MemoryFault):
            mem.load_words(np.array([0x10]))  # below base

    def test_past_end_faults(self):
        mem = GlobalMemory()
        buffer = mem.alloc("a", 64)
        with pytest.raises(MemoryFault):
            mem.load_words(np.array([buffer.end]))

    def test_misaligned_faults(self):
        mem = GlobalMemory()
        buffer = mem.alloc("a", 64)
        with pytest.raises(MemoryFault, match="misaligned"):
            mem.load_words(np.array([buffer.base + 2]))

    def test_fault_reports_address(self):
        mem = GlobalMemory()
        mem.alloc("a", 64)
        try:
            mem.store_words(np.array([4]), np.array([1], dtype=np.uint32))
        except MemoryFault as fault:
            assert fault.address == 4
        else:
            pytest.fail("expected MemoryFault")

    def test_lanes_across_adjacent_buffers(self):
        """One warp's lanes span two buffers, one lane exactly at the
        second buffer's base: every lane is valid."""
        mem = GlobalMemory()
        a = mem.alloc("a", 64)
        b = mem.alloc("b", 64)
        assert a.end < b.base  # an alignment gap lies between them
        addrs = np.array([a.base, a.end - 4, b.base, b.base + 8],
                         dtype=np.int64)
        mem.store_words(addrs, np.arange(1, 5, dtype=np.uint32))
        assert mem.load_words(addrs).tolist() == [1, 2, 3, 4]
        assert mem.read_host(b)[[0, 2]].tolist() == [3, 4]

    def test_lane_in_alignment_gap_faults(self):
        """A lane between two buffers faults and is the one reported,
        though the lanes around it are valid."""
        mem = GlobalMemory()
        a = mem.alloc("a", 64)
        b = mem.alloc("b", 64)
        gap = a.end + 16
        assert gap < b.base
        addrs = np.array([b.base, a.base, gap, b.base + 4], dtype=np.int64)
        with pytest.raises(MemoryFault) as excinfo:
            mem.load_words(addrs)
        assert excinfo.value.address == gap

    def test_atomic_add_serialises(self):
        mem = GlobalMemory()
        buffer = mem.alloc("a", 4)
        addrs = np.full(8, buffer.base, dtype=np.int64)
        old = mem.atomic_add(addrs, np.ones(8, dtype=np.uint32))
        assert sorted(old.tolist()) == list(range(8))
        assert mem.load_words(np.array([buffer.base]))[0] == 8

    def test_atomic_wraps(self):
        mem = GlobalMemory()
        buffer = mem.alloc("a", 4)
        mem.store_words(np.array([buffer.base]), np.array([0xFFFFFFFF], dtype=np.uint32))
        mem.atomic_add(np.array([buffer.base]), np.array([2], dtype=np.uint32))
        assert mem.load_words(np.array([buffer.base]))[0] == 1

    def test_segments_touched(self):
        mem = GlobalMemory()
        coalesced = np.arange(32) * 4 + 0x1000
        assert mem.segments_touched(coalesced) == 1
        scattered = np.arange(32) * 256 + 0x1000
        assert mem.segments_touched(scattered) == 32
        assert mem.segments_touched(np.array([], dtype=np.int64)) == 0

    def test_snapshot(self):
        mem = GlobalMemory()
        mem.alloc_from("x", np.array([7], dtype=np.uint32))
        mem.alloc_from("y", np.array([8, 9], dtype=np.uint32))
        snap = mem.snapshot(["y"])
        assert list(snap) == ["y"]
        assert snap["y"].tolist() == [8, 9]

    def test_write_host_bounds(self):
        mem = GlobalMemory()
        buffer = mem.alloc("a", 8)
        with pytest.raises(ConfigError, match="larger than buffer"):
            mem.write_host(buffer, np.zeros(10, dtype=np.uint32))
