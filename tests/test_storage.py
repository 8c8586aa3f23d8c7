"""Register file and local memory storage tests (incl. tracing hooks)."""

import numpy as np
import pytest

from repro.errors import ConfigError, LocalMemoryFault
from repro.sim.regfile import RegisterFile
from repro.sim.sharedmem import LocalMemory
from repro.sim.tracing import EventRecorder


class TestRegisterFile:
    def test_row_layout(self):
        rf = RegisterFile(0, 256, 32)
        assert rf.num_rows == 8

    def test_row_size_must_divide(self):
        with pytest.raises(ConfigError):
            RegisterFile(0, 100, 32)

    def test_masked_write(self):
        rf = RegisterFile(0, 256, 32)
        values = np.arange(32, dtype=np.uint32)
        sel = np.zeros(32, dtype=bool)
        sel[:4] = True
        rf.write_row(2, values, sel, 0xF, cycle=5)
        row = rf.read_row(2, 0xFFFFFFFF, cycle=6)
        assert np.array_equal(row[:4], values[:4])
        assert (row[4:] == 0).all()

    def test_read_returns_copy(self):
        rf = RegisterFile(0, 256, 32)
        row = rf.read_row(0, 0xFFFFFFFF, 0)
        row[:] = 99
        assert (rf.read_row(0, 0xFFFFFFFF, 0) == 0).all()

    def test_flip_bit(self):
        rf = RegisterFile(0, 256, 32)
        rf.flip_bit(10, 3)
        assert rf.data[10] == 8
        rf.flip_bit(10, 3)
        assert rf.data[10] == 0

    def test_flip_bit_bounds(self):
        rf = RegisterFile(0, 256, 32)
        with pytest.raises(ConfigError):
            rf.flip_bit(256, 0)

    def test_clear_rows(self):
        rf = RegisterFile(0, 256, 32)
        rf.data[:] = 7
        rf.clear_rows(1, 2)
        assert (rf.data[32:96] == 0).all()
        assert (rf.data[:32] == 7).all()

    def test_tracing_events(self):
        recorder = EventRecorder()
        rf = RegisterFile(3, 256, 32, sink=recorder)
        rf.read_row(1, 0xF, cycle=10)
        rf.write_row(2, np.zeros(32, dtype=np.uint32),
                     np.ones(32, dtype=bool), 0xFFFFFFFF, cycle=11)
        assert recorder.reg_events == [
            (10, 3, 1, 0xF, False),
            (11, 3, 2, 0xFFFFFFFF, True),
        ]

    def test_zero_mask_not_traced(self):
        recorder = EventRecorder()
        rf = RegisterFile(0, 256, 32, sink=recorder)
        rf.read_row(1, 0, cycle=10)
        assert recorder.reg_events == []


class TestLocalMemory:
    def test_roundtrip(self):
        lm = LocalMemory(0, 1024)
        addrs = np.arange(8) * 4
        lm.store(addrs, np.arange(8, dtype=np.uint32), cycle=0)
        assert np.array_equal(lm.load(addrs, cycle=1), np.arange(8, dtype=np.uint32))

    def test_out_of_bounds(self):
        lm = LocalMemory(0, 1024)
        with pytest.raises(LocalMemoryFault):
            lm.load(np.array([1024]), cycle=0)
        with pytest.raises(LocalMemoryFault):
            lm.load(np.array([-4]), cycle=0)

    def test_misaligned(self):
        lm = LocalMemory(0, 1024)
        with pytest.raises(LocalMemoryFault):
            lm.store(np.array([3]), np.array([1], dtype=np.uint32), cycle=0)

    def test_fault_reports_first_offending_lane(self):
        lm = LocalMemory(0, 1024)
        for addrs, bad in (([0, 2048, -4, 1024], 2048),
                           ([0, -8, 4096], -8),
                           ([8, 4096, 6], 6)):  # misalignment checked first
            with pytest.raises(LocalMemoryFault) as fault:
                lm.load(np.array(addrs), cycle=0)
            assert fault.value.address == bad

    def test_atomic_add(self):
        lm = LocalMemory(0, 1024)
        addrs = np.zeros(16, dtype=np.int64)
        old = lm.atomic_add(addrs, np.ones(16, dtype=np.uint32), cycle=0)
        assert sorted(old.tolist()) == list(range(16))
        assert lm.data[0] == 16

    def test_flip_bit(self):
        lm = LocalMemory(0, 1024)
        lm.flip_bit(5, 31)
        assert lm.data[5] == 0x80000000

    def test_clear_range(self):
        lm = LocalMemory(0, 1024)
        lm.data[:] = 9
        lm.clear_range(128, 256)
        assert (lm.data[32:96] == 0).all()
        assert lm.data[31] == 9 and lm.data[96] == 9

    def test_trace_word_indices(self):
        recorder = EventRecorder()
        lm = LocalMemory(2, 1024, sink=recorder)
        lm.store(np.array([0, 8]), np.array([1, 2], dtype=np.uint32), cycle=4)
        assert recorder.lmem_events == [(4, 2, (0, 2), True)]

    def test_atomic_traces_read_and_write(self):
        recorder = EventRecorder()
        lm = LocalMemory(0, 1024, sink=recorder)
        lm.atomic_add(np.array([4]), np.array([1], dtype=np.uint32), cycle=7)
        kinds = [event[3] for event in recorder.lmem_events]
        assert kinds == [False, True]


class TestUsedMark:
    """Every word at or past ``used`` is zero; images hold the prefix."""

    def test_writes_raise_the_mark_and_reads_do_not(self):
        rf = RegisterFile(0, 256, 32)
        rf.write_row(2, np.ones(32), np.ones(32, dtype=bool), 1, cycle=0)
        assert rf.used == 96
        rf.read_row(5, 1, cycle=1)
        rf.write_row(1, np.ones(32), np.ones(32, dtype=bool), 1, cycle=2)
        assert rf.used == 96
        lm = LocalMemory(0, 1024)
        lm.load(np.array([1020]), cycle=0)
        assert lm.used == 0
        lm.store(np.array([40, 8]), np.ones(2, dtype=np.uint32), cycle=0)
        assert lm.used == 11
        lm.atomic_add(np.array([400]), np.ones(1, dtype=np.uint32), cycle=1)
        assert lm.used == 101

    @pytest.mark.parametrize("make", [lambda: RegisterFile(0, 256, 32),
                                      lambda: LocalMemory(0, 1024)],
                             ids=["regfile", "lmem"])
    def test_faults_raise_and_clears_keep_the_mark(self, make):
        storage = make()
        storage.flip_bits(9, 0b110)
        assert storage.used == 10
        storage.force_bit(20, 3, 1)
        assert storage.used == 21
        if isinstance(storage, RegisterFile):
            storage.clear_rows(4, 2)
        else:
            storage.clear_range(512, 256)
        assert storage.used == 21

    def test_image_is_the_prefix_and_restores_over_dirty_storage(self):
        rf = RegisterFile(0, 256, 32)
        rf.flip_bits(40, 7)
        image = rf.snapshot_state()
        assert image["num_words"] == 256
        assert image["data"].tolist() == [0] * 40 + [7]
        rf.flip_bits(200, 1)
        rf.restore_state(image)
        assert rf.used == 41
        assert rf.data[40] == 7 and not rf.data[41:].any()

    def test_image_of_another_geometry_is_refused(self):
        with pytest.raises(ConfigError, match="geometry"):
            RegisterFile(0, 512, 32).restore_state(
                RegisterFile(0, 256, 32).snapshot_state())
        with pytest.raises(ConfigError, match="geometry"):
            LocalMemory(0, 2048).restore_state(
                LocalMemory(0, 1024).snapshot_state())
