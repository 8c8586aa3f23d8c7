"""Unit tests for the trace consumers: ACE, fault-site resolver, occupancy.

These drive the sinks with hand-built event sequences so every lifetime
rule is pinned down independently of the simulator.
"""

import numpy as np
import pytest

from repro.arch.structures import CONTROL_STRUCTURES, LOCAL_MEMORY, REGISTER_FILE
from repro.reliability.liveness import (
    AceAccumulator,
    AceMode,
    FaultSiteResolver,
    OccupancyAccumulator,
)
from repro.sim.faults import FaultPlan
from tests.conftest import MINI_NVIDIA

FULL = 0xFFFFFFFF


def reg_fault(word, cycle, core=0):
    return FaultPlan(REGISTER_FILE, core, word, 0, cycle)


def lmem_fault(word, cycle, core=0):
    return FaultPlan(LOCAL_MEMORY, core, word, 0, cycle)


class TestAceConservative:
    def make(self):
        return AceAccumulator(MINI_NVIDIA, AceMode.CONSERVATIVE)

    def test_write_read_interval(self):
        ace = self.make()
        ace.on_reg_access(100, 0, 5, FULL, True)    # write row 5
        ace.on_reg_access(150, 0, 5, FULL, False)   # read
        ace.on_run_end(1000)
        # 50 row-cycles x 32 lanes x 32 bits over 1000 cycles x all bits.
        expected = 50 * 32 * 32 / (1000 * MINI_NVIDIA.register_file_bits)
        assert ace.avf(REGISTER_FILE) == pytest.approx(expected)

    def test_write_without_read_is_dead(self):
        ace = self.make()
        ace.on_reg_access(100, 0, 5, FULL, True)
        ace.on_run_end(1000)
        assert ace.avf(REGISTER_FILE) == 0.0

    def test_last_read_wins(self):
        ace = self.make()
        ace.on_reg_access(0, 0, 1, FULL, True)
        ace.on_reg_access(10, 0, 1, FULL, False)
        ace.on_reg_access(90, 0, 1, FULL, False)
        ace.on_run_end(100)
        bit_cycles = 90 * 32 * 32
        assert ace.avf(REGISTER_FILE) == pytest.approx(
            bit_cycles / (100 * MINI_NVIDIA.register_file_bits)
        )

    def test_rewrite_opens_new_segment(self):
        ace = self.make()
        ace.on_reg_access(0, 0, 1, FULL, True)
        ace.on_reg_access(10, 0, 1, FULL, False)
        ace.on_reg_access(50, 0, 1, FULL, True)    # dead gap 10..50
        ace.on_reg_access(60, 0, 1, FULL, False)
        ace.on_run_end(100)
        bit_cycles = (10 + 10) * 32 * 32
        assert ace.avf(REGISTER_FILE) == pytest.approx(
            bit_cycles / (100 * MINI_NVIDIA.register_file_bits)
        )

    def test_conservative_ignores_masks(self):
        """A single-lane access still counts the whole row (the
        conservatism that inflates register-file ACE vs FI)."""
        ace = self.make()
        ace.on_reg_access(0, 0, 1, 0x1, True)
        ace.on_reg_access(10, 0, 1, 0x1, False)
        ace.on_run_end(100)
        assert ace.avf(REGISTER_FILE) == pytest.approx(
            10 * 32 * 32 / (100 * MINI_NVIDIA.register_file_bits)
        )

    def test_lmem_word_granular(self):
        ace = self.make()
        ace.on_lmem_access(0, 0, np.array([3, 4]), True)
        ace.on_lmem_access(20, 0, np.array([3]), False)
        ace.on_run_end(100)
        # Only word 3 was read: 20 word-cycles x 32 bits.
        assert ace.avf(LOCAL_MEMORY) == pytest.approx(
            20 * 32 / (100 * MINI_NVIDIA.local_memory_bits)
        )

    def test_requires_run_end(self):
        ace = self.make()
        with pytest.raises(RuntimeError):
            ace.avf(REGISTER_FILE)


class TestAceLaneMasked:
    def test_lane_masks_respected(self):
        ace = AceAccumulator(MINI_NVIDIA, AceMode.LANE_MASKED)
        ace.on_reg_access(0, 0, 1, 0xF, True)     # 4 lanes written
        ace.on_reg_access(10, 0, 1, 0x3, False)   # 2 lanes read
        ace.on_run_end(100)
        assert ace.avf(REGISTER_FILE) == pytest.approx(
            10 * 2 * 32 / (100 * MINI_NVIDIA.register_file_bits)
        )

    def test_lane_masked_never_exceeds_conservative(self):
        events = [
            (0, 0, 1, 0xFF, True),
            (5, 0, 1, 0x0F, False),
            (9, 0, 2, FULL, True),
            (20, 0, 2, 0x1, False),
            (30, 0, 1, 0xFF, True),
            (44, 0, 1, 0x2, False),
        ]
        cons = AceAccumulator(MINI_NVIDIA, AceMode.CONSERVATIVE)
        lane = AceAccumulator(MINI_NVIDIA, AceMode.LANE_MASKED)
        for event in events:
            cons.on_reg_access(*event)
            lane.on_reg_access(*event)
        cons.on_run_end(100)
        lane.on_run_end(100)
        assert lane.avf(REGISTER_FILE) <= cons.avf(REGISTER_FILE)


class TestResolver:
    def test_fault_before_read_is_live(self):
        plan = reg_fault(word=32, cycle=5)   # row 1 lane 0
        resolver = FaultSiteResolver(MINI_NVIDIA, [plan])
        resolver.on_reg_access(10, 0, 1, FULL, False)
        resolver.on_run_end(100)
        assert resolver.is_live(plan)

    def test_fault_before_write_is_dead(self):
        plan = reg_fault(word=32, cycle=5)
        resolver = FaultSiteResolver(MINI_NVIDIA, [plan])
        resolver.on_reg_access(10, 0, 1, FULL, True)   # overwritten
        resolver.on_reg_access(20, 0, 1, FULL, False)
        resolver.on_run_end(100)
        assert not resolver.is_live(plan)

    def test_fault_after_last_access_is_dead(self):
        plan = reg_fault(word=32, cycle=50)
        resolver = FaultSiteResolver(MINI_NVIDIA, [plan])
        resolver.on_reg_access(10, 0, 1, FULL, False)
        resolver.on_run_end(100)
        assert not resolver.is_live(plan)

    def test_lane_mask_checked(self):
        # Fault in lane 5; reads only cover lanes 0..3 -> dead.
        plan = reg_fault(word=32 + 5, cycle=0)
        resolver = FaultSiteResolver(MINI_NVIDIA, [plan])
        resolver.on_reg_access(10, 0, 1, 0xF, False)
        resolver.on_run_end(100)
        assert not resolver.is_live(plan)

    def test_wrong_core_ignored(self):
        plan = reg_fault(word=32, cycle=0, core=1)
        resolver = FaultSiteResolver(MINI_NVIDIA, [plan])
        resolver.on_reg_access(10, 0, 1, FULL, False)
        resolver.on_run_end(100)
        assert not resolver.is_live(plan)

    def test_read_at_fault_cycle_counts(self):
        plan = reg_fault(word=32, cycle=10)
        resolver = FaultSiteResolver(MINI_NVIDIA, [plan])
        resolver.on_reg_access(10, 0, 1, FULL, False)
        resolver.on_run_end(100)
        assert resolver.is_live(plan)

    def test_write_at_fault_cycle_kills(self):
        plan = reg_fault(word=32, cycle=10)
        resolver = FaultSiteResolver(MINI_NVIDIA, [plan])
        resolver.on_reg_access(10, 0, 1, FULL, True)
        resolver.on_run_end(100)
        assert not resolver.is_live(plan)

    def test_lmem_faults(self):
        live = lmem_fault(word=7, cycle=5)
        dead = lmem_fault(word=7, cycle=30)
        resolver = FaultSiteResolver(MINI_NVIDIA, [live, dead])
        resolver.on_lmem_access(10, 0, np.array([6, 7]), False)
        resolver.on_lmem_access(20, 0, np.array([7]), True)
        resolver.on_run_end(100)
        assert resolver.is_live(live)
        assert not resolver.is_live(dead)

    def test_lmem_untouched_word_dead(self):
        plan = lmem_fault(word=100, cycle=0)
        resolver = FaultSiteResolver(MINI_NVIDIA, [plan])
        resolver.on_lmem_access(10, 0, np.array([5]), False)
        resolver.on_run_end(50)
        assert not resolver.is_live(plan)

    def test_duplicate_plans_share_status(self):
        a = reg_fault(word=32, cycle=5)
        b = reg_fault(word=32, cycle=5)
        resolver = FaultSiteResolver(MINI_NVIDIA, [a, b])
        resolver.on_reg_access(10, 0, 1, FULL, False)
        resolver.on_run_end(100)
        assert resolver.is_live(a) and resolver.is_live(b)


class TestOccupancy:
    def test_single_block_fraction(self):
        occ = OccupancyAccumulator(MINI_NVIDIA)
        occ.on_block_alloc(0, 0, reg_words=1024, lmem_bytes=2048)
        occ.on_block_free(100, 0, reg_words=1024, lmem_bytes=2048)
        occ.on_run_end(100)
        reg_expected = 1024 / (MINI_NVIDIA.registers_per_core * 2)
        lmem_expected = 2048 / (MINI_NVIDIA.local_memory_bytes * 2)
        assert occ.occupancy(REGISTER_FILE) == pytest.approx(reg_expected)
        assert occ.occupancy(LOCAL_MEMORY) == pytest.approx(lmem_expected)

    def test_time_weighting(self):
        occ = OccupancyAccumulator(MINI_NVIDIA)
        occ.on_block_alloc(0, 0, 1024, 0)
        occ.on_block_free(50, 0, 1024, 0)   # occupied half the run
        occ.on_run_end(100)
        expected = 1024 * 50 / (MINI_NVIDIA.registers_per_core * 2 * 100)
        assert occ.occupancy(REGISTER_FILE) == pytest.approx(expected)

    def test_two_cores_independent(self):
        occ = OccupancyAccumulator(MINI_NVIDIA)
        occ.on_block_alloc(0, 0, 1024, 0)
        occ.on_block_alloc(0, 1, 1024, 0)
        occ.on_block_free(100, 0, 1024, 0)
        occ.on_block_free(100, 1, 1024, 0)
        occ.on_run_end(100)
        expected = 2 * 1024 / (MINI_NVIDIA.registers_per_core * 2)
        assert occ.occupancy(REGISTER_FILE) == pytest.approx(expected)

    def test_empty_run(self):
        occ = OccupancyAccumulator(MINI_NVIDIA)
        occ.on_run_end(0)
        assert occ.occupancy(REGISTER_FILE) == 0.0

    def test_requires_run_end(self):
        occ = OccupancyAccumulator(MINI_NVIDIA)
        with pytest.raises(RuntimeError):
            occ.occupancy(REGISTER_FILE)


@pytest.mark.parametrize("structure", CONTROL_STRUCTURES)
def test_control_structures_have_no_ace_or_occupancy_model(structure):
    # Control-structure AVF is measured by fault injection only; asking
    # the lifetime models for one is a caller error, not a silent 0.0.
    ace = AceAccumulator(MINI_NVIDIA)
    occ = OccupancyAccumulator(MINI_NVIDIA)
    ace.on_run_end(100)
    occ.on_run_end(100)
    with pytest.raises(ValueError, match=structure):
        ace.avf(structure)
    with pytest.raises(ValueError, match=structure):
        occ.occupancy(structure)
