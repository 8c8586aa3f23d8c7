"""Fault-plan construction, sampling and application tests."""

import numpy as np
import pytest

from repro.arch.presets import GEFORCE_GTX_480, HD_RADEON_7970
from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.errors import ConfigError
from repro.sim.faults import (
    FaultPlan,
    fault_from_flat,
    sample_faults,
    words_per_core,
)


class TestFaultPlan:
    def test_valid(self):
        plan = FaultPlan(REGISTER_FILE, core=1, word=5, bit=31, cycle=100)
        assert plan.bit == 31

    def test_bad_structure(self):
        with pytest.raises(ConfigError):
            FaultPlan("icache", 0, 0, 0, 0)

    def test_bad_bit(self):
        with pytest.raises(ConfigError):
            FaultPlan(REGISTER_FILE, 0, 0, 32, 0)

    def test_negative_coordinates(self):
        with pytest.raises(ConfigError):
            FaultPlan(REGISTER_FILE, -1, 0, 0, 0)

    def test_hashable(self):
        a = FaultPlan(REGISTER_FILE, 0, 1, 2, 3)
        b = FaultPlan(REGISTER_FILE, 0, 1, 2, 3)
        assert a == b and hash(a) == hash(b)

    def test_defaults_are_single_transient_bit(self):
        plan = FaultPlan(REGISTER_FILE, 0, 1, 2, 3)
        assert plan.width == 1
        assert plan.stuck_value == -1
        assert not plan.is_persistent
        assert plan.bit_mask == 1 << 2

    def test_cluster_crossing_word_boundary_rejected(self):
        with pytest.raises(ConfigError, match="word boundary"):
            FaultPlan(REGISTER_FILE, 0, 0, bit=30, cycle=0, width=4)

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(REGISTER_FILE, 0, 0, 0, 0, width=0)
        with pytest.raises(ConfigError):
            FaultPlan(REGISTER_FILE, 0, 0, 0, 0, width=33)

    def test_bad_stuck_value_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(REGISTER_FILE, 0, 0, 0, 0, stuck_value=2)

    def test_stuck_plan_is_persistent(self):
        assert FaultPlan(REGISTER_FILE, 0, 0, 0, 0, stuck_value=0).is_persistent
        assert FaultPlan(REGISTER_FILE, 0, 0, 0, 0, stuck_value=1).is_persistent

    def test_cluster_mask(self):
        plan = FaultPlan(LOCAL_MEMORY, 0, 0, bit=4, cycle=0, width=3)
        assert plan.bit_mask == 0b111 << 4


class TestFlatMapping:
    def test_words_per_core(self):
        assert words_per_core(GEFORCE_GTX_480, REGISTER_FILE) == 32768
        assert words_per_core(GEFORCE_GTX_480, LOCAL_MEMORY) == 48 * 1024 // 4

    def test_first_bit(self):
        plan = fault_from_flat(GEFORCE_GTX_480, REGISTER_FILE, 0, 10)
        assert (plan.core, plan.word, plan.bit) == (0, 0, 0)

    def test_core_boundary(self):
        per_core_bits = 32768 * 32
        plan = fault_from_flat(GEFORCE_GTX_480, REGISTER_FILE, per_core_bits, 0)
        assert (plan.core, plan.word, plan.bit) == (1, 0, 0)

    def test_last_bit(self):
        total = GEFORCE_GTX_480.register_file_bits
        plan = fault_from_flat(GEFORCE_GTX_480, REGISTER_FILE, total - 1, 0)
        assert plan.core == 14
        assert plan.word == 32767
        assert plan.bit == 31

    def test_out_of_range(self):
        total = GEFORCE_GTX_480.register_file_bits
        with pytest.raises(ConfigError):
            fault_from_flat(GEFORCE_GTX_480, REGISTER_FILE, total, 0)

    def test_global_word_is_whole_chip_core_major(self):
        """Regression: global_word once returned the per-core index
        while its docstring promised whole-chip core-major coordinates.
        It must invert fault_from_flat's word arithmetic exactly."""
        per_core = words_per_core(GEFORCE_GTX_480, REGISTER_FILE)
        plan = FaultPlan(REGISTER_FILE, core=3, word=17, bit=5, cycle=0)
        assert plan.global_word(GEFORCE_GTX_480) == 3 * per_core + 17

    def test_global_word_round_trips_flat_index(self):
        for structure in (REGISTER_FILE, LOCAL_MEMORY):
            for flat in (0, 12345, 999_999):
                plan = fault_from_flat(GEFORCE_GTX_480, structure, flat, 0)
                assert plan.global_word(GEFORCE_GTX_480) * 32 + plan.bit \
                    == flat

    def test_global_word_distinguishes_cores(self):
        """Same per-core word on different cores -> different chip words
        (the property the buggy per-core implementation violated)."""
        a = FaultPlan(REGISTER_FILE, core=0, word=7, bit=0, cycle=0)
        b = FaultPlan(REGISTER_FILE, core=1, word=7, bit=0, cycle=0)
        assert a.global_word(GEFORCE_GTX_480) != b.global_word(GEFORCE_GTX_480)


class TestSampling:
    def test_count_and_bounds(self):
        rng = np.random.default_rng(0)
        plans = sample_faults(HD_RADEON_7970, LOCAL_MEMORY, 10_000, 500, rng)
        assert len(plans) == 500
        for plan in plans:
            assert 0 <= plan.core < 32
            assert 0 <= plan.word < 64 * 1024 // 4
            assert 0 <= plan.cycle < 10_000

    def test_deterministic_by_seed(self):
        first = sample_faults(
            GEFORCE_GTX_480, REGISTER_FILE, 1000, 50, np.random.default_rng(42)
        )
        second = sample_faults(
            GEFORCE_GTX_480, REGISTER_FILE, 1000, 50, np.random.default_rng(42)
        )
        assert first == second

    def test_zero_cycles_rejected(self):
        with pytest.raises(ConfigError):
            sample_faults(GEFORCE_GTX_480, REGISTER_FILE, 0, 10,
                          np.random.default_rng(0))

    def test_roughly_uniform_over_cores(self):
        rng = np.random.default_rng(1)
        plans = sample_faults(GEFORCE_GTX_480, REGISTER_FILE, 100, 3000, rng)
        counts = np.bincount([p.core for p in plans], minlength=15)
        assert counts.min() > 100  # expected 200 per core
