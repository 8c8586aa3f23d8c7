"""Control-structure fault sites: geometry, banks, apply semantics.

Covers the registry/geometry layer (:mod:`repro.arch.structures`), the
per-core control banks (:mod:`repro.sim.control`) that translate
(word, bit) coordinates into live warp state, the hardware warp-slot
allocation that backs them, and the registry-driven ``FaultPlan``
validation.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.arch.structures import (
    ALL_STRUCTURES,
    CONTROL_STRUCTURES,
    DATAPATH_STRUCTURES,
    NUM_SASS_PREDICATES,
    PREDICATE_FILE,
    SCHED_BARRIER_LO,
    SCHED_FLAGS,
    SCHED_READY_HI,
    SCHED_READY_LO,
    SCHED_WORDS_PER_WARP,
    SCHEDULER_STATE,
    SI_PRED_EXEC_HI,
    SI_PRED_EXEC_LO,
    SI_PRED_SCC,
    SI_PRED_VCC_LO,
    SI_PRED_WORDS_PER_WAVE,
    SIMT_STACK,
    SIMT_STACK_DEPTH,
    SIMT_STACK_ENTRY_WORDS,
    control_words_per_warp,
    exposed_structures,
    structure_exposed,
    structure_info,
    words_per_core,
)
from repro.errors import BarrierDeadlock, ConfigError
from repro.kernels.registry import get_workload
from repro.kernels.workload import run_workload
from repro.sim.faults import FaultPlan, fault_from_flat, sample_faults
from repro.sim.gpu import Gpu
from repro.sim.launch import LaunchConfig, pack_params
from repro.sim.occupancy import block_footprint, max_resident_blocks
from repro.sim.simt_stack import NO_RECONV
from repro.isa.sass.parser import assemble_sass
from repro.isa.si.parser import assemble_si
from tests.conftest import MINI_AMD, MINI_NVIDIA

SASS_BODY = """
.kernel body
.regs 8
.smem 0
    S2R R0, SR_TID_X
    SHL R1, R0, 2
    IADD R2, R1, c[0]
    STG [R2], R0
    EXIT
"""

SI_BODY = """
.kernel body
.vregs 8
.sregs 16
.lds 0
    v_lshlrev_b32 v1, 2, v0
    s_load_dword s6, param[0]
    v_add_i32 v1, v1, s6
    global_store_dword v1, v0
    s_endpgm
"""


def _resident_sass(config=MINI_NVIDIA, source=SASS_BODY, block=(32,)):
    """A core with one resident block (manual dispatch, not drained)."""
    program = assemble_sass(source)
    gpu = Gpu(config)
    base = gpu.mem.alloc("out", 4096).base
    launch = LaunchConfig(program=program, grid=(1,), block=block,
                          params=pack_params(base))
    footprint = block_footprint(config, program, launch)
    cap = max_resident_blocks(config, footprint)
    core = gpu.cores[0]
    core.configure_launch(program, launch, footprint, cap, 0)
    core.add_block(0, (0, 0))
    return gpu, core


def _resident_si(config=MINI_AMD, source=SI_BODY, block=(64,)):
    program = assemble_si(source)
    gpu = Gpu(config)
    base = gpu.mem.alloc("out", 4096).base
    launch = LaunchConfig(program=program, grid=(1,), block=block,
                          params=pack_params(base))
    footprint = block_footprint(config, program, launch)
    cap = max_resident_blocks(config, footprint)
    core = gpu.cores[0]
    core.configure_launch(program, launch, footprint, cap, 0)
    core.add_block(0, (0, 0))
    return gpu, core


class TestRegistryAndGeometry:
    def test_registry_contents(self):
        assert DATAPATH_STRUCTURES == ("register_file", "local_memory")
        assert CONTROL_STRUCTURES == (
            "simt_stack", "predicate_file", "scheduler_state")
        assert ALL_STRUCTURES == DATAPATH_STRUCTURES + CONTROL_STRUCTURES
        for name in ALL_STRUCTURES:
            info = structure_info(name)
            assert info.name == name
            assert info.description

    def test_unknown_structure_names_valid_choices(self):
        with pytest.raises(ConfigError, match="simt_stack"):
            structure_info("l2_cache")
        with pytest.raises(ConfigError, match="known:"):
            FaultPlan(structure="l2_cache", core=0, word=0, bit=0, cycle=0)

    def test_control_plans_validate(self):
        plan = FaultPlan(structure=SIMT_STACK, core=1, word=5, bit=3, cycle=9)
        assert plan.structure == SIMT_STACK

    def test_exposure_by_isa(self):
        assert structure_exposed(MINI_NVIDIA, SIMT_STACK)
        assert not structure_exposed(MINI_AMD, SIMT_STACK)
        for structure in (PREDICATE_FILE, SCHEDULER_STATE,
                          *DATAPATH_STRUCTURES):
            assert structure_exposed(MINI_NVIDIA, structure)
            assert structure_exposed(MINI_AMD, structure)
        assert exposed_structures(MINI_AMD, ALL_STRUCTURES) == (
            "register_file", "local_memory", "predicate_file",
            "scheduler_state")

    def test_words_per_core_geometry(self):
        warps = MINI_NVIDIA.max_warps_per_core
        assert words_per_core(MINI_NVIDIA, SIMT_STACK) == \
            warps * SIMT_STACK_DEPTH * SIMT_STACK_ENTRY_WORDS
        assert words_per_core(MINI_NVIDIA, PREDICATE_FILE) == \
            warps * NUM_SASS_PREDICATES
        assert words_per_core(MINI_NVIDIA, SCHEDULER_STATE) == \
            warps * SCHED_WORDS_PER_WARP
        waves = MINI_AMD.max_warps_per_core
        assert words_per_core(MINI_AMD, PREDICATE_FILE) == \
            waves * SI_PRED_WORDS_PER_WAVE
        assert control_words_per_warp(MINI_AMD, PREDICATE_FILE) == \
            SI_PRED_WORDS_PER_WAVE

    def test_unexposed_structure_raises(self):
        with pytest.raises(ConfigError, match="not exposed"):
            words_per_core(MINI_AMD, SIMT_STACK)
        with pytest.raises(ConfigError, match="not exposed"):
            MINI_AMD.structure_bits(SIMT_STACK)

    def test_structure_bits_consistent_with_geometry(self):
        for config in (MINI_NVIDIA, MINI_AMD):
            for structure in exposed_structures(config, ALL_STRUCTURES):
                assert config.structure_bits(structure) == \
                    words_per_core(config, structure) * 32 * config.num_cores

    def test_fault_from_flat_round_trip_control(self):
        per_core = words_per_core(MINI_NVIDIA, SCHEDULER_STATE)
        flat = (per_core + 7) * 32 + 5  # core 1, word 7, bit 5
        plan = fault_from_flat(MINI_NVIDIA, SCHEDULER_STATE, flat, cycle=11)
        assert (plan.core, plan.word, plan.bit) == (1, 7, 5)
        assert plan.global_word(MINI_NVIDIA) == per_core + 7

    def test_sampling_covers_control_population(self):
        rng = np.random.default_rng(0)
        plans = sample_faults(MINI_NVIDIA, SIMT_STACK, total_cycles=1000,
                              count=64, rng=rng)
        per_core = words_per_core(MINI_NVIDIA, SIMT_STACK)
        assert all(p.structure == SIMT_STACK for p in plans)
        assert all(0 <= p.word < per_core for p in plans)
        assert all(0 <= p.core < MINI_NVIDIA.num_cores for p in plans)


class TestWarpSlotAllocation:
    def test_slots_assigned_in_order_and_freed(self):
        gpu, core = _resident_sass()
        assert [w.hw_slot for w in core.warps] == [0]
        block = core.blocks[0]
        core._retire_block(block)
        assert 0 in core._free_warp_slots

    def test_slots_distinct_across_blocks(self):
        gpu, core = _resident_sass(block=(64,))
        core.add_block(1, (1, 0))
        slots = [w.hw_slot for w in core.warps]
        assert len(slots) == len(set(slots))


class TestSimtStackBank:
    def test_pc_flip_changes_live_stack(self):
        gpu, core = _resident_sass()
        bank = core.control[SIMT_STACK]
        warp = core.warps[0]
        assert warp.hw_slot == 0
        before = warp.stack.entries[0].pc
        bank.flip_bit(0, 2)  # slot 0, level 0, field pc, bit 2
        assert warp.stack.entries[0].pc == before ^ 4

    def test_mask_flip(self):
        gpu, core = _resident_sass()
        bank = core.control[SIMT_STACK]
        warp = core.warps[0]
        before = warp.stack.entries[0].mask
        bank.flip_bits(1, 0b11)  # field mask
        assert warp.stack.entries[0].mask == before ^ 0b11

    def test_reconv_all_ones_round_trips_no_reconv(self):
        gpu, core = _resident_sass()
        bank = core.control[SIMT_STACK]
        warp = core.warps[0]
        assert warp.stack.entries[0].reconv == NO_RECONV
        assert bank._read(2) == 0xFFFFFFFF
        bank.flip_bit(2, 0)  # clears bit 0 of the all-ones encoding
        assert warp.stack.entries[0].reconv == 0xFFFFFFFE
        bank.flip_bit(2, 0)
        assert warp.stack.entries[0].reconv == NO_RECONV

    def test_unoccupied_slot_and_dead_level_are_noops(self):
        gpu, core = _resident_sass()
        bank = core.control[SIMT_STACK]
        words_per_warp = SIMT_STACK_DEPTH * SIMT_STACK_ENTRY_WORDS
        bank.flip_bit(5 * words_per_warp, 0)      # slot 5: empty
        bank.flip_bit(SIMT_STACK_ENTRY_WORDS, 0)  # level 1: beyond depth
        assert core.warps[0].stack.entries[0].pc == 0

    def test_word_out_of_range(self):
        gpu, core = _resident_sass()
        with pytest.raises(ConfigError, match="out of range"):
            core.control[SIMT_STACK].flip_bit(10 ** 6, 0)


class TestSassPredicateBank:
    def test_flip_sets_lane_bits(self):
        gpu, core = _resident_sass()
        bank = core.control[PREDICATE_FILE]
        warp = core.warps[0]
        bank.flip_bits(2, 0b101)  # slot 0, P2, lanes 0 and 2
        assert warp.preds[2][0] and warp.preds[2][2]
        assert not warp.preds[2][1]
        assert bank._read(2) == 0b101

    def test_force_bit_sticks_across_overwrites(self):
        gpu, core = _resident_sass()
        bank = core.control[PREDICATE_FILE]
        warp = core.warps[0]
        bank.force_bit(0, 4, 1)  # P0 lane 4 stuck at 1
        assert warp.preds[0][4]
        warp.preds[0][:] = False  # program overwrites the predicate
        bank.reassert()
        assert warp.preds[0][4]


class TestSiPredicateBank:
    def test_exec_and_vcc_lo_hi_mapping(self):
        gpu, core = _resident_si()
        bank = core.control[PREDICATE_FILE]
        wave = core.warps[0]
        wave.exec_mask = (1 << 64) - 1
        bank.flip_bit(SI_PRED_EXEC_LO, 0)
        assert wave.exec_mask == (1 << 64) - 2
        bank.flip_bit(SI_PRED_EXEC_HI, 31)
        assert wave.exec_mask == (1 << 64) - 2 - (1 << 63)
        bank.flip_bit(SI_PRED_VCC_LO, 3)
        assert wave.vcc == 8

    def test_scc_bit0_toggles_others_dead(self):
        gpu, core = _resident_si()
        bank = core.control[PREDICATE_FILE]
        wave = core.warps[0]
        assert not wave.scc
        bank.flip_bit(SI_PRED_SCC, 0)
        assert wave.scc
        bank.flip_bit(SI_PRED_SCC, 7)  # unimplemented storage: no-op
        assert wave.scc


class TestSchedulerStateBank:
    @pytest.mark.parametrize("make", [_resident_sass, _resident_si],
                             ids=["sass", "si"])
    def test_ready_cycle_lo_hi(self, make):
        gpu, core = make()
        bank = core.control[SCHEDULER_STATE]
        warp = core.warps[0]
        warp.ready_cycle = 10
        bank.flip_bit(SCHED_READY_LO, 0)
        assert warp.ready_cycle == 11
        bank.flip_bit(SCHED_READY_HI, 0)
        assert warp.ready_cycle == 11 + (1 << 32)

    def test_barrier_flags(self):
        gpu, core = _resident_sass()
        bank = core.control[SCHEDULER_STATE]
        warp = core.warps[0]
        bank.flip_bit(SCHED_FLAGS, 0)
        assert warp.at_barrier
        bank.flip_bit(SCHED_FLAGS, 0)
        assert not warp.at_barrier
        bank.flip_bit(SCHED_BARRIER_LO, 5)
        assert warp.barrier_arrival == 32

    def test_stuck_ready_bit_reasserts_each_issue(self):
        gpu, core = _resident_sass()
        bank = core.control[SCHEDULER_STATE]
        warp = core.warps[0]
        bank.force_bit(SCHED_READY_LO, 3, 1)
        assert warp.ready_cycle & 8
        warp.ready_cycle = 0  # scheduler rewrites the counter
        core._reassert_control()
        assert warp.ready_cycle == 8


class TestControlSnapshotRestore:
    @pytest.mark.parametrize("make,structure,word", [
        (_resident_sass, SIMT_STACK, 1),
        (_resident_sass, PREDICATE_FILE, 3),
        (_resident_sass, SCHEDULER_STATE, SCHED_READY_LO),
        (_resident_si, PREDICATE_FILE, SI_PRED_EXEC_LO),
        (_resident_si, SCHEDULER_STATE, SCHED_BARRIER_LO),
    ], ids=["sass-stack", "sass-pred", "sass-sched", "si-pred", "si-sched"])
    def test_stuck_at_overlay_survives_restore(self, make, structure, word):
        gpu, core = make()
        core.control[structure].force_bit(word, 2, 1)
        state = core.snapshot_state()

        fresh_gpu, fresh_core = make()
        fresh_core.restore_state(
            state, program=core.program, launch=core.launch,
            footprint=core.footprint)
        bank = fresh_core.control[structure]
        assert bank._forced == {word: (0xFFFFFFFF, 1 << 2)}
        assert fresh_core._control_dirty
        # The overlay keeps asserting itself after the restore.
        bank._write(word, 0)
        fresh_core._reassert_control()
        assert bank._read(word) & (1 << 2)

    def test_warp_slots_round_trip(self):
        gpu, core = _resident_sass(block=(64,))
        state = core.snapshot_state()
        fresh_gpu, fresh_core = _resident_sass(block=(64,))
        fresh_core._retire_block(fresh_core.blocks[0])
        fresh_core.restore_state(
            state, program=core.program, launch=core.launch,
            footprint=core.footprint)
        assert [w.hw_slot for w in fresh_core.warps] == \
            [w.hw_slot for w in core.warps]
        assert fresh_core._free_warp_slots == core._free_warp_slots


class TestMachineLifetime:
    @pytest.mark.parametrize("config", [MINI_NVIDIA, MINI_AMD],
                             ids=["sass", "si"])
    def test_finished_machine_is_freed_without_the_collector(self, config):
        """Banks refer back to their core weakly, so a finished machine
        is not cyclic garbage: its last reference frees it."""
        gc.disable()
        try:
            gpu = Gpu(config)
            run_workload(gpu, get_workload("scan", "tiny"))
            assert gpu.cores[0].control
            refs = [weakref.ref(part) for part in (gpu, gpu.mem, *gpu.cores)]
            del gpu
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestFetchHardening:
    @pytest.mark.parametrize("isa", ["sass", "si"])
    @pytest.mark.parametrize("where", ["below", "past_end", "wild"])
    def test_pc_outside_program(self, isa, where):
        """Both ends of the shared fetch bounds check, one pc outside,
        and a pc far outside."""
        from repro.errors import IllegalInstruction
        gpu, core = _resident_sass() if isa == "sass" else _resident_si()
        pc = {"below": -1, "past_end": len(core.program),
              "wild": 10 ** 6 if isa == "sass" else -3}[where]
        warp = core.warps[0]
        if isa == "sass":
            warp.stack.top.pc = pc
        else:
            warp.pc = pc
        with pytest.raises(IllegalInstruction, match="pc"):
            while core.has_work:
                core.run_until_retire()

    def test_wild_pc_is_illegal_instruction_not_crash(self):
        from repro.errors import IllegalInstruction
        gpu, core = _resident_sass()
        core.control[SIMT_STACK]._write(0, 10 ** 6)  # pc far outside program
        with pytest.raises(IllegalInstruction, match="pc"):
            while core.has_work:
                core.run_until_retire()


class TestAtBarrierFlagFaults:
    """A ``scheduler_state`` fault on the at-barrier latch must hold the
    warp out of issue at once, even in a kernel with no barrier: the
    warp waits for its siblings to finish, whose exits release it.

    Faulty cycles and issue counts were recorded at the commit before
    the issue loop kept a runnable-warp list (``vectoradd``, ``tiny``,
    core 0, fault at cycle 100; golden cycles 980 SASS, 876 SI).
    """

    @staticmethod
    def _gpu(isa, plan, fault_model):
        gpu = Gpu(MINI_NVIDIA if isa == "sass" else MINI_AMD)
        gpu.set_faults([plan], fault_model=fault_model)
        return gpu

    @staticmethod
    def _plan(slot, **kwargs):
        return FaultPlan(SCHEDULER_STATE, 0,
                         slot * SCHED_WORDS_PER_WARP + SCHED_FLAGS, 0, 100,
                         **kwargs)

    @pytest.mark.parametrize("isa,cycles", [("sass", 1604), ("si", 1532)])
    def test_transient_flag_flip_parks_warp_until_siblings_finish(
            self, isa, cycles):
        workload = get_workload("vectoradd", "tiny")
        golden = run_workload(
            Gpu(MINI_NVIDIA if isa == "sass" else MINI_AMD), workload)
        faulty = run_workload(self._gpu(isa, self._plan(0), "transient"),
                              workload)
        assert faulty.cycles == cycles
        assert golden.cycles < cycles
        for name, values in golden.outputs.items():
            np.testing.assert_array_equal(faulty.outputs[name], values)

    # Slot 0, and a slot of core 0's last block: once its siblings'
    # exits release that warp it is the only one left to issue, and the
    # stuck latch, re-imposed at that very issue, must park it for good.
    @pytest.mark.parametrize("isa,slot,issued", [
        ("sass", 0, 225), ("sass", 4, 225), ("si", 0, 136), ("si", 2, 136),
    ])
    def test_stuck_flag_deadlocks_once_siblings_finish(self, isa, slot,
                                                       issued):
        gpu = self._gpu(isa, self._plan(slot, stuck_value=1), "stuck_at")
        with pytest.raises(BarrierDeadlock, match="core 0"):
            run_workload(gpu, get_workload("vectoradd", "tiny"))
        assert gpu.instructions_issued == issued
