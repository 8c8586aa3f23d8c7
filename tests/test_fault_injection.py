"""End-to-end fault-injection behaviour: flips propagate, crash, or mask.

Includes the pruning-exactness property — the core validation of the
GUFI-style acceleration: every fault the resolver prunes as dead must,
when actually re-simulated, produce bit-identical outputs.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch.structures import (
    LOCAL_MEMORY,
    NUM_SASS_PREDICATES,
    PREDICATE_FILE,
    REGISTER_FILE,
    SI_PRED_VCC_LO,
    SI_PRED_WORDS_PER_WAVE,
)
from repro.errors import SimFault, WatchdogTimeout
from repro.kernels.registry import get_workload
from repro.kernels.workload import run_workload
from repro.reliability.campaign import run_cell
from repro.reliability.fi import run_golden
from repro.reliability.liveness import FaultSiteResolver
from repro.reliability.outcomes import (
    Outcome,
    classify_outputs,
    count_corrupted_words,
)
from repro.sim.core import CoreBase
from repro.sim.faults import FaultPlan, sample_faults
from repro.sim.gpu import Gpu
from repro.sim.tracing import EventRecorder
from repro.spec import CampaignSpec
from tests.conftest import MINI_AMD, MINI_NVIDIA, run_sass

COPY_KERNEL = """
.kernel copy
.regs 8
.smem 0
    S2R R0, SR_TID_X
    SHL R1, R0, 2
    IADD R2, R1, c[0]
    LDG R3, [R2]
    NOP
    NOP
    NOP
    IADD R4, R1, c[1]
    STG [R4], R3
    EXIT
"""


def _trace_r3_row(data):
    """Find the register row and cycles where R3 of warp 0 lives."""
    recorder = EventRecorder()
    gpu, snap = run_sass(COPY_KERNEL, {"in": data, "out": data.size * 4},
                         ["in", "out"], sink=recorder)
    return recorder, snap


class TestDirectedInjection:
    def test_flip_in_live_register_corrupts_output(self):
        # Values start at 100 so a zeroed output word is never a false
        # match for the expected data.
        data = np.arange(100, 132, dtype=np.uint32)
        recorder, golden = _trace_r3_row(data)
        # R3 is written by the LDG (a read of the in buffer, then a reg
        # write); find a register row written then read again (the STG
        # source read), and flip a bit between the two events.
        writes = [e for e in recorder.reg_events if e[4]]
        reads = [e for e in recorder.reg_events if not e[4]]
        target = None
        for wcycle, wcore, wrow, wmask, _ in writes:
            later = [r for r in reads if r[2] == wrow and r[0] > wcycle]
            if later:
                target = (wcore, wrow, wcycle, later[0][0])
                break
        assert target is not None
        core, row, wcycle, rcycle = target
        plan = FaultPlan(REGISTER_FILE, core, row * 32, 0, wcycle + 1)
        gpu, snap = run_sass(COPY_KERNEL, {"in": data, "out": data.size * 4},
                             ["in", "out"], faults=[plan])
        assert not np.array_equal(snap["out"], golden["out"])

    def test_flip_after_last_read_is_masked(self):
        data = np.arange(32, dtype=np.uint32)
        recorder, golden = _trace_r3_row(data)
        last_cycle = max(e[0] for e in recorder.reg_events)
        plan = FaultPlan(REGISTER_FILE, 0, 0, 0, last_cycle + 1000)
        gpu, snap = run_sass(COPY_KERNEL, {"in": data, "out": data.size * 4},
                             ["in", "out"], faults=[plan])
        assert np.array_equal(snap["out"], golden["out"])

    def test_flip_in_unallocated_register_is_masked(self):
        data = np.arange(32, dtype=np.uint32)
        _, golden = _trace_r3_row(data)
        # The mini chip has 64 rows; the copy kernel's single warp uses
        # the first 8. Row 50 is never allocated.
        plan = FaultPlan(REGISTER_FILE, 0, 50 * 32 + 5, 17, 3)
        gpu, snap = run_sass(COPY_KERNEL, {"in": data, "out": data.size * 4},
                             ["in", "out"], faults=[plan])
        assert np.array_equal(snap["out"], golden["out"])

    def test_address_register_flip_can_crash(self):
        """A high bit flipped in an address register produces a DUE."""
        data = np.arange(32, dtype=np.uint32)
        recorder, _ = _trace_r3_row(data)
        # Flip a high bit of every plausible row/cycle until one faults.
        crashed = False
        writes = [e for e in recorder.reg_events if e[4]]
        for wcycle, wcore, wrow, _, _ in writes:
            plan = FaultPlan(REGISTER_FILE, wcore, wrow * 32, 30, wcycle + 1)
            try:
                run_sass(COPY_KERNEL, {"in": data, "out": data.size * 4},
                         ["in", "out"], faults=[plan])
            except SimFault:
                crashed = True
                break
        assert crashed

    def test_watchdog_catches_runaway(self):
        source = """
.kernel spin
.regs 8
.smem 0
    MOV R0, RZ
loop:
    IADD R0, R0, 1
    ISETP.LT P0, R0, 100000
@P0 BRA loop
    EXIT
"""
        with pytest.raises(WatchdogTimeout):
            run_sass(source, {"out": 128}, ["out"], watchdog=5_000)


#: ``vectoradd`` register rows of the first warp on core 0 (its block
#: starts at row 0): the sum register, written by the add and read by
#: the store (SASS R6, SI v4), and the store-address register, whose
#: last write (offset + output base) does not read it (SASS R5, SI v3).
VECTORADD_ROWS = {"sass": (MINI_NVIDIA, 6, 5), "si": (MINI_AMD, 4, 3)}
#: Flipped bit: not 0, so a flip forced onto bit 0 is told apart.
BIT = 7


def _run_tiny(config, name, plan=None):
    gpu = Gpu(config)
    if plan is not None:
        gpu.set_faults([plan])
    return run_workload(gpu, get_workload(name, "tiny"))


def _recorded(config, name):
    """Every sim event of one fault-free ``tiny`` run of ``name``."""
    recorder = EventRecorder()
    run_workload(Gpu(config, sink=recorder), get_workload(name, "tiny"))
    return recorder


def _is_live(config, name, plan):
    resolver = FaultSiteResolver(config, [plan])
    run_workload(Gpu(config, sink=resolver), get_workload(name, "tiny"))
    return resolver.is_live(plan)


def _assert_exact_sdc(config, name, plan):
    """SDC: exactly one output word, off by exactly the flipped bit."""
    golden = _run_tiny(config, name).outputs
    faulty = _run_tiny(config, name, plan).outputs
    assert classify_outputs(golden, faulty) is Outcome.SDC
    assert count_corrupted_words(golden, faulty) == 1
    (buffer,) = golden
    (index,) = np.flatnonzero(faulty[buffer] != golden[buffer])
    assert faulty[buffer][index] == golden[buffer][index] ^ (1 << plan.bit)


def _assert_masked_at_golden_cycles(config, name, plan):
    golden = _run_tiny(config, name)
    faulty = _run_tiny(config, name, plan)
    assert classify_outputs(golden.outputs, faulty.outputs) is Outcome.MASKED
    assert faulty.cycles == golden.cycles


class TestVectoraddRegisterFaults:
    """Hand-derived ``vectoradd`` faults on lane 0 of core 0's first warp.

    The fault-timing convention: a fault planned for cycle c lands
    *before* the instruction issued at c executes. The liveness
    resolver assumes it (a site is dead iff its first access at or
    after c is a write), so these cases pin both sides of the boundary.
    """

    @staticmethod
    def _events(config, row):
        """(cycle, is_write) of every access to ``row`` lane 0, core 0."""
        recorder = _recorded(config, "vectoradd")
        return [(cycle, is_write)
                for cycle, core, r, mask, is_write in recorder.reg_events
                if core == 0 and r == row and mask & 1]

    def _sum_window(self, config, sum_row):
        """(add cycle, store cycle) of the sum register's final value."""
        events = self._events(config, sum_row)
        # The add reads and writes the sum in one issue; the store
        # reads it last.
        assert [w for _, w in events[-3:]] == [False, True, False]
        (add, _), (add_write, _), (store, _) = events[-3:]
        assert add == add_write < store
        return add, store

    @pytest.mark.parametrize("isa", ["sass", "si"])
    def test_fault_at_last_read_issue_cycle_corrupts(self, isa):
        config, sum_row, _ = VECTORADD_ROWS[isa]
        _, store = self._sum_window(config, sum_row)
        plan = FaultPlan(REGISTER_FILE, 0, sum_row * config.warp_size, BIT,
                         store)
        assert _is_live(config, "vectoradd", plan)
        _assert_exact_sdc(config, "vectoradd", plan)

    @pytest.mark.parametrize("isa", ["sass", "si"])
    def test_fault_at_overwrite_issue_cycle_is_masked(self, isa):
        config, sum_row, addr_row = VECTORADD_ROWS[isa]
        _, store = self._sum_window(config, sum_row)
        events = self._events(config, addr_row)
        # The address register's last write, then the store's read.
        assert [w for _, w in events[-2:]] == [True, False]
        (write, _), (read, _) = events[-2:]
        assert read == store
        assert (write, False) not in events, "the overwrite also reads"
        plan = FaultPlan(REGISTER_FILE, 0, addr_row * config.warp_size, 2,
                         write)
        assert not _is_live(config, "vectoradd", plan)
        _assert_masked_at_golden_cycles(config, "vectoradd", plan)

    @pytest.mark.parametrize("isa", ["sass", "si"])
    def test_sum_register_flip_is_one_exact_sdc(self, isa):
        """A flip strictly between the add and the store."""
        config, sum_row, _ = VECTORADD_ROWS[isa]
        add, store = self._sum_window(config, sum_row)
        _assert_exact_sdc(config, "vectoradd", FaultPlan(
            REGISTER_FILE, 0, sum_row * config.warp_size, BIT,
            (add + store) // 2))


class TestVectoraddPredicateFaults:
    """Hand-derived SASS ``vectoradd`` faults on P0 of core 0's first warp.

    The control-structure side of the fault-timing convention:
    ``ISETP.GE P0, R3, c[0]`` writes P0 (gid >= N) and ``@P0 EXIT``
    reads it at its next issue. Lane ``BIT`` of block 0 is thread
    ``gid == BIT``, in bounds, so its golden P0 bit is clear.
    """

    @staticmethod
    def _p0_window(monkeypatch):
        """(P0 word, ISETP cycle, ``@P0 EXIT`` cycle) of block 0's first
        warp on core 0, from the instructions it issues."""
        issued = []
        original = CoreBase._issue

        def recording_issue(core, warp, t_issue):
            if core.core_id == 0 and warp.block.linear_id == 0 \
                    and warp.lane_offset == 0:
                inst = core.launch.program.instructions[warp.pc]
                issued.append((t_issue, warp.hw_slot, inst.opcode, inst.guard))
            return original(core, warp, t_issue)

        monkeypatch.setattr(CoreBase, "_issue", recording_issue)
        run_workload(Gpu(MINI_NVIDIA), get_workload("vectoradd", "tiny"))
        monkeypatch.undo()
        (setp, slot, _, _), (exit_, _, opcode, guard) = [
            entry for entry in issued if entry[2] in ("ISETP", "EXIT")][:2]
        assert (opcode, guard.index, guard.negated) == ("EXIT", 0, False)
        assert setp < exit_
        return slot * NUM_SASS_PREDICATES, setp, exit_

    def test_flip_at_guarded_exit_issue_cycle_skips_one_store(
            self, monkeypatch):
        """The set bit exits the lane before its store: exactly its
        output word keeps the buffer's initial zero."""
        word, _, exit_ = self._p0_window(monkeypatch)
        plan = FaultPlan(PREDICATE_FILE, 0, word, BIT, exit_)
        golden = _run_tiny(MINI_NVIDIA, "vectoradd").outputs["c"]
        faulty = _run_tiny(MINI_NVIDIA, "vectoradd", plan).outputs["c"]
        assert classify_outputs({"c": golden}, {"c": faulty}) is Outcome.SDC
        assert np.flatnonzero(faulty != golden).tolist() == [BIT]
        assert golden[BIT] != 0 and faulty[BIT] == 0

    def test_flip_at_compare_issue_cycle_is_masked(self, monkeypatch):
        """The compare overwrites P0 in every active lane."""
        word, setp, _ = self._p0_window(monkeypatch)
        _assert_masked_at_golden_cycles(MINI_NVIDIA, "vectoradd", FaultPlan(
            PREDICATE_FILE, 0, word, BIT, setp))


class TestVectoraddVccFaults:
    """Hand-derived SI ``vectoradd`` faults on VCC of core 0's first
    wavefront: the SI twin of :class:`TestVectoraddPredicateFaults`.

    ``v_cmp_lt_i32 vcc, v1, s6`` writes VCC (gid < N) and
    ``s_and_saveexec_b64 s[8:9], vcc`` reads it into EXEC at its next
    issue. Lane ``BIT`` of block 0 is thread ``gid == BIT``, in bounds,
    so its golden VCC bit is set.
    """

    @staticmethod
    def _vcc_window(monkeypatch):
        """(VCC word, ``v_cmp`` cycle, ``s_and_saveexec`` cycle) of
        block 0's first wavefront on core 0, from the instructions it
        issues."""
        issued = []
        original = CoreBase._issue

        def recording_issue(core, wave, t_issue):
            if core.core_id == 0 and wave.block.linear_id == 0 \
                    and wave.lane_offset == 0:
                inst = core.launch.program.instructions[wave.pc]
                issued.append((t_issue, wave.hw_slot, inst.opcode))
            return original(core, wave, t_issue)

        monkeypatch.setattr(CoreBase, "_issue", recording_issue)
        run_workload(Gpu(MINI_AMD), get_workload("vectoradd", "tiny"))
        monkeypatch.undo()
        (compare, slot, first), (saveexec, _, second) = [
            entry for entry in issued
            if entry[2] in ("v_cmp_lt_i32", "s_and_saveexec_b64")]
        assert (first, second) == ("v_cmp_lt_i32", "s_and_saveexec_b64")
        assert compare < saveexec
        assert BIT < 32  # the flipped lane's bit is in the low VCC word
        return (slot * SI_PRED_WORDS_PER_WAVE + SI_PRED_VCC_LO,
                compare, saveexec)

    def test_flip_at_saveexec_issue_cycle_skips_one_store(
            self, monkeypatch):
        """The cleared bit drops the lane from EXEC before its store:
        exactly its output word keeps the buffer's initial zero."""
        word, _, saveexec = self._vcc_window(monkeypatch)
        plan = FaultPlan(PREDICATE_FILE, 0, word, BIT, saveexec)
        golden = _run_tiny(MINI_AMD, "vectoradd").outputs["c"]
        faulty = _run_tiny(MINI_AMD, "vectoradd", plan).outputs["c"]
        assert classify_outputs({"c": golden}, {"c": faulty}) is Outcome.SDC
        assert np.flatnonzero(faulty != golden).tolist() == [BIT]
        assert golden[BIT] != 0 and faulty[BIT] == 0

    def test_flip_at_compare_issue_cycle_is_masked(self, monkeypatch):
        """The compare overwrites the whole of VCC."""
        word, compare, _ = self._vcc_window(monkeypatch)
        _assert_masked_at_golden_cycles(MINI_AMD, "vectoradd", FaultPlan(
            PREDICATE_FILE, 0, word, BIT, compare))


#: Chips for the local-memory pair. Each holds two ``transpose`` blocks
#: on core 0 at once, so the second block's tile sits at a nonzero
#: local-memory base. MINI_AMD's register file holds one block's VGPRs;
#: twice that makes room for the second block.
TRANSPOSE_CHIPS = {
    "sass": MINI_NVIDIA,
    "si": replace(MINI_AMD, registers_per_core=2 * MINI_AMD.registers_per_core),
}


class TestTransposeLocalMemoryFaults:
    """Hand-derived ``transpose`` faults on one shared-tile word.

    The local-memory side of the fault-timing convention pinned for the
    register file by :class:`TestVectoraddRegisterFaults`. Each tile
    word is written once by the shared store and read once by the
    shared load, which passes the value to the output unchanged. The
    word lies in the tile of the second block resident on core 0, so
    a shared access that ignored the block's local-memory base would
    miss it.
    """

    @staticmethod
    def _tile_word(config):
        """(word, store cycle, load cycle) of core 0's highest tile word."""
        recorder = _recorded(config, "transpose")
        allocs = [lmem_bytes
                  for _, core, _, lmem_bytes, kind in recorder.block_events
                  if core == 0 and kind == "alloc"]
        accesses = [(cycle, words, is_write)
                    for cycle, core, words, is_write in recorder.lmem_events
                    if core == 0]
        word = max(w for _, words, _ in accesses for w in words)
        assert word >= allocs[0] // 4, "not in the second block's tile"
        events = [(cycle, is_write)
                  for cycle, words, is_write in accesses if word in words]
        assert [w for _, w in events] == [True, False]
        (store, _), (load, _) = events
        assert store < load
        return word, store, load

    @pytest.mark.parametrize("isa", ["sass", "si"])
    def test_fault_at_last_load_issue_cycle_corrupts(self, isa):
        config = TRANSPOSE_CHIPS[isa]
        word, _, load = self._tile_word(config)
        plan = FaultPlan(LOCAL_MEMORY, 0, word, BIT, load)
        assert _is_live(config, "transpose", plan)
        _assert_exact_sdc(config, "transpose", plan)

    @pytest.mark.parametrize("isa", ["sass", "si"])
    def test_fault_at_overwrite_issue_cycle_is_masked(self, isa):
        config = TRANSPOSE_CHIPS[isa]
        word, store, _ = self._tile_word(config)
        plan = FaultPlan(LOCAL_MEMORY, 0, word, BIT, store)
        assert not _is_live(config, "transpose", plan)
        _assert_masked_at_golden_cycles(config, "transpose", plan)


class TestPruningExactness:
    @pytest.mark.parametrize("gpu_alias,workload_name", [
        ("nvidia", "histogram"),
        ("amd", "reduction"),
    ])
    def test_pruned_faults_truly_masked(self, gpu_alias, workload_name):
        """Resimulating resolver-pruned (dead) faults never changes output."""
        from tests.conftest import MINI_AMD
        config = MINI_NVIDIA if gpu_alias == "nvidia" else MINI_AMD
        workload = get_workload(workload_name, "tiny")
        golden = run_golden(config, workload)
        rng = np.random.default_rng(123)
        plans = (
            sample_faults(config, REGISTER_FILE, golden.cycles, 40, rng)
            + sample_faults(config, LOCAL_MEMORY, golden.cycles, 40, rng)
        )
        resolver = FaultSiteResolver(config, plans)
        run_workload(Gpu(config, sink=resolver), workload)
        dead = [p for p in plans if not resolver.is_live(p)]
        assert dead, "expected some prunable faults"
        # Brute-force re-simulate a slice of the dead ones.
        for plan in dead[:15]:
            gpu = Gpu(config)
            gpu.set_faults([plan])
            result = run_workload(gpu, workload)
            assert classify_outputs(golden.outputs, result.outputs) is Outcome.MASKED

    def test_live_faults_include_all_failures(self):
        """Brute-force every sampled fault: failures only among live ones."""
        config = MINI_NVIDIA
        workload = get_workload("scan", "tiny")
        golden = run_golden(config, workload)
        rng = np.random.default_rng(7)
        plans = sample_faults(config, REGISTER_FILE, golden.cycles, 60, rng)
        resolver = FaultSiteResolver(config, plans)
        run_workload(Gpu(config, sink=resolver), workload)
        for plan in plans:
            gpu = Gpu(config)
            gpu.set_faults([plan])
            gpu.set_watchdog(golden.cycles * 4 + 20000)
            try:
                result = run_workload(gpu, workload)
                outcome = classify_outputs(golden.outputs, result.outputs)
            except SimFault:
                outcome = Outcome.DUE
            if outcome is not Outcome.MASKED:
                assert resolver.is_live(plan), (
                    f"failure at pruned site: {plan} -> {outcome}"
                )


def _cell(workload, samples, seed):
    return run_cell(CampaignSpec(gpus=[MINI_NVIDIA], workloads=[workload],
                                 scale="tiny", samples=samples, seed=seed))


class TestCampaignEngine:
    def test_campaign_counts_consistent(self):
        for estimate in _cell("matrixMul", 50, 3).fi.values():
            assert estimate.masked + estimate.sdc + estimate.due == estimate.samples
            assert estimate.pruned <= estimate.masked
            assert estimate.resimulated == estimate.samples - estimate.pruned
            assert 0.0 <= estimate.avf <= 1.0

    def test_campaign_deterministic_by_seed(self):
        a, b = _cell("vectoradd", 40, 11), _cell("vectoradd", 40, 11)
        for structure in a.fi:
            assert a.fi[structure].avf == b.fi[structure].avf
            assert a.fi[structure].sdc == b.fi[structure].sdc
