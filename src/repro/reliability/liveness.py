"""Online trace consumers: ACE lifetimes, fault-site liveness, occupancy.

All three are :class:`repro.sim.tracing.TraceSink` implementations that
accumulate online, in O(structure size) memory. ACE and occupancy ride
the fault-free ("golden") simulation itself. The resolver is fed by
replaying that run's recorded :class:`repro.sim.tracing.AccessTrace`
on every backend, so pruning needs no second simulation: the golden
job records the trace, and the plan job finds it by reference (inline)
or resident in its process (:mod:`repro.engine.jobs`).

* :class:`AceAccumulator` — Mukherjee-style ACE lifetime analysis. In
  the default CONSERVATIVE mode a register *row* (one architectural
  register x all warp lanes) counts as ACE for all 32 bits of all lanes
  from each write to its last read, ignoring lane masks — the classic
  conservative assumptions that make ACE overestimate the register
  file's AVF relative to fault injection (the paper's Fig. 1 finding).
  The LANE_MASKED mode refines per-lane (ablation). Local memory is
  analysed word-granular in both modes, which is why ACE tracks FI
  closely there (Fig. 2 finding).

* :class:`FaultSiteResolver` — exact dead-interval pruning for the
  fault-injection engine: a sampled (word, cycle) fault is *provably
  masked* iff no read of that word occurs at cycle' >= cycle before the
  next write (or end of execution). Faults resolved LIVE must be fully
  re-simulated; the pruning changes no outcome, only analysis time
  (GUFI does the same). The pruning is fault-model aware: for
  *persistent* models (stuck-at defects re-applied on every
  write-back) a write never kills the fault, so a site is only
  provably dead if the word is never read at or after the fault cycle.

* :class:`OccupancyAccumulator` — time-weighted fraction of each
  structure allocated to resident blocks (the red occupancy lines of
  Fig. 1/2).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.arch.config import GpuConfig
from repro.arch.structures import (
    LOCAL_MEMORY,
    REGISTER_FILE,
    control_words_per_warp,
    structure_info,
)
from repro.sim.faults import FaultPlan
from repro.sim.tracing import TraceSink


class AceMode(enum.Enum):
    CONSERVATIVE = "conservative"
    LANE_MASKED = "lane_masked"


def _lane_bools(mask: int, width: int) -> np.ndarray:
    return (mask >> np.arange(width, dtype=np.uint64)).astype(np.uint64) & 1 != 0


class AceAccumulator(TraceSink):
    """ACE (lifetime) analysis over one golden run."""

    def __init__(self, config: GpuConfig, mode: AceMode = AceMode.CONSERVATIVE):
        self.config = config
        self.mode = mode
        self.warp_size = config.warp_size
        # conservative: (core,row) -> [seg_start, last_read]
        self._rows: dict = {}
        # lane-masked: (core,row) -> (seg_start[warp], last_read[warp])
        self._lane_rows: dict = {}
        self._reg_row_cycles = 0       # conservative: row-cycles
        self._reg_word_cycles = 0      # lane-masked: word-cycles
        self._lmem_start: dict = {}    # core -> int64[num_words]
        self._lmem_last: dict = {}
        self._lmem_word_cycles = 0
        self.total_cycles: int | None = None

    # ------------------------------------------------------------------
    def on_reg_access(self, cycle, core, row, mask, is_write):
        if self.mode is AceMode.CONSERVATIVE:
            key = (core, row)
            state = self._rows.get(key)
            if is_write:
                if state is not None and state[1] >= 0:
                    self._reg_row_cycles += state[1] - state[0]
                self._rows[key] = [cycle, -1]
            else:
                if state is None:
                    self._rows[key] = [cycle, cycle]
                else:
                    state[1] = cycle
            return
        # LANE_MASKED
        key = (core, row)
        state = self._lane_rows.get(key)
        if state is None:
            state = (
                np.full(self.warp_size, -1, dtype=np.int64),
                np.full(self.warp_size, -1, dtype=np.int64),
            )
            self._lane_rows[key] = state
        start, last = state
        lanes = _lane_bools(mask, self.warp_size)
        if is_write:
            closing = lanes & (last >= 0)
            if closing.any():
                self._reg_word_cycles += int((last[closing] - start[closing]).sum())
            start[lanes] = cycle
            last[lanes] = -1
        else:
            fresh = lanes & (start < 0)
            start[fresh] = cycle
            last[lanes] = cycle

    def on_lmem_access(self, cycle, core, words, is_write):
        start = self._lmem_start.get(core)
        if start is None:
            num_words = self.config.local_memory_bytes // 4
            start = np.full(num_words, -1, dtype=np.int64)
            self._lmem_start[core] = start
            self._lmem_last[core] = np.full(num_words, -1, dtype=np.int64)
        last = self._lmem_last[core]
        unique = np.unique(words)
        if is_write:
            closing = last[unique] >= 0
            if closing.any():
                hit = unique[closing]
                self._lmem_word_cycles += int((last[hit] - start[hit]).sum())
            start[unique] = cycle
            last[unique] = -1
        else:
            fresh = start[unique] < 0
            start[unique[fresh]] = cycle
            last[unique] = cycle

    def on_run_end(self, cycle):
        self.total_cycles = cycle
        for state in self._rows.values():
            if state[1] >= 0:
                self._reg_row_cycles += state[1] - state[0]
                state[1] = -1
        for start, last in self._lane_rows.values():
            open_ = last >= 0
            if open_.any():
                self._reg_word_cycles += int((last[open_] - start[open_]).sum())
                last[open_] = -1
        for core, start in self._lmem_start.items():
            last = self._lmem_last[core]
            open_ = last >= 0
            if open_.any():
                self._lmem_word_cycles += int((last[open_] - start[open_]).sum())
                last[open_] = -1

    # ------------------------------------------------------------------
    def avf(self, structure: str) -> float:
        """AVF_ACE of a structure (call after the run has ended)."""
        if self.total_cycles is None:
            raise RuntimeError("run has not ended; no total cycle count")
        if self.total_cycles == 0:
            return 0.0
        denominator = self.total_cycles * self.config.structure_bits(structure)
        if structure == REGISTER_FILE:
            if self.mode is AceMode.CONSERVATIVE:
                bit_cycles = self._reg_row_cycles * self.warp_size * 32
            else:
                bit_cycles = self._reg_word_cycles * 32
        elif structure == LOCAL_MEMORY:
            bit_cycles = self._lmem_word_cycles * 32
        else:
            raise ValueError(f"unknown structure {structure!r}")
        return min(1.0, bit_cycles / denominator)


class FaultSiteResolver(TraceSink):
    """Classify sampled faults as provably-dead vs potentially-live.

    Datapath sites resolve on word reads/writes. Control-structure
    sites (SIMT stack, predicate file, scheduler state) resolve on
    *hardware warp-slot* occupancy: a slot's control storage can only
    influence execution while a warp occupies it, and slot allocation
    re-initialises (overwrites) it — so a site is provably dead iff its
    slot is never occupied at or after the fault cycle. That condition
    also covers persistent faults: a stuck-at defect in a slot no warp
    ever occupies again asserts itself against storage nothing reads.
    Sites in occupied slots stay LIVE conservatively (no per-field
    lifetime tracking) and are resolved by re-simulation.
    """

    LIVE = "live"
    DEAD = "dead"

    def __init__(self, config: GpuConfig, plans: list[FaultPlan],
                 fault_model=None):
        from repro.faultmodels.registry import get_fault_model
        self.config = config
        self.warp_size = config.warp_size
        # Persistent faults (stuck-at) survive write-backs: a write at
        # cycle' >= cycle no longer proves the site dead.
        self.persistent = get_fault_model(fault_model).persistent
        self._pending_reg: dict = {}   # (core,row) -> list[FaultPlan]
        self._pending_lmem: dict = {}  # (core,word) -> list[FaultPlan]
        self._pending_slot: dict = {}  # (core,slot) -> list[FaultPlan]
        self._lmem_index: dict = {}    # core -> sorted word array
        self.status: dict[FaultPlan, str] = {}
        for plan in plans:
            if plan.structure == REGISTER_FILE:
                key = (plan.core, plan.word // self.warp_size)
                self._pending_reg.setdefault(key, []).append(plan)
            elif structure_info(plan.structure).control:
                words = control_words_per_warp(config, plan.structure)
                key = (plan.core, plan.word // words)
                self._pending_slot.setdefault(key, []).append(plan)
            else:
                key = (plan.core, plan.word)
                self._pending_lmem.setdefault(key, []).append(plan)
        lmem_words: dict[int, list] = {}
        for core, word in self._pending_lmem:
            lmem_words.setdefault(core, []).append(word)
        self._lmem_index = {
            core: np.array(sorted(set(words)), dtype=np.int64)
            for core, words in lmem_words.items()
        }

    # ------------------------------------------------------------------
    def _resolve(self, pending: list, cycle: int, is_write: bool,
                 lane_test) -> None:
        for plan in pending[:]:
            if plan.cycle > cycle or not lane_test(plan):
                continue
            if is_write and self.persistent:
                # Stuck-at defects re-assert on write-back: the write
                # neither kills nor proves the fault — keep waiting for
                # a read (or end of run, which resolves it dead).
                continue
            self.status[plan] = self.DEAD if is_write else self.LIVE
            pending.remove(plan)

    def on_reg_access(self, cycle, core, row, mask, is_write):
        pending = self._pending_reg.get((core, row))
        if not pending:
            return
        self._resolve(
            pending, cycle, is_write,
            lambda plan: (mask >> (plan.word % self.warp_size)) & 1,
        )

    def on_lmem_access(self, cycle, core, words, is_write):
        index = self._lmem_index.get(core)
        if index is None or index.size == 0:
            return
        position = np.searchsorted(index, words)
        position[position >= index.size] = index.size - 1
        hits = np.unique(words[index[position] == words])
        for word in hits:
            pending = self._pending_lmem.get((core, int(word)))
            if pending:
                self._resolve(pending, cycle, is_write, lambda plan: True)

    def on_warp_slot_free(self, cycle, core, slot):
        """A slot freeing at ``cycle`` was occupied through the issue at
        ``cycle`` (faults apply before the retiring instruction
        executes), so every pending control site with fault cycle at or
        before it saw its slot occupied and must be re-simulated."""
        pending = self._pending_slot.get((core, slot))
        if not pending:
            return
        for plan in pending[:]:
            if plan.cycle <= cycle:
                self.status[plan] = self.LIVE
                pending.remove(plan)

    def on_run_end(self, cycle):
        for pending in self._pending_reg.values():
            for plan in pending:
                self.status.setdefault(plan, self.DEAD)
            pending.clear()
        for pending in self._pending_lmem.values():
            for plan in pending:
                self.status.setdefault(plan, self.DEAD)
            pending.clear()
        # Control sites still pending never saw their slot occupied at
        # or after the fault cycle (blocks all retire before run end),
        # so the disturbance provably lands in storage that is
        # re-initialised before any warp state depends on it.
        for pending in self._pending_slot.values():
            for plan in pending:
                self.status.setdefault(plan, self.DEAD)
            pending.clear()

    def is_live(self, plan: FaultPlan) -> bool:
        return self.status.get(plan, self.DEAD) == self.LIVE


class OccupancyAccumulator(TraceSink):
    """Time-weighted structure occupancy (the figures' red lines)."""

    def __init__(self, config: GpuConfig):
        self.config = config
        cores = config.num_cores
        self._last = np.zeros(cores, dtype=np.int64)
        self._cur_reg = np.zeros(cores, dtype=np.int64)    # words
        self._cur_lmem = np.zeros(cores, dtype=np.int64)   # bytes
        self._reg_integral = 0   # word-cycles
        self._lmem_integral = 0  # byte-cycles
        self.total_cycles: int | None = None

    def _advance(self, core: int, cycle: int) -> None:
        dt = cycle - self._last[core]
        if dt > 0:
            self._reg_integral += int(self._cur_reg[core]) * int(dt)
            self._lmem_integral += int(self._cur_lmem[core]) * int(dt)
            self._last[core] = cycle

    def on_block_alloc(self, cycle, core, reg_words, lmem_bytes):
        self._advance(core, cycle)
        self._cur_reg[core] += reg_words
        self._cur_lmem[core] += lmem_bytes

    def on_block_free(self, cycle, core, reg_words, lmem_bytes):
        self._advance(core, cycle)
        self._cur_reg[core] -= reg_words
        self._cur_lmem[core] -= lmem_bytes

    def on_run_end(self, cycle):
        self.total_cycles = cycle
        for core in range(self.config.num_cores):
            self._advance(core, cycle)

    def occupancy(self, structure: str) -> float:
        """Mean fraction of the whole-chip structure allocated over time."""
        if self.total_cycles is None:
            raise RuntimeError("run has not ended; no total cycle count")
        if self.total_cycles == 0:
            return 0.0
        if structure == REGISTER_FILE:
            used_bit_cycles = self._reg_integral * 32
        elif structure == LOCAL_MEMORY:
            used_bit_cycles = self._lmem_integral * 8
        else:
            raise ValueError(f"unknown structure {structure!r}")
        capacity = self.config.structure_bits(structure) * self.total_cycles
        return min(1.0, used_bit_cycles / capacity)
