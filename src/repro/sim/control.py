"""Control-structure storage banks: (word, bit)-addressable views over
live warp state.

The datapath structures (register file, local memory) are backed by
real arrays, so fault injection mutates storage directly. The control
structures — SIMT reconvergence stacks, predicate/status registers,
warp-scheduler bookkeeping — live distributed across the core's warp
objects instead. Each :class:`ControlBank` exposes one such structure
through the same storage protocol the fault models already speak
(``flip_bit`` / ``flip_bits`` / ``force_bit``), translating the
physical (word, bit) coordinate of a :class:`~repro.sim.faults.FaultPlan`
into a mutation of the warp currently occupying the target hardware
slot.

Geometry (see :mod:`repro.arch.structures`): each structure has
``control_words_per_warp`` words per hardware warp slot and
``max_warps_per_core`` slots per core; word ``w`` addresses slot
``w // words_per_warp``, field ``w % words_per_warp``.

Semantics that fall out of the hardware model:

* A disturbance landing in an *unoccupied* slot (or a SIMT-stack level
  deeper than the current stack) is a no-op: the slot's storage is
  re-initialised (written) when the next warp moves in, which is
  exactly the write-back that kills a transient fault — and the
  dead-site pruning (:class:`repro.reliability.liveness.FaultSiteResolver`)
  proves sites dead only when the slot is never occupied again.
* Permanent (stuck-at) overlays belong to the *slot's storage*, not to
  one warp: the core re-asserts them at every issue boundary, so they
  corrupt every warp that ever occupies the slot from the fault cycle
  onward — including warps allocated after the defect appeared.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.arch.structures import (
    PREDICATE_FILE,
    SCHED_BARRIER_HI,
    SCHED_BARRIER_LO,
    SCHED_FLAG_AT_BARRIER,
    SCHED_FLAGS,
    SCHED_READY_HI,
    SCHED_READY_LO,
    SCHEDULER_STATE,
    SI_PRED_EXEC_HI,
    SI_PRED_EXEC_LO,
    SI_PRED_SCC,
    SI_PRED_VCC_HI,
    SI_PRED_VCC_LO,
    SIMT_STACK,
    SIMT_STACK_ENTRY_WORDS,
    STACK_FIELD_MASK,
    STACK_FIELD_PC,
    STACK_FIELD_RECONV,
    control_words_per_warp,
    structure_exposed,
    words_per_core,
)
from repro.errors import ConfigError
from repro.sim.simt_stack import NO_RECONV

_M32 = 0xFFFFFFFF


class ControlBank:
    """One core's (word, bit)-addressable view of one control structure.

    Subclasses implement ``_read``/``_write`` for their field layout;
    ``_read`` returns None for storage with no current occupant (empty
    slot, stack level beyond the live depth), which makes every
    disturbance of it a no-op.
    """

    structure: str = ""

    def __init__(self, core):
        # The core holds its banks; a weak back-reference keeps the
        # machine acyclic, so reference counting frees a finished one.
        self.core = weakref.proxy(core)
        self.words_per_warp = control_words_per_warp(core.config, self.structure)
        self.num_words = words_per_core(core.config, self.structure)
        # word -> (and_mask, or_mask): permanent stuck-at overlays,
        # re-asserted by the core at every issue boundary.
        self._forced: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Storage protocol (mirrors RegisterFile / LocalMemory)
    # ------------------------------------------------------------------
    def flip_bit(self, word: int, bit: int) -> None:
        """Invert one stored bit (transient fault injection)."""
        self.flip_bits(word, 1 << bit)

    def flip_bits(self, word: int, mask: int) -> None:
        """Invert a mask of stored bits in one word (multi-bit upsets)."""
        self._check_word(word)
        value = self._read(word)
        if value is None:
            return
        self._write(word, (value ^ mask) & _M32)

    def force_bit(self, word: int, bit: int, value: int) -> None:
        """Permanently stick one bit at ``value`` (0/1).

        The overlay takes effect immediately and is re-asserted by the
        core before every subsequent instruction issue, so the bit
        reads as ``value`` for the rest of the run no matter how often
        the machine rewrites the field — a hardware defect of the
        slot's storage, not a one-shot upset.
        """
        self._check_word(word)
        and_mask, or_mask = self._forced.get(word, (_M32, 0))
        if value:
            or_mask |= 1 << bit
        else:
            and_mask &= ~(1 << bit) & _M32
        self._forced[word] = (and_mask, or_mask)
        self.core._control_dirty = True
        self.reassert()

    def reassert(self) -> None:
        """Re-impose the stuck-at overlays on the live state (idempotent)."""
        for word, (and_mask, or_mask) in self._forced.items():
            value = self._read(word)
            if value is None:
                continue
            forced = (value & and_mask) | or_mask
            if forced != value:
                self._write(word, forced)

    def _check_word(self, word: int) -> None:
        if not 0 <= word < self.num_words:
            raise ConfigError(
                f"{self.structure} word {word} out of range "
                f"0..{self.num_words - 1}"
            )

    # ------------------------------------------------------------------
    # Checkpoint protocol (see repro.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Plain-data overlay image (the live state lives on the warps)."""
        return {"forced": dict(self._forced)}

    def restore_state(self, state: dict) -> None:
        """Restore the stuck-at overlays from a snapshot image."""
        self._forced = {
            int(word): (int(and_mask), int(or_mask))
            for word, (and_mask, or_mask) in state["forced"].items()
        }

    @property
    def has_overlays(self) -> bool:
        return bool(self._forced)

    # ------------------------------------------------------------------
    def _warp(self, slot: int):
        """The warp occupying a hardware slot, or None."""
        for warp in self.core.warps:
            if warp.hw_slot == slot:
                return warp
        return None

    def _locate(self, word: int) -> tuple:
        return divmod(word, self.words_per_warp)

    def _read(self, word: int):
        raise NotImplementedError

    def _write(self, word: int, value: int) -> None:
        raise NotImplementedError


class SimtStackBank(ControlBank):
    """SASS reconvergence stacks: (pc, mask, reconv) per entry.

    ``NO_RECONV`` (-1) is stored as the all-ones word, so flips of a
    never-reconverges marker behave like flips of any other field.
    """

    structure = SIMT_STACK

    def _entry(self, word: int):
        slot, rest = self._locate(word)
        level, field = divmod(rest, SIMT_STACK_ENTRY_WORDS)
        warp = self._warp(slot)
        if warp is None or level >= len(warp.stack.entries):
            return None, field
        return warp.stack.entries[level], field

    def _read(self, word: int):
        entry, field = self._entry(word)
        if entry is None:
            return None
        if field == STACK_FIELD_PC:
            return entry.pc & _M32
        if field == STACK_FIELD_MASK:
            return entry.mask & _M32
        return entry.reconv & _M32

    def _write(self, word: int, value: int) -> None:
        entry, field = self._entry(word)
        if entry is None:
            return
        if field == STACK_FIELD_PC:
            entry.pc = value
        elif field == STACK_FIELD_MASK:
            entry.mask = value
        elif field == STACK_FIELD_RECONV:
            entry.reconv = NO_RECONV if value == _M32 else value


class SassPredicateBank(ControlBank):
    """SASS predicate file: P0..P6 per warp slot, one bit per lane."""

    structure = PREDICATE_FILE

    def _read(self, word: int):
        slot, pred = self._locate(word)
        warp = self._warp(slot)
        if warp is None:
            return None
        lanes = warp.preds[pred].astype(np.uint64)
        return int((lanes << np.arange(len(lanes), dtype=np.uint64)).sum())

    def _write(self, word: int, value: int) -> None:
        slot, pred = self._locate(word)
        warp = self._warp(slot)
        if warp is None:
            return
        width = warp.preds.shape[1]
        warp.preds[pred] = (
            (value >> np.arange(width, dtype=np.uint64)) & 1
        ) != 0


class SiPredicateBank(ControlBank):
    """SI status state: EXEC and VCC as lo/hi word pairs, SCC as bit 0.

    Bits 1..31 of the SCC word model unimplemented storage: they read
    as zero and writes to them are dropped.
    """

    structure = PREDICATE_FILE

    def _read(self, word: int):
        slot, field = self._locate(word)
        wave = self._warp(slot)
        if wave is None:
            return None
        if field == SI_PRED_EXEC_LO:
            return wave.exec_mask & _M32
        if field == SI_PRED_EXEC_HI:
            return (wave.exec_mask >> 32) & _M32
        if field == SI_PRED_VCC_LO:
            return wave.vcc & _M32
        if field == SI_PRED_VCC_HI:
            return (wave.vcc >> 32) & _M32
        if field == SI_PRED_SCC:
            return int(wave.scc)
        return None

    def _write(self, word: int, value: int) -> None:
        slot, field = self._locate(word)
        wave = self._warp(slot)
        if wave is None:
            return
        if field == SI_PRED_EXEC_LO:
            wave.exec_mask = (wave.exec_mask & ~_M32) | value
        elif field == SI_PRED_EXEC_HI:
            wave.exec_mask = (wave.exec_mask & _M32) | (value << 32)
        elif field == SI_PRED_VCC_LO:
            wave.vcc = (wave.vcc & ~_M32) | value
        elif field == SI_PRED_VCC_HI:
            wave.vcc = (wave.vcc & _M32) | (value << 32)
        elif field == SI_PRED_SCC:
            wave.scc = bool(value & 1)


class SchedulerStateBank(ControlBank):
    """Warp-scheduler bookkeeping: ready/barrier counters + flags.

    The 64-bit ready-cycle and barrier-arrival counters are exposed as
    lo/hi word pairs; the flags word models the at-barrier latch in
    bit 0 (the other bits read as zero, writes to them are dropped).
    Corrupting these is how control faults starve warps (watchdog DUE),
    deadlock barriers (BarrierDeadlock DUE) or release them early.
    """

    structure = SCHEDULER_STATE

    def _read(self, word: int):
        slot, field = self._locate(word)
        warp = self._warp(slot)
        if warp is None:
            return None
        if field == SCHED_READY_LO:
            return warp.ready_cycle & _M32
        if field == SCHED_READY_HI:
            return (warp.ready_cycle >> 32) & _M32
        if field == SCHED_BARRIER_LO:
            return warp.barrier_arrival & _M32
        if field == SCHED_BARRIER_HI:
            return (warp.barrier_arrival >> 32) & _M32
        if field == SCHED_FLAGS:
            return SCHED_FLAG_AT_BARRIER if warp.at_barrier else 0
        return None

    def _write(self, word: int, value: int) -> None:
        slot, field = self._locate(word)
        warp = self._warp(slot)
        if warp is None:
            return
        if field == SCHED_READY_LO:
            warp.ready_cycle = (warp.ready_cycle & ~_M32) | value
        elif field == SCHED_READY_HI:
            warp.ready_cycle = (warp.ready_cycle & _M32) | (value << 32)
        elif field == SCHED_BARRIER_LO:
            warp.barrier_arrival = (warp.barrier_arrival & ~_M32) | value
        elif field == SCHED_BARRIER_HI:
            warp.barrier_arrival = (warp.barrier_arrival & _M32) | (value << 32)
        elif field == SCHED_FLAGS:
            warp.at_barrier = bool(value & SCHED_FLAG_AT_BARRIER)


def make_control_banks(core) -> dict:
    """The control banks one core exposes, keyed by structure name."""
    banks: dict[str, ControlBank] = {}
    config = core.config
    if structure_exposed(config, SIMT_STACK):
        banks[SIMT_STACK] = SimtStackBank(core)
    if structure_exposed(config, PREDICATE_FILE):
        banks[PREDICATE_FILE] = (
            SassPredicateBank(core) if config.isa == "sass"
            else SiPredicateBank(core)
        )
    if structure_exposed(config, SCHEDULER_STATE):
        banks[SCHEDULER_STATE] = SchedulerStateBank(core)
    return banks
