"""Core (SM / CU) execution engine.

One :class:`CoreBase` instance models one streaming multiprocessor or
compute unit: it owns the core's register file and local memory (the
fault-injection targets), the resident blocks and warps, the issue port
and warp scheduler, and the core-local clock.

The timing model is event-driven at warp-instruction granularity, the
same altitude as GPGPU-Sim's "performance simulation" of these
structures: each issued instruction occupies the issue port for
``issue_cycles / num_schedulers`` cycles and makes its warp ready again
after the instruction-class latency (dependent back-to-back issue —
latency is hidden by multithreading across warps, not by intra-warp
ILP). Memory instructions add a coalescing penalty proportional to the
distinct 128-byte segments touched.

The issue loop does per issue only the work that can change per issue.
Each core keeps its *runnable* warps — live and not held at a barrier,
in warp-id order — and rebuilds that list only after an event that can
change it: block residency or retirement, a restore, a warp exiting, a
barrier arrival or release, and any control-structure fault or stuck-at
re-assertion. Per issue the loop then reads only ready cycles, in one
scan that finds the earliest issue time and its ties (on Python 3.11 a
plain loop over a handful of warps beats ``min`` plus a comprehension,
which each pay a call). The fault plans are consulted only once the
clock reaches the next planned cycle, so a fault-free run never looks
at them. Numpy's floating-point error state is set once per core step,
and the SASS reconvergence table is computed once per program object.

:class:`CoreBase` is the front-end skeleton both ISAs share: fetch
(pc-bounds check, a decode cache of ``(inst, info, latency, handler)``
per pc, the profiler hook), the per-instruction context the semantics
handlers read, label resolution, memory access, and warp creation and
restore. Each ISA subclass keeps only what differs: operand grammar,
lane masking and the control effect of an instruction —
:class:`repro.sim.sass_core.SassCore` (NVIDIA: predicate guards, SIMT
stack) and :class:`repro.sim.si_core.SiCore` (AMD: EXEC mask, scalar
state, launch ABI).
"""

from __future__ import annotations

import math

import numpy as np

from repro.arch.config import GpuConfig
from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.errors import (BarrierDeadlock, IllegalInstruction, LaunchError,
                          WatchdogTimeout)
from repro.faultmodels.registry import get_fault_model
from repro.sim.control import make_control_banks
from repro.sim.faults import FaultPlan
from repro.sim.launch import LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.sim.occupancy import BlockFootprint
from repro.sim.regfile import RegisterFile
from repro.sim.scheduler import WarpScheduler
from repro.sim.sharedmem import LocalMemory
from repro.sim.tracing import TraceSink
from repro.sim.warp import BlockState, WarpBase
from repro.telemetry import profile as _profile

#: Default per-run cycle budget for fault-free simulations.
DEFAULT_WATCHDOG = 50_000_000


class CoreBase:
    """One SM/CU: storage, resident blocks, issue loop."""

    #: Set per subclass: the ISA's opcode table (mnemonic -> OpInfo),
    #: semantics handlers (mnemonic -> handler) and warp class.
    OPCODES: dict = {}
    HANDLERS: dict = {}
    WARP_CLASS: type = WarpBase

    def __init__(self, core_id: int, config: GpuConfig, gmem: GlobalMemory,
                 scheduler: WarpScheduler, sink: TraceSink | None = None):
        self.core_id = core_id
        self.config = config
        self.warp_size = config.warp_size
        self.gmem = gmem
        self.scheduler = scheduler
        self.sink = sink
        self.regfile = RegisterFile(
            core_id, config.registers_per_core, config.warp_size, sink
        )
        self.lmem = LocalMemory(core_id, config.local_memory_bytes, sink)
        # Control-structure banks (SIMT stack, predicate file, scheduler
        # state): (word, bit)-addressable fault targets over the live
        # warp state. ``_control_dirty`` flags installed stuck-at
        # overlays so the per-issue re-assert costs nothing without them.
        self.control = make_control_banks(self)
        self._control_dirty = False
        self._free_warp_slots = list(range(config.max_warps_per_core))
        self.time = 0
        self.issue_free = 0
        self.issue_interval = max(
            1, config.latency.issue_cycles // config.num_schedulers
        )
        self.last_issued = -1
        self.resume_at: int | None = None
        self.watchdog_limit = DEFAULT_WATCHDOG
        # Fault plans targeting this core, sorted by cycle; applied
        # lazily through the installed fault model.
        self._faults: list[FaultPlan] = []
        self._fault_pos = 0
        #: Cycle of the next unapplied plan (inf when none is left).
        self._next_fault_cycle = math.inf
        self._fault_model = None
        # Per-launch state
        self.program = None
        self.launch: LaunchConfig | None = None
        self.footprint: BlockFootprint | None = None
        self.blocks: list[BlockState] = []
        self.warps: list = []
        #: The issue candidates: live warps not held at a barrier, in
        #: ``self.warps`` (warp-id) order. None whenever that set may
        #: have changed; the issue loop rebuilds it from ``self.warps``.
        self._runnable: list | None = None
        self._free_reg_slots: list[int] = []
        self._free_lmem_slots: list[int] = []
        self.blocks_retired = 0
        self.instructions_issued = 0
        self._warp_counter = 0
        #: Per-pc (inst, opcode-info, latency, handler) decode cache,
        #: built once per launch instead of per issue.
        self._decoded: list = []
        # Per-instruction context (the semantics handlers' ``ctx`` is
        # the core itself); the subclass's ``_execute`` sets the masks.
        self._warp = None
        self.eff_bool: np.ndarray | None = None
        self.eff_mask: int = 0
        self._cycle: int = 0
        table = config.latency
        self._latency_table = {
            "alu": table.alu,
            "mul": table.mul,
            "sfu": table.sfu,
            "shared": table.shared,
            "global": table.global_mem,
            "branch": table.branch,
            "barrier": table.barrier,
        }

    def next_warp_id(self) -> int:
        """Core-unique, monotonically increasing warp slot id."""
        wid = self._warp_counter
        self._warp_counter += 1
        return wid

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------
    def set_faults(self, plans: list[FaultPlan], fault_model=None) -> None:
        """Install this core's fault plans (any order; sorted here).

        ``fault_model`` — a :class:`repro.faultmodels.FaultModel` or
        registry name — decides how each plan disturbs the storage when
        its cycle is reached (default: transient single-bit flip).
        """
        self._faults = sorted(
            (p for p in plans if p.core == self.core_id), key=lambda p: p.cycle
        )
        self._fault_pos = 0
        self._fault_model = get_fault_model(fault_model)
        self._note_next_fault()

    def _note_next_fault(self) -> None:
        self._next_fault_cycle = (
            self._faults[self._fault_pos].cycle
            if self._fault_pos < len(self._faults) else math.inf)

    def _apply_faults_up_to(self, cycle: int) -> None:
        while (self._fault_pos < len(self._faults)
               and self._faults[self._fault_pos].cycle <= cycle):
            plan = self._faults[self._fault_pos]
            if plan.structure == REGISTER_FILE:
                self._fault_model.apply(self.regfile, plan)
            elif plan.structure == LOCAL_MEMORY:
                self._fault_model.apply(self.lmem, plan)
            else:
                bank = self.control.get(plan.structure)
                if bank is not None:
                    self._fault_model.apply(bank, plan)
                    # A control fault can finish, revive, park or
                    # release a warp (e.g. the at-barrier latch).
                    self._runnable = None
            self._fault_pos += 1
        self._note_next_fault()

    def _reassert_control(self) -> None:
        """Re-impose control-structure stuck-at overlays (issue boundary)."""
        for bank in self.control.values():
            if bank.has_overlays:
                bank.reassert()
        self._runnable = None

    @property
    def pending_faults(self) -> bool:
        """True while installed fault plans have not all been applied."""
        return self._fault_pos < len(self._faults)

    # ------------------------------------------------------------------
    # Checkpoint protocol (see repro.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self, active: bool = True, copy: bool = True) -> dict:
        """Plain-data image of everything the core's future depends on.

        Launch-derived structure (program, launch config, footprint) is
        deliberately absent: it is rebuilt deterministically from the
        workload on restore. Fault bookkeeping is absent too — snapshots
        are taken on fault-free golden runs and faults are re-installed
        via :meth:`set_faults` after a restore.

        ``active`` — False for between-launch captures. The image also
        carries ``live_reg``/``live_lmem`` hints: the word ranges owned
        by resident blocks. Storage outside them is *dead* — cleared at
        the next allocation before any access — so the convergence
        digest (:mod:`repro.checkpoint.digest`) canonicalises it to
        zero; a faulty run whose corruption is orphaned in a retired
        block's rows then still converges to golden. Restores use the
        raw data, so the hints never affect simulation.
        """
        live_reg: list = []
        live_lmem: list = []
        if active and self.footprint is not None:
            words_per_block = (
                self.footprint.reg_words_per_warp
                // self.config.warp_size
            ) * self.footprint.warps * self.config.warp_size
            lmem_words = self.footprint.lmem_bytes // 4
            for block in self.blocks:
                live_reg.append(
                    (block.reg_base_row * self.config.warp_size,
                     words_per_block))
                if lmem_words:
                    live_lmem.append((block.lmem_base // 4, lmem_words))
        return {
            "live_reg": live_reg,
            "live_lmem": live_lmem,
            "time": int(self.time),
            "issue_free": int(self.issue_free),
            "last_issued": int(self.last_issued),
            "blocks_retired": int(self.blocks_retired),
            "instructions_issued": int(self.instructions_issued),
            "warp_counter": int(self._warp_counter),
            "free_reg_slots": list(self._free_reg_slots),
            "free_lmem_slots": list(self._free_lmem_slots),
            "free_warp_slots": list(self._free_warp_slots),
            "regfile": self.regfile.snapshot_state(copy=copy),
            "lmem": self.lmem.snapshot_state(copy=copy),
            "control": {
                name: bank.snapshot_state()
                for name, bank in self.control.items()
            },
            "blocks": [
                {
                    "linear_id": block.linear_id,
                    "index": tuple(block.index),
                    "reg_base_row": block.reg_base_row,
                    "lmem_base": block.lmem_base,
                    "unfinished": block.unfinished,
                    "warps": [warp.snapshot_state() for warp in block.warps],
                }
                for block in self.blocks
            ],
        }

    def restore_state(self, state: dict, program=None,
                      launch: LaunchConfig | None = None,
                      footprint: BlockFootprint | None = None) -> None:
        """Overwrite this core with a snapshot.

        ``program``/``launch``/``footprint`` describe the launch that
        was active at capture time (all None between launches). Faults
        are cleared; install them with :meth:`set_faults` afterwards.
        """
        self.program = program
        self.launch = launch
        self.footprint = footprint
        if program is not None:
            self._prepare_program(program)
        self.time = state["time"]
        self.issue_free = state["issue_free"]
        self.last_issued = state["last_issued"]
        self.blocks_retired = state["blocks_retired"]
        self.instructions_issued = state["instructions_issued"]
        self._warp_counter = state["warp_counter"]
        self._free_reg_slots = list(state["free_reg_slots"])
        self._free_lmem_slots = list(state["free_lmem_slots"])
        self._free_warp_slots = list(state["free_warp_slots"])
        self.regfile.restore_state(state["regfile"])
        self.lmem.restore_state(state["lmem"])
        for name, bank in self.control.items():
            bank.restore_state(state["control"][name])
        self._control_dirty = any(
            bank.has_overlays for bank in self.control.values()
        )
        self.blocks = []
        self.warps = []
        for bstate in state["blocks"]:
            block = BlockState(bstate["linear_id"], tuple(bstate["index"]),
                               bstate["reg_base_row"], bstate["lmem_base"],
                               footprint)
            block.unfinished = bstate["unfinished"]
            for wstate in bstate["warps"]:
                block.warps.append(self.WARP_CLASS.from_state(
                    wstate, block, self.config.warp_size))
            self.blocks.append(block)
            self.warps.extend(block.warps)
        self._runnable = None
        self._faults = []
        self._fault_pos = 0
        self._next_fault_cycle = math.inf
        self._fault_model = None

    # ------------------------------------------------------------------
    # Launch setup / block residency
    # ------------------------------------------------------------------
    def configure_launch(self, program, launch: LaunchConfig,
                         footprint: BlockFootprint, resident_cap: int,
                         start_time: int) -> None:
        """Prepare the core for a new kernel launch at ``start_time``."""
        self.program = program
        self.launch = launch
        self.footprint = footprint
        self.blocks = []
        self.warps = []
        self._runnable = None
        self.time = start_time
        self.issue_free = start_time
        self.last_issued = -1
        # All warp contexts are free between launches (every block of
        # the previous launch has retired by the time the next starts).
        self._free_warp_slots = list(range(self.config.max_warps_per_core))
        rows_per_block = (
            footprint.reg_words_per_warp // self.config.warp_size
        ) * footprint.warps
        max_rows = self.regfile.num_rows
        self._free_reg_slots = [
            slot * rows_per_block
            for slot in range(resident_cap)
            if (slot + 1) * rows_per_block <= max_rows
        ]
        lmem_bytes = footprint.lmem_bytes
        if lmem_bytes:
            self._free_lmem_slots = [
                slot * lmem_bytes
                for slot in range(resident_cap)
                if (slot + 1) * lmem_bytes <= self.config.local_memory_bytes
            ]
        else:
            self._free_lmem_slots = [0] * resident_cap
        self._prepare_program(program)

    def _prepare_program(self, program) -> None:
        """Per-launch preparation: the decode cache (subclasses extend
        it, e.g. with CFG analysis)."""
        self._decoded = []
        for pc in range(len(program)):
            inst = program.at(pc)
            info = self.OPCODES[inst.opcode]
            self._decoded.append(
                (inst, info, self.latency_of(info.latency_class),
                 self.HANDLERS[inst.opcode]))

    @property
    def can_accept_block(self) -> bool:
        return bool(self._free_reg_slots) and bool(self._free_lmem_slots)

    @property
    def has_work(self) -> bool:
        return bool(self.blocks)

    def add_block(self, linear_id: int, index: tuple) -> BlockState:
        """Make one block resident (allocates registers + local memory)."""
        if not self.can_accept_block:
            raise LaunchError(f"core {self.core_id} has no free block slot")
        footprint = self.footprint
        reg_base_row = self._free_reg_slots.pop(0)
        lmem_base = self._free_lmem_slots.pop(0)
        rows_per_block = (
            footprint.reg_words_per_warp // self.config.warp_size
        ) * footprint.warps
        self.regfile.clear_rows(reg_base_row, rows_per_block)
        if footprint.lmem_bytes:
            self.lmem.clear_range(lmem_base, footprint.lmem_bytes)
        block = BlockState(linear_id, index, reg_base_row, lmem_base, footprint)
        self._populate_warps(block)
        if len(self._free_warp_slots) < len(block.warps):
            raise LaunchError(
                f"core {self.core_id} has no free warp context slots"
            )
        self.blocks.append(block)
        self._runnable = None
        for warp in block.warps:
            # Hardware warp-context slot: backs the warp's control state
            # (SIMT stack, predicates, scheduler bookkeeping) in the
            # control-structure fault geometry. Allocation initialises
            # the slot's storage, so earlier transient disturbances of
            # an empty slot are dead by construction.
            warp.hw_slot = self._free_warp_slots.pop(0)
            warp.ready_cycle = self.time
            self.warps.append(warp)
            if self.sink is not None:
                self.sink.on_warp_slot_alloc(self.time, self.core_id,
                                             warp.hw_slot)
        if self.sink is not None:
            self.sink.on_block_alloc(
                self.time, self.core_id, footprint.reg_words, footprint.lmem_bytes
            )
        return block

    def _populate_warps(self, block: BlockState) -> None:
        threads = self.launch.threads_per_block
        warp_size = self.config.warp_size
        rows_per_warp = self.footprint.reg_words_per_warp // warp_size
        num_warps = math.ceil(threads / warp_size)
        for slot in range(num_warps):
            lane_offset = slot * warp_size
            block.warps.append(self._new_warp(
                wid=self.next_warp_id(), block=block, lane_offset=lane_offset,
                nlanes=min(warp_size, threads - lane_offset),
                warp_size=warp_size,
                reg_base_row=block.reg_base_row + slot * rows_per_warp))
        block.unfinished = num_warps

    def _new_warp(self, **fields):
        """One new warp of this core's ISA (SI extends it)."""
        return self.WARP_CLASS(**fields)

    def _retire_block(self, block: BlockState) -> None:
        self.blocks.remove(block)
        self.warps = [warp for warp in self.warps if warp.block is not block]
        self._runnable = None
        self._free_reg_slots.append(block.reg_base_row)
        self._free_lmem_slots.append(block.lmem_base)
        for warp in block.warps:
            self._free_warp_slots.append(warp.hw_slot)
            if self.sink is not None:
                self.sink.on_warp_slot_free(self.time, self.core_id,
                                            warp.hw_slot)
        self.blocks_retired += 1
        if self.sink is not None:
            self.sink.on_block_free(
                self.time, self.core_id,
                block.footprint.reg_words, block.footprint.lmem_bytes,
            )

    # ------------------------------------------------------------------
    # Issue loop
    # ------------------------------------------------------------------
    def run_until_retire(self, quantum: int | None = None) -> bool:
        """Issue instructions until a block retires, the core drains, or
        a slice boundary is reached.

        Returns True if a block retired (the caller may backfill),
        False otherwise. ``quantum`` (cycles) makes the core yield
        control at the next multiple-of-quantum clock boundary instead
        of running a whole block to retirement: ``self.resume_at`` then
        holds the pending issue time for the dispatcher's heap. The
        boundaries form a fixed global grid, so the cross-core event
        interleaving stays deterministic — and the dispatcher regains
        control often enough for the checkpoint subsystem's capture
        points to land close to their interval thresholds.

        Each issue goes to the earliest-ready runnable warp (see the
        module docstring); ties go to the scheduler policy in warp-id
        order.
        """
        retired_before = self.blocks_retired
        self.resume_at = None
        limit = None
        # Corrupted values under fault injection legitimately overflow
        # float arithmetic; hardware does not warn, neither do we.
        with np.errstate(all="ignore"):
            while self.blocks:
                runnable = self._runnable
                if runnable is None:
                    runnable = self._runnable = [
                        warp for warp in self.warps
                        if not (warp.done or warp.at_barrier)
                    ]
                # One fused scan: the earliest issue time over the
                # runnable warps, and its ties in warp order.
                t_best = None
                ties = None
                issue_free = self.issue_free
                for warp in runnable:
                    t = warp.ready_cycle
                    if t < issue_free:
                        t = issue_free
                    if t_best is None or t < t_best:
                        t_best = t
                        ties = [warp]
                    elif t == t_best:
                        ties.append(warp)
                if t_best is None:
                    # Every live warp is at a barrier that never
                    # completed: arrival-time release should have
                    # fired, so this is a genuine deadlock (possible
                    # under injected faults).
                    raise BarrierDeadlock(
                        f"core {self.core_id}: all warps blocked at barrier"
                    )
                if quantum is not None:
                    if limit is None:
                        # First issue of this step pins the slice
                        # boundary; it always proceeds, so every step
                        # makes progress.
                        limit = (t_best // quantum + 1) * quantum
                    elif t_best >= limit:
                        self.resume_at = t_best
                        return False
                warp = ties[0] if len(ties) == 1 else self.scheduler.pick(
                    ties, self.last_issued)
                self._issue(warp, t_best)
                if self.blocks_retired != retired_before:
                    return True
        return False

    def _issue(self, warp, t_issue: int) -> None:
        """Execute one warp-instruction at ``t_issue``."""
        if t_issue > self.watchdog_limit:
            raise WatchdogTimeout(t_issue, self.watchdog_limit)
        if t_issue >= self._next_fault_cycle:
            self._apply_faults_up_to(t_issue)
        if self._control_dirty:
            self._reassert_control()
        self.time = self._cycle = warp.last_issue = t_issue
        self.issue_free = t_issue + self.issue_interval
        self.last_issued = warp.wid
        self.instructions_issued += 1
        self._warp = warp
        pc = warp.pc
        decoded = self._decoded
        if not 0 <= pc < len(decoded):
            # Only reachable under fault injection (e.g. a flipped
            # SIMT-stack or wavefront pc); hardware raises an
            # illegal-address exception here, which the campaign
            # classifies as DUE.
            raise IllegalInstruction(
                f"pc {pc} outside program 0..{len(decoded) - 1}"
            )
        inst, info, latency, handler = decoded[pc]
        # Hot-path profiling hook: one global read + branch when off.
        prof = _profile.ACTIVE
        if prof is not None:
            prof.dispatch(self.config.isa, info.latency_class,
                          bool(info.memory_space))
        latency += self._execute(warp, pc, inst, info, handler, t_issue)
        warp.ready_cycle = t_issue + (latency if latency > 1 else 1)
        if warp.done:
            self._note_warp_done(warp)

    def _execute(self, warp, pc: int, inst, info, handler,
                 t_issue: int) -> int:
        """ISA-specific: set the lane masks, run ``handler`` and apply
        its effect; return the extra cycles beyond the decoded
        latency."""
        raise NotImplementedError

    def _note_warp_done(self, warp) -> None:
        self._runnable = None
        block = warp.block
        block.unfinished -= 1
        # A warp exiting can complete a pending barrier.
        self._maybe_release_barrier(block)
        if block.unfinished == 0:
            self._retire_block(block)

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def _arrive_barrier(self, warp, t_issue: int) -> None:
        self._runnable = None
        warp.at_barrier = True
        warp.barrier_arrival = t_issue
        self._maybe_release_barrier(warp.block)

    def _maybe_release_barrier(self, block: BlockState) -> None:
        if not block.barrier_complete():
            return
        release = max(
            warp.barrier_arrival for warp in block.warps if not warp.done
        ) + self.config.latency.barrier
        for warp in block.warps:
            if not warp.done:
                warp.at_barrier = False
                warp.ready_cycle = max(warp.ready_cycle, release)

    # ------------------------------------------------------------------
    # Warp-context protocol shared by both ISAs' semantics handlers.
    # Global addresses are byte addresses; values are u32 words.
    # ------------------------------------------------------------------
    def resolve_label(self, ref) -> int:
        return self.program.resolve_label(ref)

    def global_load(self, addresses: np.ndarray):
        sel = self.eff_bool
        out = np.zeros(self.warp_size, dtype=np.uint32)
        selected = addresses[sel]
        out[sel] = self.gmem.load_words(selected)
        return out, self._coalescing_extra(selected)

    def global_store(self, addresses: np.ndarray, values: np.ndarray) -> int:
        sel = self.eff_bool
        selected = addresses[sel]
        self.gmem.store_words(selected, values[sel])
        return self._coalescing_extra(selected)

    def global_atomic_add(self, addresses: np.ndarray, values: np.ndarray):
        sel = self.eff_bool
        out = np.zeros(self.warp_size, dtype=np.uint32)
        selected = addresses[sel]
        out[sel] = self.gmem.atomic_add(selected, values[sel])
        return out, self._coalescing_extra(selected)

    def _shared_addrs(self, addresses: np.ndarray) -> np.ndarray:
        """Block-relative shared (LDS) byte addresses -> core-local."""
        return addresses + self._warp.block.lmem_base

    def shared_load(self, addresses: np.ndarray) -> np.ndarray:
        sel = self.eff_bool
        out = np.zeros(self.warp_size, dtype=np.uint32)
        out[sel] = self.lmem.load(self._shared_addrs(addresses)[sel], self._cycle)
        return out

    def shared_store(self, addresses: np.ndarray, values: np.ndarray) -> None:
        sel = self.eff_bool
        self.lmem.store(
            self._shared_addrs(addresses)[sel], values[sel], self._cycle
        )

    def shared_atomic_add(self, addresses: np.ndarray, values: np.ndarray):
        sel = self.eff_bool
        out = np.zeros(self.warp_size, dtype=np.uint32)
        out[sel] = self.lmem.atomic_add(
            self._shared_addrs(addresses)[sel], values[sel], self._cycle
        )
        return out

    # ------------------------------------------------------------------
    # Memory timing helper
    # ------------------------------------------------------------------
    def _coalescing_extra(self, addresses) -> int:
        segments = self.gmem.segments_touched(addresses)
        if segments <= 1:
            return 0
        return (segments - 1) * self.config.latency.uncoalesced_penalty

    def latency_of(self, latency_class: str) -> int:
        return self._latency_table[latency_class]
