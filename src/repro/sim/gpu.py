"""Whole-chip GPU model: block dispatcher over per-core engines.

Blocks are dispatched exactly as on hardware: an initial wave fills
every core up to the kernel's occupancy limit, then each retiring block
backfills the core that freed the slot (cores run independent clocks —
legitimate because inter-core communication within a launch is limited
to commutative global atomics in our benchmark suite). Consecutive
launches serialise: every launch starts at the chip cycle where the
previous one ended, so fault cycles are continuous across multi-kernel
workloads (e.g. gaussian's Fan1/Fan2 iterations).

The dispatcher's event loop is explicit state (:class:`_ActiveLaunch`
on the chip), advanced one core-step at a time, with an optional
*monitor* observing the machine between steps. That is the hook the
checkpoint subsystem (:mod:`repro.checkpoint`) uses both to capture
periodic full-machine snapshots during golden runs and to resume a
restored machine mid-launch; monitors only observe, so a monitored run
is event-for-event identical to a bare one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.arch.config import GpuConfig
from repro.errors import ConfigError, LaunchError
from repro.sim.core import DEFAULT_WATCHDOG
from repro.sim.faults import FaultPlan
from repro.sim.launch import LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.sim.occupancy import block_footprint, max_resident_blocks
from repro.sim.scheduler import make_scheduler
from repro.sim.tracing import TraceSink

#: Core time-slice grid (cycles). Every run slices at the same fixed
#: boundaries, so the cross-core event interleaving — and therefore
#: every simulation result — is one deterministic function of the
#: machine state, independent of monitors, snapshots or faults. The
#: grid bounds how far one core runs ahead between dispatcher steps,
#: which is what lets checkpoint capture points land near their
#: interval thresholds even when a whole launch fits in one block.
SLICE_CYCLES = 256


@dataclass
class _ActiveLaunch:
    """Dispatcher state of the launch currently draining."""

    launch: LaunchConfig
    start: int                       # chip cycle the launch began at
    pending: list = field(default_factory=list)  # (linear, index), pop() order
    heap: list = field(default_factory=list)     # (core time, core id)


class Gpu:
    """One simulated GPU chip."""

    def __init__(self, config: GpuConfig, scheduler: str = "rr",
                 sink: TraceSink | None = None,
                 memory_capacity: int = 1 << 24):
        self.config = config
        self.sink = sink
        self.mem = GlobalMemory(memory_capacity)
        self.scheduler_name = scheduler
        core_class = self._core_class(config)
        self.cores = [
            core_class(core_id, config, self.mem, make_scheduler(scheduler), sink)
            for core_id in range(config.num_cores)
        ]
        self.chip_cycle = 0
        self.launches_run = 0
        self._active: _ActiveLaunch | None = None

    @staticmethod
    def _core_class(config: GpuConfig):
        # Imported here to avoid a circular import at module load.
        if config.isa == "sass":
            from repro.sim.sass_core import SassCore
            return SassCore
        if config.isa == "si":
            from repro.sim.si_core import SiCore
            return SiCore
        raise ConfigError(f"no core model for ISA {config.isa!r}")

    def set_faults(self, plans: list[FaultPlan], fault_model=None) -> None:
        """Install fault plans (each routed to its target core).

        ``fault_model`` — a :class:`repro.faultmodels.FaultModel` or
        registry name — selects the application/liveness semantics
        (default: the paper's transient single-bit flip).
        """
        for core in self.cores:
            core.set_faults(plans, fault_model=fault_model)

    def set_watchdog(self, limit_cycles: int) -> None:
        """Abort any core whose clock passes ``limit_cycles`` (DUE)."""
        for core in self.cores:
            core.watchdog_limit = limit_cycles

    def launch(self, launch: LaunchConfig, monitor=None) -> int:
        """Run one kernel launch to completion; returns its cycle count.

        ``monitor`` (optional) is notified after every core-step via
        ``monitor.after_step(gpu)``; monitors only observe, so the run
        is identical with or without one.
        """
        self._begin_launch(launch)
        return self._drain_active(monitor)

    def resume_launch(self, monitor=None) -> int:
        """Finish a restored mid-launch dispatch (see repro.checkpoint)."""
        if self._active is None:
            raise LaunchError("no active launch to resume")
        return self._drain_active(monitor)

    @property
    def mid_launch(self) -> bool:
        """True when a (restored) launch is still draining."""
        return self._active is not None

    def _begin_launch(self, launch: LaunchConfig) -> None:
        program = launch.program
        if program.isa != self.config.isa:
            raise LaunchError(
                f"kernel {program.name!r} is {program.isa} but "
                f"{self.config.name} executes {self.config.isa}"
            )
        footprint = block_footprint(self.config, program, launch)
        resident_cap = max_resident_blocks(self.config, footprint)

        start = self.chip_cycle
        for core in self.cores:
            core.configure_launch(program, launch, footprint, resident_cap, start)

        pending = list(enumerate(launch.block_indices()))
        pending.reverse()  # pop() yields dispatch order

        # Initial wave: round-robin across cores until slots or blocks run out.
        filling = True
        while filling and pending:
            filling = False
            for core in self.cores:
                if pending and core.can_accept_block:
                    linear, index = pending.pop()
                    core.add_block(linear, index)
                    filling = True

        heap = [
            (core.time, core.core_id) for core in self.cores if core.has_work
        ]
        heapq.heapify(heap)
        self._active = _ActiveLaunch(launch=launch, start=start,
                                     pending=pending, heap=heap)

    def _step(self) -> None:
        """Advance the core with the earliest local clock by one step."""
        active = self._active
        _, core_id = heapq.heappop(active.heap)
        core = self.cores[core_id]
        if not core.has_work:
            return
        retired = core.run_until_retire(quantum=SLICE_CYCLES)
        if retired and active.pending and core.can_accept_block:
            linear, index = active.pending.pop()
            core.add_block(linear, index)
        if core.has_work:
            resume = core.resume_at if core.resume_at is not None else core.time
            heapq.heappush(active.heap, (resume, core_id))

    def _drain_active(self, monitor=None) -> int:
        active = self._active
        while active.heap:
            self._step()
            if monitor is not None:
                monitor.after_step(self)

        if active.pending:
            raise LaunchError("dispatcher finished with undispatched blocks")

        end = max(core.time for core in self.cores)
        self.chip_cycle = max(end, active.start)
        self.launches_run += 1
        self._active = None
        return self.chip_cycle - active.start

    def finish(self) -> int:
        """Signal end-of-workload to the trace sink; returns chip cycles."""
        if self.sink is not None:
            self.sink.on_run_end(self.chip_cycle)
        return self.chip_cycle

    # ------------------------------------------------------------------
    # Checkpoint protocol (see repro.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self, copy: bool = True) -> dict:
        """Plain-data image of the whole machine (chip + cores + memory).

        Capturable at any core-step boundary, including mid-launch: the
        dispatcher's pending-block list and core-clock heap are part of
        the image. Trace sinks and fault plans are excluded — a restore
        rebinds both to the new run's. ``copy=False`` leaves the big
        storage arrays as views (hash-and-discard users only).
        """
        active = self._active
        return {
            "chip_cycle": int(self.chip_cycle),
            "launches_run": int(self.launches_run),
            "mem": self.mem.snapshot_state(copy=copy),
            "cores": [core.snapshot_state(active=active is not None,
                                          copy=copy)
                      for core in self.cores],
            "active": None if active is None else {
                "start": int(active.start),
                "pending": [(lin, tuple(idx)) for lin, idx in active.pending],
                "heap": [(int(t), int(cid)) for t, cid in active.heap],
            },
        }

    def restore_state(self, state: dict,
                      launch: LaunchConfig | None = None) -> None:
        """Overwrite this (fresh) chip with a snapshot.

        ``launch`` must be the launch that was active at capture time
        (rebuilt deterministically from the workload), or None for a
        between-launches snapshot. Faults and the watchdog are NOT part
        of snapshots: call :meth:`set_faults` / :meth:`set_watchdog`
        after restoring — a permanent (stuck-at) fault then re-arms its
        write-back overlay exactly as in an un-checkpointed run.
        """
        active_state = state["active"]
        if (active_state is not None) != (launch is not None):
            raise ConfigError("snapshot and launch disagree about mid-launch")
        self.chip_cycle = state["chip_cycle"]
        self.launches_run = state["launches_run"]
        self.mem.restore_state(state["mem"])
        program = footprint = None
        if launch is not None:
            program = launch.program
            footprint = block_footprint(self.config, program, launch)
        for core, core_state in zip(self.cores, state["cores"]):
            core.restore_state(core_state, program=program, launch=launch,
                               footprint=footprint)
        if active_state is None:
            self._active = None
        else:
            self._active = _ActiveLaunch(
                launch=launch,
                start=active_state["start"],
                pending=[(lin, tuple(idx))
                         for lin, idx in active_state["pending"]],
                heap=list(active_state["heap"]),
            )

    @property
    def instructions_issued(self) -> int:
        """Warp-instructions executed across all cores (all launches)."""
        return sum(core.instructions_issued for core in self.cores)


def default_watchdog_for(golden_cycles: int) -> int:
    """Watchdog budget for faulty re-runs given the fault-free runtime."""
    return golden_cycles * 4 + 20_000


__all__ = ["Gpu", "default_watchdog_for", "DEFAULT_WATCHDOG"]
