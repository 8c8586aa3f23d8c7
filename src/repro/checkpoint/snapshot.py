"""Snapshot containers: one machine image, one capture point, one set.

A :class:`MachineSnapshot` is the plain-data full-machine image the sim
layer's ``snapshot_state`` protocol produces (global memory, per-core
register files and local memories, warp/SIMT-stack state, scheduler and
barrier state, block residency, dispatcher state, cycle counters) plus
the workload-level launch progress needed to resume the run.

A :class:`SnapshotPoint` is one capture: its label (an interval
threshold or a launch boundary), the per-core clocks at capture (the
restore-validity test) and — unless thinned away — the snapshot
itself. Its state digest (the convergence test) is lazy: the snapshot
hashes its image the first time a faulty run is compared against it
and keeps the result, so every label sharing that snapshot shares one
hash, and a point no faulty run ever reaches is never hashed.

A :class:`SnapshotSet` is everything one golden run captured. Within
an inline campaign the engine hands it to a cell's FI shard jobs by
reference; a pool process or fleet worker keeps the sets of the
goldens it ran resident (:func:`repro.engine.scheduler.keep_resident`)
and never pickles one: at ``default`` scale a set pickles to
0.8-11.7 MB (the 20 goldens of the two scaled paper chips, 98 MB in
all). Sets stay that small because
every storage array is imaged only up to its written prefix (global
memory to its bump pointer, register files and local memories to
their ``used`` marks); full arrays would make them 5.8-64.6 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

# Imported from the digest module itself, not through the convergence
# module's names: those count the faulty-side digests only.
from repro.checkpoint.digest import digest_machine


@dataclass
class MachineSnapshot:
    """Full machine image + launch progress at one capture point."""

    #: Index of the launch that was active (or about to start).
    launch_index: int
    #: Cycle counts of the launches completed before this point.
    launch_cycles: list
    #: Plain-data machine image from :meth:`repro.sim.gpu.Gpu.snapshot_state`.
    state: dict

    @cached_property
    def digest(self) -> str:
        """Canonical state digest, hashed on first use and then kept."""
        return digest_machine(self.launch_index, self.launch_cycles,
                              self.state)


@dataclass
class SnapshotPoint:
    """One capture point of a golden run."""

    #: ("interval", cycle) for periodic captures, ("launch", index) for
    #: launch boundaries. Labels key the convergence comparison: the
    #: faulty run evaluates its own digest at the same labels.
    label: tuple
    #: Per-core local clocks at capture. A point can seed the suffix run
    #: of a fault at (core, cycle) iff ``core_times[core] < cycle`` —
    #: the target core has then provably not yet executed any issue at
    #: or after the fault cycle, so the fault-free prefix is shared.
    core_times: tuple
    #: Canonical state digest (see :mod:`repro.checkpoint.digest`) of a
    #: hand-built point; None on recorded points, whose digest is their
    #: snapshot's, hashed lazily (read :attr:`state_digest`).
    digest: str | None = None
    #: The machine image. The recorder always retains it (thinning
    #: drops whole points); None is allowed for hand-built digest-only
    #: points, which restore selection skips.
    snapshot: MachineSnapshot | None = None

    @property
    def state_digest(self) -> str:
        """The digest a faulty run's state is compared against."""
        if self.digest is not None:
            return self.digest
        return self.snapshot.digest


@dataclass
class SnapshotSet:
    """All capture points of one golden run, in capture order."""

    #: The requested checkpoint interval ("auto" or a cycle count) —
    #: recorded for fingerprinting/reporting; any set is correct for
    #: any request (snapshots only ever change wall time, not results).
    interval: object
    points: list = field(default_factory=list)

    def restore_point_for(self, core: int, cycle: int):
        """Latest usable point for a fault at (core, cycle).

        Returns ``(position, point)``; ``(-1, None)`` when no point
        precedes the fault (the suffix run then starts from scratch).
        """
        for pos in range(len(self.points) - 1, -1, -1):
            point = self.points[pos]
            if point.snapshot is not None and point.core_times[core] < cycle:
                return pos, point
        return -1, None

    def points_after(self, pos: int) -> list:
        """Capture points strictly after position ``pos``."""
        return self.points[pos + 1:]

    @property
    def num_snapshots(self) -> int:
        return sum(1 for p in self.points if p.snapshot is not None)

    def __len__(self) -> int:
        return len(self.points)
