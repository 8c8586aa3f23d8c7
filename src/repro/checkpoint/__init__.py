"""Checkpoint/restore subsystem: suffix-only fault injection.

Statistical fault injection re-simulates every live fault, yet the
machine is fault-free — and therefore identical to the golden run —
until the injection cycle. This package removes that shared prefix:

* **capture** — during the (already-traced) golden run, a
  :class:`CheckpointRecorder` periodically snapshots the *entire*
  simulator state: global memory, per-core register files and local
  memories, warp/SIMT-stack and wavefront state, scheduler and barrier
  state, block residency, dispatcher state and cycle counters
  (:mod:`repro.checkpoint.capture`);
* **restore** — each live injection restores the latest snapshot whose
  target-core clock precedes its fault cycle and simulates only the
  suffix, which halves the average injection cost for uniformly
  sampled fault times (:mod:`repro.checkpoint.restore`);
* **early exit** — once the injected disturbance is provably
  overwritten or logically quiesced, the faulty machine's canonical
  state digest equals the golden digest at the same capture label and
  the run is classified MASKED immediately, skipping the rest of the
  simulation (:mod:`repro.checkpoint.convergence`).

Checkpointed fault injection is bit-identical — same per-sample
MASKED/SDC/DUE outcomes and cycle counts — to full re-simulation for
every fault model on both ISAs: snapshots are frozen prefixes of the
exact event sequence a from-scratch faulty run executes, restores
re-install fault plans (persistent stuck-at overlays re-arm through
the ordinary ``force_bit`` path), and the convergence check only fires
on full-state equality, from which deterministic simulation provably
reproduces the golden outputs and cycle count.
"""

from repro.checkpoint.capture import (
    AUTO_INTERVAL,
    MAX_SNAPSHOTS,
    CheckpointRecorder,
    capture_snapshots,
    resolve_interval,
)
from repro.checkpoint.convergence import ConvergedToGolden, ConvergenceMonitor
from repro.checkpoint.digest import digest_machine, digest_machine_pair
from repro.checkpoint.memo import (
    MEMO_MAX_ENTRIES,
    MemoHit,
    MemoRecord,
    SuffixMemo,
    cached_memo,
)
from repro.checkpoint.restore import (
    restore_machine,
    resume_workload,
    run_faulty_from_checkpoints,
)
from repro.checkpoint.snapshot import MachineSnapshot, SnapshotPoint, SnapshotSet

__all__ = [
    "AUTO_INTERVAL",
    "MAX_SNAPSHOTS",
    "MEMO_MAX_ENTRIES",
    "CheckpointRecorder",
    "ConvergedToGolden",
    "ConvergenceMonitor",
    "MachineSnapshot",
    "MemoHit",
    "MemoRecord",
    "SnapshotPoint",
    "SnapshotSet",
    "SuffixMemo",
    "cached_memo",
    "capture_snapshots",
    "digest_machine",
    "digest_machine_pair",
    "restore_machine",
    "resume_workload",
    "run_faulty_from_checkpoints",
    "resolve_interval",
]
