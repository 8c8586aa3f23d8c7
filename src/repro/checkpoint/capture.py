"""Checkpoint capture during golden runs.

The :class:`CheckpointRecorder` is a run monitor (the observe-only hook
:func:`repro.kernels.workload.run_workload` and the GPU dispatcher call
between core steps): it watches the machine's maximum core clock and
captures a full snapshot whenever an interval threshold is crossed,
plus one at every launch boundary. Because monitors only observe, a
recorded golden run is event-for-event identical to a bare one.

Capture points are only available at core-step boundaries (a core runs
until a block retires between boundaries), so a threshold is honoured
at the first boundary at or after it — the same rule the convergence
monitor replays on the faulty side, which is what makes digest labels
comparable across the two runs.

The recorder self-limits: when the number of points exceeds
``max_snapshots``, every other point is dropped and the interval
doubles — so memory stays bounded for any run length without knowing
the cycle count in advance, and ``interval="auto"`` needs no tuning.
Thinning never affects results: any subset of points is correct, a
sparser set only shortens the skipped prefix less.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.checkpoint.snapshot import MachineSnapshot, SnapshotPoint, SnapshotSet
from repro.telemetry import profile as _profile

#: Base capture stride (cycles) for ``interval="auto"``.
AUTO_INTERVAL = 256
#: Default bound on retained capture points (doubling starts beyond it).
MAX_SNAPSHOTS = 24


def resolve_interval(interval) -> int:
    """Base capture stride in cycles for a user-facing interval value."""
    if interval == "auto" or interval is None:
        return AUTO_INTERVAL
    try:
        stride = int(interval)
    except (TypeError, ValueError):
        raise ConfigError(
            f"checkpoint interval must be 'auto' or a cycle count, "
            f"got {interval!r}"
        ) from None
    if stride < 1:
        raise ConfigError(f"checkpoint interval must be >= 1, got {interval}")
    return stride


class CheckpointRecorder:
    """Run monitor that captures periodic full-machine snapshots."""

    def __init__(self, interval="auto", max_snapshots: int = MAX_SNAPSHOTS):
        self.interval = "auto" if interval is None else interval
        self._stride = resolve_interval(interval)
        self._next_due = self._stride
        self._max = max(2, int(max_snapshots))
        self._points: list[SnapshotPoint] = []
        self._launch_index = 0
        self._launch_cycles: list = []

    # ------------------------------------------------------------------
    # Run-monitor hooks
    # ------------------------------------------------------------------
    def begin_launch(self, gpu, index: int, launch_cycles: list) -> None:
        self._launch_index = index
        self._launch_cycles = list(launch_cycles)
        self._capture(gpu, [("launch", index)])

    def after_step(self, gpu) -> None:
        cur = max(core.time for core in gpu.cores)
        if cur < self._next_due:
            return
        labels = []
        while cur >= self._next_due:
            labels.append(("interval", self._next_due))
            self._next_due += self._stride
        self._capture(gpu, labels)

    # ------------------------------------------------------------------
    def _capture(self, gpu, labels: list) -> None:
        """Record one machine image under the given labels.

        Thresholds crossed within a single core step share one image
        (the machine cannot be observed between them). Nothing is
        hashed here: the image's digest is computed only if a faulty
        run is ever compared against it (:class:`MachineSnapshot`).
        """
        with _profile.phase("snapshot_capture"):
            state = gpu.snapshot_state()
            snapshot = MachineSnapshot(
                launch_index=self._launch_index,
                launch_cycles=list(self._launch_cycles),
                state=state,
            )
        core_times = tuple(int(c["time"]) for c in state["cores"])
        for label in labels:
            self._points.append(SnapshotPoint(
                label=label, core_times=core_times, snapshot=snapshot,
            ))
        while len(self._points) > self._max:
            self._points = self._points[::2]
            self._stride *= 2

    def snapshots(self) -> SnapshotSet:
        """The captured set (call after the run has ended)."""
        return SnapshotSet(interval=self.interval, points=list(self._points))


def capture_snapshots(config, workload, scheduler: str = "rr",
                      interval="auto",
                      max_snapshots: int = MAX_SNAPSHOTS) -> SnapshotSet:
    """A golden run's snapshot set from a bare (untraced) run.

    The engine captures inside its golden runs instead
    (:func:`repro.reliability.fi.run_golden`); this standalone form is
    for library use. The machine trajectory is sink-independent, so
    the set is identical to the one a traced golden run captures.
    """
    from repro.kernels.workload import run_workload
    from repro.sim.gpu import Gpu
    recorder = CheckpointRecorder(interval, max_snapshots=max_snapshots)
    # A fault-free run, so it profiles as `golden` (with its captures
    # nested under `snapshot_capture` as usual).
    with _profile.phase("golden"):
        run_workload(Gpu(config, scheduler=scheduler), workload,
                     monitor=recorder)
    return recorder.snapshots()
