"""Early-exit convergence check for transient-fault suffix runs.

A live transient fault often stops mattering long before the program
ends: the corrupted word is overwritten, or its consumers mask the
upset logically, and from then on the faulty machine is bit-for-bit
the golden machine. Running to completion just to compare outputs is
wasted work — deterministic simulation from equal state provably
produces the golden outputs and the golden cycle count.

The :class:`ConvergenceMonitor` rides the faulty suffix run (the same
observe-only monitor hook the golden capture uses) and, at every label
the golden run recorded a digest for, compares the faulty machine's
canonical state digest against the golden one. On a match it raises
:class:`ConvergedToGolden`, which the FI engine catches and classifies
MASKED immediately.

Two guards make this sound:

* the comparison is **armed only after every installed fault plan has
  been applied** — before that the faulty run is still replaying the
  shared fault-free prefix, whose digests trivially match;
* digests cover the *full* machine state (including stuck-at overlay
  tables and core clocks), so a persistent (stuck-at) fault — whose
  overlay re-asserts forever — can never spuriously match; campaigns
  skip the monitor entirely for persistent models.
"""

from __future__ import annotations

from collections import deque

from repro.checkpoint.digest import digest_machine, digest_machine_pair
from repro.checkpoint.memo import MemoHit
from repro.telemetry import profile as _profile


class ConvergedToGolden(Exception):
    """The faulty machine state equals the golden state at a label.

    Control-flow signal, not an error: the FI engine maps it to an
    immediate MASKED classification with the golden cycle count.
    """

    def __init__(self, label: tuple):
        self.label = label
        super().__init__(f"machine state converged to golden at {label!r}")


class ConvergenceMonitor:
    """Run monitor comparing faulty state digests against golden ones."""

    def __init__(self, points: list, memo=None, golden_compare: bool = True):
        """``points`` — golden capture points ahead of the restore point.

        ``memo`` (a :class:`repro.checkpoint.memo.SuffixMemo`)
        additionally looks each armed label's digest pair up in the
        campaign-level memo table and raises
        :class:`~repro.checkpoint.memo.MemoHit` on a verified match.
        ``golden_compare=False`` disables the converged-to-golden check
        (persistent models: the stuck-at overlay re-asserts forever, so
        golden convergence is impossible but memoization still applies).
        """
        self._interval = deque(
            p for p in points if p.label[0] == "interval"
        )
        self._launch = {
            p.label[1]: p for p in points if p.label[0] == "launch"
        }
        self._memo = memo
        self._golden_compare = golden_compare
        self._launch_index = 0
        self._launch_cycles: list = []
        #: Full digest comparisons performed (observability / tests).
        self.checks = 0

    def set_context(self, launch_index: int, launch_cycles: list) -> None:
        """Seed the launch progress when resuming mid-workload."""
        self._launch_index = launch_index
        self._launch_cycles = list(launch_cycles)

    # ------------------------------------------------------------------
    # Run-monitor hooks
    # ------------------------------------------------------------------
    def begin_launch(self, gpu, index: int, launch_cycles: list) -> None:
        self.set_context(index, launch_cycles)
        point = self._launch.get(index)
        if point is not None:
            self._compare(gpu, point)

    def after_step(self, gpu) -> None:
        if not self._interval:
            return
        cur = max(core.time for core in gpu.cores)
        while self._interval and self._interval[0].label[1] <= cur:
            self._compare(gpu, self._interval.popleft())

    # ------------------------------------------------------------------
    def _compare(self, gpu, point) -> None:
        if any(core.pending_faults for core in gpu.cores):
            return  # still on the shared fault-free prefix
        core_times = tuple(int(core.time) for core in gpu.cores)
        times_match = core_times == point.core_times
        if self._memo is None:
            # Cheap pre-filter: full-state equality implies equal
            # per-core clocks, so a timing-diverged run (the usual
            # SDC/DUE fate) skips the digest entirely at O(cores) cost.
            if not times_match:
                return
            self.checks += 1
            _profile.count("digest_checks")
            # The image is built outside the ``digest`` phase: state
            # construction is booked with the suffix run around it, and
            # so is the golden point's lazy digest (its first compare).
            state = gpu.snapshot_state(copy=False)
            with _profile.phase("digest"):
                mine = digest_machine(self._launch_index,
                                      self._launch_cycles, state)
            if mine == point.state_digest:
                raise ConvergedToGolden(point.label)
            return
        # Memoizing: quiescent states recur across injections even when
        # timing has diverged from golden — but hashing every state at
        # every point would swamp the memo's win, so the digest is
        # gated on the memo's (label, core_times) bucket index: only
        # states a second run could actually match get hashed. The
        # golden comparison still forces the digest when timing tracks
        # golden, exactly like the memo-less path.
        forced = self._golden_compare and times_match
        if not forced and not self._memo.should_digest(point.label,
                                                       core_times):
            return
        self.checks += 1
        _profile.count("digest_checks")
        state = gpu.snapshot_state(copy=False)
        with _profile.phase("digest"):
            primary, secondary = digest_machine_pair(
                self._launch_index, self._launch_cycles, state)
        if forced and primary == point.state_digest:
            raise ConvergedToGolden(point.label)
        record = self._memo.observe(point.label, core_times,
                                    primary, secondary)
        if record is not None:
            raise MemoHit(point.label, record)
