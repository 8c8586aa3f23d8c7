"""Host-speed probe: a fixed slice of work timed beside the campaign.

The benchmark's host is a few cores of a shared machine whose speed
swings by up to ~2x, within seconds and over minutes, with CPU time
equal to wall time: the work itself runs slower, nothing is stolen.
Campaigns of identical work then differ by as much (see README.md).

:class:`Sampler` runs in a thread of the campaign's own process. Every
:data:`PERIOD_S` it times one fixed :func:`slice_` of work, so it
measures the core the campaign runs on while the campaign runs. Its
mean slice over a stretch of time, divided by :data:`REFERENCE_S`, is
how much slower than the reference the host ran then; ``run.py``
scales the campaign's times by it, raised to :data:`ELASTICITY`. Slices timed right beside a
campaign track its speed closely: with the slice's compute part
alone, correlation 0.96 over 37 ``resim_deep`` campaigns of identical
work, where a probe in another process, on the other core, reached
0.5.

The slice never calls the program, so a change to the program cannot
move it. It mixes what the simulator's hot loop does: small numpy
operations over warp-sized lanes, Python integer and dict work
between them and, now and then, a SHA-256 as the state digest does;
then it copies four MiB, as snapshots copy machine state. The copy
makes its slowdown follow the memory-bound stretches of a campaign
too: in a test on ``datapath_sweep`` with a 2 MiB zero-fill and copy
in its place, campaign time grew with the slice's as its 0.94th
power, against 0.82 without. The copy here goes between buffers
allocated once, so its cost does not depend on how the program has
left the allocator. Everything it calls holds the GIL (the hashed
buffer is below the size at which ``hashlib`` releases it), so a
slice times only itself.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np

#: The slice time that scaled times refer to. On the reference host (a
#: 2-core KVM guest, Xeon at 2.0 GHz, Python 3.11, numpy 2.4) one slice
#: took 1.4 ms alone; beside campaigns, slowdowns ran about 0.9-1.8.
REFERENCE_S = 0.0018
#: Campaigns slow more than the slice when the host slows: over 30
#: runs per workload, a run's log raw throughput fell 1.48, 1.45 and
#: 1.23 times as fast as its log slowdown rose (``datapath_sweep``,
#: ``resim_deep``, ``leased_sweep``; correlation 0.98, 0.90, 0.97).
#: Campaign and set-up times are scaled by the slowdown raised to this
#: power.
ELASTICITY = 1.5
#: Pause between slices: about 3% of the campaign's time goes to them.
PERIOD_S = 0.05

_LANES = np.arange(32, dtype=np.int64)
_BLOB = bytes(range(256)) * 4
_STATE = bytes(range(256)) * 16384
_COPY = bytearray(len(_STATE))


def slice_() -> None:
    """One fixed piece of probe work (about REFERENCE_S seconds)."""
    lanes = _LANES
    table: dict = {}
    live = 0
    for step in range(120):
        lanes = (lanes * 1103515245 + 12345) & 0xFFFF
        live += int(np.count_nonzero(lanes > 0x8000))
        table[step & 63] = live
        if step % 4 == 0:
            hashlib.sha256(_BLOB).digest()
    _COPY[:] = _STATE


class Sampler:
    """Times one slice every PERIOD_S in a daemon thread."""

    def __init__(self):
        #: (start, end) ``time.monotonic()`` of every slice so far.
        self.slices: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="probe",
                                        daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            begin = time.monotonic()
            slice_()
            self.slices.append((begin, time.monotonic()))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean slice from ``start`` to ``end`` (monotonic seconds) over
        REFERENCE_S: above 1 when the host ran slower than the
        reference."""
        inside = [b - a for a, b in self.slices if a >= start and b <= end]
        if not inside:
            raise ValueError(f"no probe slice from {start:.3f} to {end:.3f}")
        return sum(inside) / len(inside) / REFERENCE_S
