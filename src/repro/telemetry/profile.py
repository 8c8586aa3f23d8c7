"""Hot-path profiling: where cell wall time and dispatch actually go.

The telemetry bus (:mod:`repro.telemetry.sink`) observes the *engine*
— jobs, queues, caches — but is blind inside a cell. This module adds
the attribution layer underneath it: a :class:`ProfileCollector` of
monotonic **phase timers** (golden simulation, liveness pruning,
snapshot capture, restore, suffix simulation, convergence digests,
cell reduction) and **counters** (per-ISA opcode-class dispatch,
memory ops, warp issues, checkpoint hits, early-exit reasons per
outcome class), feeding the ``cell_profile`` / ``campaign_profile``
telemetry events and the ``repro-experiments profile STORE`` report.

Design constraints, in order:

* **Near-zero overhead when disabled.** The instrumented hot paths
  (one hook per warp-instruction in ``sim/sass_core.py`` /
  ``si_core.py``) read one module global and branch; with profiling
  off that is the entire cost. Coarser-grained code uses
  :func:`phase`, which returns a shared no-op context manager when no
  collector is active.
* **Strictly observability-only.** Profiling joins no job
  fingerprint and never touches a payload: a job's collected data
  travels beside its payload, from the worker process or fleet worker
  back to the scheduler — so stores produced with profiling on and off
  are bit-identical (the same guarantee as the telemetry setting
  itself, checked by tests/test_transparency.py).
* **Phase times are exclusive.** Phases nest (a digest check happens
  inside a suffix simulation, a snapshot capture inside a golden
  run); entering a nested phase suspends the parent's clock, so the
  per-phase seconds partition the instrumented wall time and the
  report's shares sum to ~100% of cell work.

Activation is per job, not global configuration: the scheduler's
:func:`repro.engine.scheduler.run_job` runs each job body of a
profiled campaign under ``with collecting(collector): ...`` with a
fresh collector, and ``run_campaign`` folds a cell's job profiles
into its ``cell_profile`` event. Job bodies only mark phases; the
module-global :data:`ACTIVE` is what the hot paths consult.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

#: Canonical phase names, in report order. ``golden`` also covers the
#: fault-free run a plan or shard job makes for a golden that ran in
#: another process or came from the store (the same simulation,
#: re-derived). ``digest`` is the hashing of
#: faulty-run states only: building the image it hashes, and a golden
#: point's lazy digest on its first comparison, count as ``suffix_sim``.
PHASES = (
    "golden",
    "prune",
    "snapshot_capture",
    "restore",
    "suffix_sim",
    "digest",
    "reduce",
)

#: The collector the instrumented hot paths consult. ``None`` means
#: profiling is off and every hook short-circuits after one global
#: read. Set via :func:`collecting`, never assigned directly.
ACTIVE = None


class _NullPhase:
    """Shared no-op context manager for :func:`phase` with profiling off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


class _PhaseScope:
    """Context manager binding one :meth:`ProfileCollector.enter` call."""

    __slots__ = ("_collector", "_name")

    def __init__(self, collector, name):
        self._collector = collector
        self._name = name

    def __enter__(self):
        self._collector.enter(self._name)
        return self

    def __exit__(self, *exc):
        self._collector.exit()
        return False


class ProfileCollector:
    """Accumulates phase timings and counters for one unit of work.

    One collector per job body (golden / plan / shard) or reduction;
    the driver merges them per cell and per campaign. All state is
    plain data so ``as_dict()`` is JSON-safe and cheap.
    """

    __slots__ = ("phases", "phase_calls", "dispatch_counts", "counters",
                 "_stack")

    def __init__(self):
        #: phase name -> exclusive seconds (nested phases suspend it).
        self.phases: dict = {}
        #: phase name -> number of times entered.
        self.phase_calls: dict = {}
        #: isa name -> {latency_class: dispatched instruction count}.
        self.dispatch_counts: dict = {}
        #: flat event counters (memory_ops, warp_issues,
        #: checkpoint_hit/miss, digest_checks, ``exit:<reason>`` ...).
        self.counters: dict = {}
        # [name, slice_start] frames; top frame's clock is running.
        self._stack: list = []

    # ------------------------------------------------------------------
    # Phase timers (exclusive-time stack accounting)
    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        """Start ``name``, suspending the enclosing phase's clock."""
        now = perf_counter()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.phases[top[0]] = (
                self.phases.get(top[0], 0.0) + now - top[1])
        stack.append([name, now])
        self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    def exit(self) -> None:
        """End the current phase, resuming the enclosing one's clock."""
        now = perf_counter()
        name, start = self._stack.pop()
        self.phases[name] = self.phases.get(name, 0.0) + now - start
        if self._stack:
            self._stack[-1][1] = now

    def phase(self, name: str) -> _PhaseScope:
        """``with collector.phase("suffix_sim"): ...`` timing scope."""
        return _PhaseScope(self, name)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def dispatch(self, isa: str, latency_class: str, is_memory: bool) -> None:
        """One warp-instruction dispatch (the simulator hot-path hook)."""
        per_isa = self.dispatch_counts.get(isa)
        if per_isa is None:
            per_isa = self.dispatch_counts[isa] = {}
        per_isa[latency_class] = per_isa.get(latency_class, 0) + 1
        counters = self.counters
        counters["warp_issues"] = counters.get("warp_issues", 0) + 1
        if is_memory:
            counters["memory_ops"] = counters.get("memory_ops", 0) + 1

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------
    # Serialization + merging
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-safe snapshot (the format jobs and events carry)."""
        return {
            "phases": dict(self.phases),
            "phase_calls": dict(self.phase_calls),
            "dispatch": {isa: dict(classes)
                         for isa, classes in self.dispatch_counts.items()},
            "counters": dict(self.counters),
        }


def _items(section) -> list:
    """The ``(name, value)`` pairs of ``section`` if it is a dict."""
    return list(section.items()) if isinstance(section, dict) else []


def _numeric_items(section) -> list:
    """The ``(name, value)`` pairs of a profile section that are numbers."""
    return [(name, value) for name, value in _items(section)
            if isinstance(value, (int, float))]


def merge_profiles(into: dict | None, data: dict | None) -> dict | None:
    """Fold one ``as_dict()``-format profile into another (sums).

    Either side may be ``None`` (a cached dep carries no profile —
    profiling reports *executed* work only); the merge never mutates
    ``data``. A ``data`` that is not a dict, and any section entry that
    is not a number, is skipped: telemetry streams are read back from
    disk, and one malformed event must not sink the whole report.
    """
    if not isinstance(data, dict):
        return into
    if into is None:
        into = {"phases": {}, "phase_calls": {}, "dispatch": {},
                "counters": {}}
    for key in ("phases", "phase_calls", "counters"):
        bucket = into.setdefault(key, {})
        for name, value in _numeric_items(data.get(key)):
            bucket[name] = bucket.get(name, 0) + value
    dispatch = into.setdefault("dispatch", {})
    for isa, classes in _items(data.get("dispatch")):
        if isinstance(classes, dict):
            per_isa = dispatch.setdefault(isa, {})
            for cls, value in _numeric_items(classes):
                per_isa[cls] = per_isa.get(cls, 0) + value
    return into


# ----------------------------------------------------------------------
# Module-level hooks (what instrumented code calls)
# ----------------------------------------------------------------------

@contextmanager
def collecting(collector: ProfileCollector):
    """Activate ``collector`` for the duration of the block.

    Nesting restores the previous collector on exit, so an inline
    campaign's driver-side reduction can profile while a worker-style
    body is active elsewhere on the stack.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = collector
    try:
        yield collector
    finally:
        ACTIVE = previous


def phase(name: str):
    """Timing scope against the active collector; no-op when inactive.

    For per-fault / per-capture granularity, not per-instruction —
    the disabled path still allocates nothing, but the enabled path
    takes two clock reads per scope.
    """
    collector = ACTIVE
    if collector is None:
        return _NULL_PHASE
    return collector.phase(name)


def count(name: str, n: int = 1) -> None:
    """Bump a flat counter on the active collector; no-op when inactive."""
    collector = ACTIVE
    if collector is not None:
        collector.count(name, n)
