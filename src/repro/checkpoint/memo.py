"""Cross-sample suffix memoization for fault-injection campaigns.

The early-exit convergence check (:mod:`repro.checkpoint.convergence`)
only helps injections that quiesce back to the *golden* state. But a
campaign re-simulates hundreds of faults of the same cell, and many of
them quiesce to identical **non-golden** states: two transients that
flip the same already-written output word at different cycles, two
stuck-at defects on the same bit sampled at different times, two upsets
whose corruption funnels into the same architectural footprint. From
equal full machine state, deterministic simulation evolves identically
— so once one such run has been simulated to its outcome, every later
run reaching the same state at the same capture label can skip straight
to that outcome.

:class:`SuffixMemo` is the campaign-level table: at every golden
capture label the :class:`~repro.checkpoint.convergence
.ConvergenceMonitor` (when armed — all injected faults applied) hands
it the faulty machine's canonical state digests. A lookup match raises
:class:`MemoHit`, which the FI engine catches and converts into the
memoized :class:`~repro.reliability.outcomes.FaultResult` — and the
hitting run's own digest *trail* (the states it passed through before
the hit) is inserted too, since those states provably lead to the same
outcome.

Collision safety: entries are bucketed by ``(label, core_times,
primary-digest)`` but an outcome is only reused after a **second,
independent** digest (BLAKE2b over the same canonical stream —
:func:`repro.checkpoint.digest.digest_machine_pair`) also matches.
A primary-only match is counted as a collision and treated as a miss.

The memo is derived state, exactly like checkpoints: outcomes are
bit-identical with it on or off (tests/test_transparency.py diffs the
stores), so it joins no job fingerprint and stores written before it
existed resume with zero jobs executed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry import profile as _profile

#: Bound on retained memo entries per table; inserts stop at the cap
#: (dropping *new* entries keeps every already-earned hit source).
MEMO_MAX_ENTRIES = 65536


class MemoHit(Exception):
    """A faulty run reached a state whose outcome is already memoized.

    Control-flow signal, not an error: the FI engine catches it and
    reconstructs the memoized result instead of simulating the suffix.
    """

    def __init__(self, label: tuple, record: "MemoRecord"):
        self.label = label
        self.record = record
        super().__init__(f"suffix memo hit at {label!r}")


@dataclass(frozen=True)
class MemoRecord:
    """The memoized outcome of one fully-classified faulty run.

    Plain result data only (no plan): every field is a deterministic
    function of the machine state at the memo point, so it transfers
    verbatim to any other injection reaching that state.
    """

    outcome: str          # Outcome.value ("masked" / "sdc" / "due")
    detail: str
    corrupted_words: int
    cycles: int
    early_exit: bool


class SuffixMemo:
    """Campaign-level digest -> outcome table (one cell's golden run).

    Single-threaded per process by design (each worker process owns
    its table via :func:`cached_memo`): a run is bracketed by
    :meth:`begin_run` / :meth:`commit`, with :meth:`observe` called at
    every armed capture label in between.
    """

    def __init__(self, max_entries: int = MEMO_MAX_ENTRIES):
        #: (label, core_times, primary) -> (secondary, MemoRecord)
        self._table: dict[tuple, tuple[str, MemoRecord]] = {}
        self._max = max_entries
        self._trail: list[tuple] = []
        #: (label, core_times) buckets ever reached — the digest gate.
        self._buckets: set[tuple] = set()
        self.hits = 0
        self.misses = 0
        self.collisions = 0

    def __len__(self) -> int:
        return len(self._table)

    # ------------------------------------------------------------------
    # Per-run protocol
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Start a fresh digest trail for one faulty run."""
        self._trail = []

    def should_digest(self, label: tuple, core_times: tuple) -> bool:
        """Whether hashing the state at this capture point can pay off.

        Full machine states can only be equal if the per-core clocks
        are — so the first run ever to reach a ``(label, core_times)``
        bucket cannot hit (nothing comparable is in the table) and the
        monitor skips the O(state) digest entirely, just marking the
        bucket. Later runs landing in a marked bucket hash and take
        part in memoization. This trades one pairing opportunity per
        bucket (the very first run's suffix is never inserted) for
        keeping the memo near-free on the overwhelmingly-unique
        suffixes; hit/miss outcomes stay bit-identical either way.
        """
        bucket = (label, core_times)
        if bucket in self._buckets:
            return True
        if len(self._buckets) < 4 * self._max:
            self._buckets.add(bucket)
        return False

    def observe(self, label: tuple, core_times: tuple,
                primary: str, secondary: str) -> MemoRecord | None:
        """One armed capture-label observation; returns a hit, if any.

        On a miss the observation joins the run's trail so
        :meth:`commit` can memoize it once the outcome is known.
        """
        key = (label, core_times, primary)
        entry = self._table.get(key)
        if entry is not None:
            stored_secondary, record = entry
            if stored_secondary == secondary:
                self.hits += 1
                return record
            # Primary collided but the independent digest disagrees:
            # different underlying states — never reuse the outcome.
            self.collisions += 1
            _profile.count("memo_collisions")
            return None
        self._trail.append(key + (secondary,))
        return None

    def commit(self, record: MemoRecord) -> None:
        """Memoize the finished run's trail under its final outcome.

        Called with the *classified* result — whether the run completed
        fully, exited early on golden convergence, died as a DUE, or
        itself ended on a memo hit (its pre-hit trail states provably
        lead to the same outcome).
        """
        for label, core_times, primary, secondary in self._trail:
            if len(self._table) >= self._max:
                break
            self._table.setdefault(
                (label, core_times, primary), (secondary, record))
        self._trail = []

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Plain-data counters for telemetry / bench output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "collisions": self.collisions,
            "entries": len(self._table),
        }


#: Per-process memo tables, bounded FIFO — the same sharing pattern as
#: the resident golden artifacts (:data:`repro.engine.scheduler._RESIDENT`):
#: every fault of a cell a process handles feeds (and profits from) one
#: shared table.
_MEMO_CACHE: dict = {}
_MEMO_CACHE_MAX = 4


def cached_memo(key: tuple) -> SuffixMemo:
    """The memo table for ``key``, creating it on first use.

    ``key`` is the caller's cell identity (it must determine the golden
    run and the fault model); callers namespace keys with a leading tag
    so different derivations never collide.
    """
    memo = _MEMO_CACHE.get(key)
    if memo is None:
        while len(_MEMO_CACHE) >= _MEMO_CACHE_MAX:
            _MEMO_CACHE.pop(next(iter(_MEMO_CACHE)))
        memo = _MEMO_CACHE[key] = SuffixMemo()
    return memo
