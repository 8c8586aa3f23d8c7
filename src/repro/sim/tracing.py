"""Access-trace plumbing.

The reliability analyses (ACE lifetime analysis, fault-injection pruning,
occupancy measurement) all consume the same stream of storage-access
events emitted by the simulators:

* register-file accesses at *row* granularity — one row is the
  ``warp_size`` consecutive 32-bit words holding one architectural
  register of one warp/wavefront — with a lane bitmask;
* local/shared-memory accesses as arrays of word indices (scatter/gather
  capable);
* block (CTA / work-group) allocate / release events carrying the
  resources the block occupies.

The analysis sinks accumulate *online* in O(structure) memory. The one
stored stream is :class:`AccessTrace`: an inline campaign's golden
run records the events fault-site pruning consumes (register-row and
local-memory accesses, warp-slot frees, the run end) as compact numpy
columns, and the cell's plan job replays them through
:class:`repro.reliability.liveness.FaultSiteResolver` instead of
simulating the golden trajectory a second time. It costs O(events)
memory and lives only until that replay. For debugging and tests,
:class:`EventRecorder` keeps every raw event verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Version of the JSONL trace event schema (the ``v`` field of every
#: line :class:`JsonlTraceSink` writes). Bump when an event's fields
#: change incompatibly.
TRACE_SCHEMA_VERSION = 1


class TraceSink:
    """Interface for consumers of storage-access events.

    ``cycle`` is always chip-level (launch-continuous) time. ``core`` is
    the SM/CU index. All hooks have default no-op implementations so
    sinks override only what they need.
    """

    def on_reg_access(self, cycle: int, core: int, row: int, mask: int,
                      is_write: bool) -> None:
        """A register row (``warp_size`` words) was read or written.

        ``mask`` is the active-lane bitmask (lane 0 = LSB): lane ``l`` is
        involved iff bit ``l`` is set, and the touched physical word is
        ``row * warp_size + l`` within the core's register file.
        """

    def on_lmem_access(self, cycle: int, core: int, words: np.ndarray,
                       is_write: bool) -> None:
        """Local/shared memory words (array of word indices) accessed."""

    def on_block_alloc(self, cycle: int, core: int, reg_words: int,
                       lmem_bytes: int) -> None:
        """A block became resident, occupying the given resources."""

    def on_block_free(self, cycle: int, core: int, reg_words: int,
                      lmem_bytes: int) -> None:
        """A resident block retired, releasing its resources."""

    def on_warp_slot_alloc(self, cycle: int, core: int, slot: int) -> None:
        """A hardware warp-context slot became occupied.

        The slot's control state (SIMT stack, predicates, scheduler
        bookkeeping — see :mod:`repro.sim.control`) is initialised at
        this point, which is the write-back that kills any earlier
        transient disturbance of the slot's storage.
        """

    def on_warp_slot_free(self, cycle: int, core: int, slot: int) -> None:
        """A hardware warp-context slot was released (block retired)."""

    def on_run_end(self, cycle: int) -> None:
        """Simulation finished; ``cycle`` is the final chip time."""


class CompositeSink(TraceSink):
    """Fan out events to several sinks."""

    def __init__(self, *sinks: TraceSink):
        self.sinks = [sink for sink in sinks if sink is not None]

    def on_reg_access(self, cycle, core, row, mask, is_write):
        for sink in self.sinks:
            sink.on_reg_access(cycle, core, row, mask, is_write)

    def on_lmem_access(self, cycle, core, words, is_write):
        for sink in self.sinks:
            sink.on_lmem_access(cycle, core, words, is_write)

    def on_block_alloc(self, cycle, core, reg_words, lmem_bytes):
        for sink in self.sinks:
            sink.on_block_alloc(cycle, core, reg_words, lmem_bytes)

    def on_block_free(self, cycle, core, reg_words, lmem_bytes):
        for sink in self.sinks:
            sink.on_block_free(cycle, core, reg_words, lmem_bytes)

    def on_warp_slot_alloc(self, cycle, core, slot):
        for sink in self.sinks:
            sink.on_warp_slot_alloc(cycle, core, slot)

    def on_warp_slot_free(self, cycle, core, slot):
        for sink in self.sinks:
            sink.on_warp_slot_free(cycle, core, slot)

    def on_run_end(self, cycle):
        for sink in self.sinks:
            sink.on_run_end(cycle)


class EventRecorder(TraceSink):
    """Keep every event verbatim, as Python tuples (tests / debugging).

    A campaign records with the compact :class:`AccessTrace` instead.
    """

    def __init__(self):
        self.reg_events: list[tuple] = []    # (cycle, core, row, mask, is_write)
        self.lmem_events: list[tuple] = []   # (cycle, core, tuple(words), is_write)
        self.block_events: list[tuple] = []  # (cycle, core, reg_words, lmem_bytes, kind)
        self.warp_slot_events: list[tuple] = []  # (cycle, core, slot, kind)
        self.end_cycle: int | None = None

    def on_reg_access(self, cycle, core, row, mask, is_write):
        self.reg_events.append((cycle, core, row, mask, is_write))

    def on_lmem_access(self, cycle, core, words, is_write):
        self.lmem_events.append(
            (cycle, core, tuple(int(w) for w in np.atleast_1d(words)), is_write)
        )

    def on_block_alloc(self, cycle, core, reg_words, lmem_bytes):
        self.block_events.append((cycle, core, reg_words, lmem_bytes, "alloc"))

    def on_block_free(self, cycle, core, reg_words, lmem_bytes):
        self.block_events.append((cycle, core, reg_words, lmem_bytes, "free"))

    def on_warp_slot_alloc(self, cycle, core, slot):
        self.warp_slot_events.append((cycle, core, slot, "alloc"))

    def on_warp_slot_free(self, cycle, core, slot):
        self.warp_slot_events.append((cycle, core, slot, "free"))

    def on_run_end(self, cycle):
        self.end_cycle = cycle


#: Event kinds in an :class:`AccessTrace` chunk's ``kinds`` column.
_REG, _LMEM, _SLOT_FREE = 0, 1, 2


class AccessTrace(TraceSink):
    """Compact record of the access stream fault-site pruning consumes.

    Attached to a run, it keeps register-row accesses, local-memory
    word accesses and warp-slot frees in emission order, plus the final
    chip cycle; block and slot-allocation events are not kept.
    :meth:`replay` then makes the same calls, with the same values and
    in the same order, on any :class:`TraceSink`, so a resolver fed
    from the trace reaches exactly the verdicts it reaches attached to
    the run itself.

    Storage is columnar: per event a kind, cycle, core, argument (the
    register row, the warp slot, or the lmem event's index), lane mask
    and write flag, and the lmem word lists concatenated with one
    offset per lmem event. Events are buffered as tuples and folded
    into a numpy chunk every ``CHUNK_EVENTS`` events, so recording
    never holds more than one chunk of Python objects.
    """

    CHUNK_EVENTS = 1 << 12

    def __init__(self):
        self._events: list[tuple] = []
        self._words: list[np.ndarray] = []
        #: (kinds, cycles, cores, args, masks, writes, words, offsets)
        self._chunks: list[tuple] = []
        self.end_cycle: int | None = None

    def on_reg_access(self, cycle, core, row, mask, is_write):
        self._events.append((_REG, cycle, core, row, mask, is_write))
        if len(self._events) >= self.CHUNK_EVENTS:
            self._flush()

    def on_lmem_access(self, cycle, core, words, is_write):
        self._events.append(
            (_LMEM, cycle, core, len(self._words), 0, is_write))
        self._words.append(words)
        if len(self._events) >= self.CHUNK_EVENTS:
            self._flush()

    def on_warp_slot_free(self, cycle, core, slot):
        self._events.append((_SLOT_FREE, cycle, core, slot, 0, False))

    def on_run_end(self, cycle):
        self._flush()
        self.end_cycle = cycle

    def _flush(self) -> None:
        if not self._events:
            return
        kinds, cycles, cores, args, masks, writes = zip(*self._events)
        lengths = np.array([len(words) for words in self._words],
                           dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        self._chunks.append((
            np.array(kinds, dtype=np.uint8),
            np.array(cycles, dtype=np.int64),
            np.array(cores, dtype=np.int32),
            np.array(args, dtype=np.int64),
            np.array(masks, dtype=np.uint64),
            np.array(writes, dtype=bool),
            np.concatenate(self._words).astype(np.int64, copy=False)
            if self._words else np.zeros(0, dtype=np.int64),
            offsets,
        ))
        self._events = []
        self._words = []

    def replay(self, sink: TraceSink) -> None:
        """Deliver the recorded stream to ``sink``, then its run end."""
        if self.end_cycle is None:
            raise RuntimeError("trace has not ended; nothing to replay")
        for chunk in self._chunks:
            words, offsets = chunk[6], chunk[7].tolist()
            for kind, cycle, core, arg, mask, is_write in zip(
                    *(column.tolist() for column in chunk[:6])):
                if kind == _REG:
                    sink.on_reg_access(cycle, core, arg, mask, is_write)
                elif kind == _LMEM:
                    lo, hi = offsets[arg], offsets[arg + 1]
                    sink.on_lmem_access(cycle, core, words[lo:hi], is_write)
                else:
                    sink.on_warp_slot_free(cycle, core, arg)
        sink.on_run_end(self.end_cycle)


class JsonlTraceSink(TraceSink):
    """Write every access event as one JSON line (offline analysis).

    Each line is a flat object ``{"v": 1, "event": <type>, ...}`` with
    plain-scalar fields only (word-index arrays become lists of ints),
    so any JSONL consumer can replay a simulation's access stream
    without this package. The file is truncated on construction — one
    file is one run — and closed by :meth:`on_run_end`, ``close()``,
    or the context-manager exit.

    Unlike the online sinks this stores the *full* stream: cost is
    O(instructions) disk, so it is a debugging/inter-op tool, not part
    of a campaign. :func:`read_trace_events` loads the file back.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self.events_written = 0

    def _write(self, event_type: str, **fields) -> None:
        if self._handle is None:
            return
        record = {"v": TRACE_SCHEMA_VERSION, "event": event_type, **fields}
        self._handle.write(json.dumps(record) + "\n")
        self.events_written += 1

    def on_reg_access(self, cycle, core, row, mask, is_write):
        self._write("reg_access", cycle=int(cycle), core=int(core),
                    row=int(row), mask=int(mask), is_write=bool(is_write))

    def on_lmem_access(self, cycle, core, words, is_write):
        self._write("lmem_access", cycle=int(cycle), core=int(core),
                    words=[int(w) for w in np.atleast_1d(words)],
                    is_write=bool(is_write))

    def on_block_alloc(self, cycle, core, reg_words, lmem_bytes):
        self._write("block_alloc", cycle=int(cycle), core=int(core),
                    reg_words=int(reg_words), lmem_bytes=int(lmem_bytes))

    def on_block_free(self, cycle, core, reg_words, lmem_bytes):
        self._write("block_free", cycle=int(cycle), core=int(core),
                    reg_words=int(reg_words), lmem_bytes=int(lmem_bytes))

    def on_warp_slot_alloc(self, cycle, core, slot):
        self._write("warp_slot_alloc", cycle=int(cycle), core=int(core),
                    slot=int(slot))

    def on_warp_slot_free(self, cycle, core, slot):
        self._write("warp_slot_free", cycle=int(cycle), core=int(core),
                    slot=int(slot))

    def on_run_end(self, cycle):
        self._write("run_end", cycle=int(cycle))
        self.close()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace_events(path: str | Path) -> list[dict]:
    """The events of one :class:`JsonlTraceSink` file, in file order."""
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events
