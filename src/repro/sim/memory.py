"""Global (device) memory model.

A single flat 32-bit byte-addressed space backed by one numpy array.
Buffers are bump-allocated with 256-byte alignment (matching GPU
allocators); every access is bounds-checked against the allocated
buffers, so a fault-corrupted pointer produces a :class:`MemoryFault`
— the simulator's analogue of an Xid/page-fault, classified as DUE by
the fault-injection engine.

Only 32-bit word accesses exist (both our ISAs are 32-bit RISC cores);
addresses must be word-aligned.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, MemoryFault
from repro.sim.vector import scatter_add_serialized

#: First valid address; [0, _BASE) traps null/near-null dereferences.
_BASE = 0x1000
_ALIGN = 256


@dataclass(frozen=True)
class Buffer:
    """One allocated device buffer."""

    name: str
    base: int       # byte address
    nbytes: int

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    @property
    def words(self) -> int:
        return self.nbytes // 4


class GlobalMemory:
    """Flat device memory with buffer-granular bounds checking."""

    def __init__(self, capacity_bytes: int = 1 << 24):
        if capacity_bytes % 4:
            raise ConfigError("capacity must be a word multiple")
        self.capacity = capacity_bytes
        # Lazily zeroed: words are observable only inside allocated
        # buffers (every device access is bounds-checked) or in the
        # snapshot prefix [0, _next), and alloc() zeroes each claimed
        # region — so the tail never needs the O(capacity) memset a
        # np.zeros would pay up front (3ms per machine at 16 MiB,
        # which used to dominate checkpoint-restore cost).
        self._words = np.empty(capacity_bytes // 4, dtype=np.uint32)
        self._words[:_BASE // 4] = 0
        self._next = _BASE
        self.buffers: dict[str, Buffer] = {}
        # Sorted buffer extents for the searchsorted bounds check (bump
        # allocation keeps bases ascending already; sorting makes that
        # explicit and restore-proof).
        self._bases = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        # The same extents as lists, for the one-buffer check.
        self._base_list: list[int] = []
        self._end_list: list[int] = []

    def _refresh_ranges(self) -> None:
        spans = sorted((b.base, b.end) for b in self.buffers.values())
        self._base_list = [s[0] for s in spans]
        self._end_list = [s[1] for s in spans]
        self._bases = np.array(self._base_list, dtype=np.int64)
        self._ends = np.array(self._end_list, dtype=np.int64)

    # ------------------------------------------------------------------
    # Allocation and host-side access
    # ------------------------------------------------------------------
    def alloc(self, name: str, nbytes: int) -> Buffer:
        """Allocate a zero-initialised buffer; returns its descriptor."""
        if name in self.buffers:
            raise ConfigError(f"buffer {name!r} already allocated")
        if nbytes <= 0 or nbytes % 4:
            raise ConfigError(f"buffer size {nbytes} must be a positive word multiple")
        base = self._next
        if base + nbytes > self.capacity:
            raise ConfigError("device memory exhausted")
        buffer = Buffer(name, base, nbytes)
        self.buffers[name] = buffer
        self._next = (base + nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        # Zero the claimed region including the alignment padding up to
        # the new bump pointer: the buffer contract is zero-initialised
        # storage, and the padding lands inside the snapshot prefix.
        self._words[base // 4:min(self._next, self.capacity) // 4] = 0
        self._refresh_ranges()
        return buffer

    def alloc_from(self, name: str, data: np.ndarray) -> Buffer:
        """Allocate a buffer holding ``data`` (u32/i32/f32 array)."""
        words = _as_words(data)
        buffer = self.alloc(name, words.size * 4)
        self._words[buffer.base // 4: buffer.base // 4 + words.size] = words
        return buffer

    def write_host(self, buffer: Buffer, data: np.ndarray) -> None:
        """Host-side overwrite of an existing buffer."""
        words = _as_words(data)
        if words.size * 4 > buffer.nbytes:
            raise ConfigError("host write larger than buffer")
        self._words[buffer.base // 4: buffer.base // 4 + words.size] = words

    def read_host(self, buffer: Buffer, dtype=np.uint32) -> np.ndarray:
        """Host-side snapshot of a buffer's contents as ``dtype``."""
        start = buffer.base // 4
        words = self._words[start: start + buffer.words].copy()
        return words.view(dtype) if dtype is not np.uint32 else words

    def snapshot(self, names: list[str] | None = None) -> dict[str, np.ndarray]:
        """Copy of the named (default: all) buffers, for output compare."""
        names = list(self.buffers) if names is None else names
        return {name: self.read_host(self.buffers[name]) for name in names}

    # ------------------------------------------------------------------
    # Device-side (simulated) access
    # ------------------------------------------------------------------
    def _check(self, addresses: np.ndarray, kind: str) -> None:
        if addresses.size == 0:
            return
        if (addresses & 3).any():
            bad = int(addresses[np.argmax((addresses & 3) != 0)])
            raise MemoryFault(bad, f"misaligned {kind}")
        if not self._bases.size:
            raise MemoryFault(int(addresses[0]), kind)
        # Common case: every lane inside the buffer holding the lowest
        # address. Anything else takes the per-lane check, which also
        # finds the first faulting lane.
        first = bisect_right(self._base_list, int(addresses.min())) - 1
        if first >= 0 and int(addresses.max()) < self._end_list[first]:
            return
        # searchsorted(right) - 1 = index of the last buffer whose
        # base <= address; the address is valid iff it also falls
        # before that buffer's end (buffers never overlap).
        idx = np.searchsorted(self._bases, addresses, side="right") - 1
        inside = idx >= 0
        valid = inside & (addresses < self._ends[np.where(inside, idx, 0)])
        if not valid.all():
            bad = int(addresses[np.argmin(valid)])
            raise MemoryFault(bad, kind)

    def load_words(self, addresses: np.ndarray) -> np.ndarray:
        """Gather 32-bit words at byte ``addresses`` (device semantics)."""
        addresses = np.asarray(addresses, dtype=np.int64)
        self._check(addresses, "load")
        return self._words[addresses >> 2]

    def store_words(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Scatter 32-bit words; duplicate addresses: highest lane wins."""
        addresses = np.asarray(addresses, dtype=np.int64)
        self._check(addresses, "store")
        self._words[addresses >> 2] = values.astype(np.uint32)

    def atomic_add(self, addresses: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Word-wise atomic integer add; returns the old values (per lane).

        Lanes hitting the same address are serialised in lane order, as
        hardware atomics serialise conflicting lanes.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        self._check(addresses, "atomic")
        return scatter_add_serialized(self._words, addresses >> 2, values)

    def segments_touched(self, addresses: np.ndarray, segment_bytes: int = 128) -> int:
        """Distinct memory segments hit — the coalescing metric."""
        segments = np.asarray(addresses, dtype=np.int64) // segment_bytes
        return len(set(segments.tolist()))

    # ------------------------------------------------------------------
    # Checkpoint protocol (see repro.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self, copy: bool = True) -> dict:
        """Plain-data copy of the allocated state (prefix of the array).

        Words past the bump pointer are untouched by construction
        (every device access is bounds-checked against the allocated
        buffers), so only the used prefix needs copying. ``copy=False``
        returns a view instead (hash-and-discard users).
        """
        used = (self._next + 3) // 4
        return {
            "words": self._words[:used].copy() if copy
            else self._words[:used],
            "next": self._next,
            "buffers": [
                (buffer.name, buffer.base, buffer.nbytes)
                for buffer in self.buffers.values()
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite this memory with a snapshot (capacity must match)."""
        words = state["words"]
        if words.size > self._words.size:
            raise ConfigError("snapshot larger than this memory's capacity")
        self._words[:words.size] = words
        self._next = state["next"]
        self.buffers = {
            name: Buffer(name, base, nbytes)
            for name, base, nbytes in state["buffers"]
        }
        self._refresh_ranges()


def _as_words(data: np.ndarray) -> np.ndarray:
    """View any 4-byte-element array as little-endian u32 words."""
    array = np.ascontiguousarray(data)
    if array.dtype.itemsize != 4:
        raise ConfigError(f"expected 4-byte elements, got {array.dtype}")
    return array.reshape(-1).view(np.uint32)
