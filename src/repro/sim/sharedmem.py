"""Per-core local/shared memory (NVIDIA shared memory / AMD LDS).

Word-addressed storage with scatter/gather access, bounds checking
against the core's aperture, word-granular access tracing, and a
deterministic lane-serialised atomic add (the shared-memory atomic the
histogram benchmark uses). Like the register file, it keeps a
high-water mark, ``used``, past which every word is zero, so a
checkpoint image holds only the prefix below it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, LocalMemoryFault
from repro.sim.tracing import TraceSink
from repro.sim.vector import scatter_add_serialized


class LocalMemory:
    """One core's shared memory / LDS."""

    def __init__(self, core_id: int, nbytes: int, sink: TraceSink | None = None):
        if nbytes % 4:
            raise ConfigError("local memory size must be a word multiple")
        self.core_id = core_id
        self.nbytes = nbytes
        self.num_words = nbytes // 4
        self.data = np.zeros(self.num_words, dtype=np.uint32)
        #: Every word at or past this index is zero. Writes and faults
        #: raise it past the words they touch; clears, which write
        #: zeros, leave it.
        self.used = 0
        self.sink = sink
        # word -> (and_mask, or_mask): permanent stuck-at overlays,
        # re-applied after every mutation (see _reapply_forced).
        self._forced: dict[int, tuple[int, int]] = {}

    def _word_index(self, byte_addrs: np.ndarray) -> tuple[np.ndarray, int]:
        """Word indices of per-lane byte addresses, and one past the
        highest of them (0 for no lanes).

        Raises :class:`LocalMemoryFault` at the first misaligned lane,
        else at the first lane outside the aperture.
        """
        addrs = np.asarray(byte_addrs, dtype=np.int64)
        if not addrs.size:
            return addrs, 0
        if (addrs & 3).any():
            bad = int(addrs[np.argmax((addrs & 3) != 0)])
            raise LocalMemoryFault(bad, self.nbytes)
        high = int(addrs.max())
        if addrs.min() < 0 or high >= self.nbytes:
            outside = (addrs < 0) | (addrs >= self.nbytes)
            raise LocalMemoryFault(int(addrs[np.argmax(outside)]), self.nbytes)
        return addrs >> 2, (high >> 2) + 1

    def load(self, byte_addrs: np.ndarray, cycle: int) -> np.ndarray:
        """Gather words at per-lane byte addresses."""
        index, _ = self._word_index(byte_addrs)
        if self.sink is not None and index.size:
            self.sink.on_lmem_access(cycle, self.core_id, index, False)
        return self.data[index]

    def store(self, byte_addrs: np.ndarray, values: np.ndarray, cycle: int) -> None:
        """Scatter words; duplicate addresses resolve highest-lane-wins."""
        index, stop = self._word_index(byte_addrs)
        self.data[index] = values.astype(np.uint32, copy=False)
        if stop > self.used:
            self.used = stop
        if self._forced:
            self._reapply_forced()
        if self.sink is not None and index.size:
            self.sink.on_lmem_access(cycle, self.core_id, index, True)

    def atomic_add(self, byte_addrs: np.ndarray, values: np.ndarray,
                   cycle: int) -> np.ndarray:
        """Lane-serialised atomic integer add; returns old values."""
        index, stop = self._word_index(byte_addrs)
        if self.sink is not None and index.size:
            self.sink.on_lmem_access(cycle, self.core_id, index, False)
        old = scatter_add_serialized(self.data, index, values)
        if stop > self.used:
            self.used = stop
        if self._forced:
            self._reapply_forced()
        if self.sink is not None and index.size:
            self.sink.on_lmem_access(cycle, self.core_id, index, True)
        return old

    def flip_bit(self, word: int, bit: int) -> None:
        """Invert one stored bit (transient fault injection)."""
        self.flip_bits(word, 1 << bit)

    def flip_bits(self, word: int, mask: int) -> None:
        """Invert a mask of stored bits in one word (multi-bit upsets)."""
        if not 0 <= word < self.num_words:
            raise ConfigError(f"local memory word {word} out of range")
        self.data[word] ^= np.uint32(mask & 0xFFFFFFFF)
        self.used = max(self.used, word + 1)

    def force_bit(self, word: int, bit: int, value: int) -> None:
        """Permanently stick one bit at ``value`` (0/1).

        Takes effect immediately and is re-applied after every
        subsequent write-back (stores, atomics, block-allocation
        clears) — a hardware defect, not a one-shot upset.
        """
        if not 0 <= word < self.num_words:
            raise ConfigError(f"local memory word {word} out of range")
        and_mask, or_mask = self._forced.get(word, (0xFFFFFFFF, 0))
        if value:
            or_mask |= 1 << bit
        else:
            and_mask &= ~(1 << bit) & 0xFFFFFFFF
        self._forced[word] = (and_mask, or_mask)
        self.used = max(self.used, word + 1)
        self._reapply_forced()

    def _reapply_forced(self) -> None:
        """Re-impose the stuck-at overlays (idempotent)."""
        for word, (and_mask, or_mask) in self._forced.items():
            self.data[word] = np.uint32(
                (int(self.data[word]) & and_mask) | or_mask
            )

    def clear_range(self, byte_offset: int, nbytes: int) -> None:
        """Zero a block's aperture at allocation."""
        start = byte_offset // 4
        self.data[start: start + nbytes // 4] = 0
        if self._forced:
            self._reapply_forced()

    # ------------------------------------------------------------------
    # Checkpoint protocol (see repro.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self, copy: bool = True) -> dict:
        """Plain-data image: the words below ``used`` (the rest are
        zero), the memory's full word count and the stuck-at overlays.

        ``copy=False`` returns views instead (hash-and-discard users).
        """
        data = self.data[:self.used]
        return {"data": data.copy() if copy else data,
                "num_words": self.num_words, "forced": dict(self._forced)}

    def restore_state(self, state: dict) -> None:
        """Overwrite contents with a snapshot (geometry must match).

        Words past the image's prefix read zero afterwards.
        """
        if state["num_words"] != self.num_words:
            raise ConfigError("local memory snapshot of another geometry")
        prefix = state["data"]
        used = prefix.size
        self.data[:used] = prefix
        self.data[used:self.used] = 0
        self.used = used
        self._forced = dict(state["forced"])
