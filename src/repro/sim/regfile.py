"""Per-core register file with bit-exact state and access tracing.

The physical register file of one SM/CU is a flat array of 32-bit words
organised in *rows* of ``warp_size`` words: row ``r`` holds one
architectural register for the ``warp_size`` lanes of one warp, at words
``r * warp_size .. (r+1) * warp_size - 1``. Warps receive contiguous row
ranges at block dispatch (the same banked layout GPGPU-Sim and Multi2Sim
model), so a physical (word, bit) coordinate — the fault-injection
target space — maps directly onto (row, lane, bit).

Like global memory, the file keeps a high-water mark, ``used``: every
word at or past it is zero, so a checkpoint image holds only the
prefix below it. Small kernels write a few rows of a large file, so
the prefix is a small fraction of the array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sim.tracing import TraceSink


class RegisterFile:
    """One core's (vector) register file."""

    def __init__(self, core_id: int, num_words: int, warp_size: int,
                 sink: TraceSink | None = None):
        if num_words % warp_size:
            raise ConfigError("register file size not a row multiple")
        self.core_id = core_id
        self.warp_size = warp_size
        self.num_words = num_words
        self.num_rows = num_words // warp_size
        self.data = np.zeros(num_words, dtype=np.uint32)
        #: ``data`` as (row, lane): a row is one index, not a slice.
        self._rows = self.data.reshape(self.num_rows, warp_size)
        self._all_lanes = (1 << warp_size) - 1
        #: Every word at or past this index is zero. Writes and faults
        #: raise it past the words they touch; clears, which write
        #: zeros, leave it.
        self.used = 0
        self.sink = sink
        # word -> (and_mask, or_mask): permanent stuck-at overlays,
        # re-applied after every mutation (see _reapply_forced).
        self._forced: dict[int, tuple[int, int]] = {}

    def read_row(self, row: int, mask: int, cycle: int) -> np.ndarray:
        """Read a full row (copy); traces the active-lane ``mask``."""
        values = self._rows[row].copy()
        if self.sink is not None and mask:
            self.sink.on_reg_access(cycle, self.core_id, row, mask, False)
        return values

    def write_row(self, row: int, values: np.ndarray, lane_sel: np.ndarray,
                  mask: int, cycle: int) -> None:
        """Masked row write: lanes with ``lane_sel`` True take ``values``.

        ``mask`` is ``lane_sel`` as a lane bitmask (bit i: lane i). It is
        what the trace records, and with every lane set the write is a
        plain row store.
        """
        if mask == self._all_lanes:
            self._rows[row] = values
        else:
            np.copyto(self._rows[row], values.astype(np.uint32, copy=False),
                      where=lane_sel)
        stop = (row + 1) * self.warp_size
        if stop > self.used:
            self.used = stop
        if self._forced:
            self._reapply_forced()
        if self.sink is not None and mask:
            self.sink.on_reg_access(cycle, self.core_id, row, mask, True)

    def flip_bit(self, word: int, bit: int) -> None:
        """Invert one stored bit (transient fault injection)."""
        self.flip_bits(word, 1 << bit)

    def flip_bits(self, word: int, mask: int) -> None:
        """Invert a mask of stored bits in one word (multi-bit upsets)."""
        if not 0 <= word < self.num_words:
            raise ConfigError(f"register word {word} out of range")
        self.data[word] ^= np.uint32(mask & 0xFFFFFFFF)
        self.used = max(self.used, word + 1)

    def force_bit(self, word: int, bit: int, value: int) -> None:
        """Permanently stick one bit at ``value`` (0/1).

        The overlay takes effect immediately and is re-applied after
        every subsequent write-back to this register file, so the bit
        reads as ``value`` for the rest of the run — a hardware defect,
        not a one-shot upset.
        """
        if not 0 <= word < self.num_words:
            raise ConfigError(f"register word {word} out of range")
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

    def clear_rows(self, first_row: int, count: int) -> None:
        """Zero rows on block allocation (fresh register state)."""
        start = first_row * self.warp_size
        self.data[start: start + count * self.warp_size] = 0
        if self._forced:
            self._reapply_forced()

    # ------------------------------------------------------------------
    # Checkpoint protocol (see repro.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self, copy: bool = True) -> dict:
        """Plain-data image: the words below ``used`` (the rest are
        zero), the file's full word count and the stuck-at overlays.

        ``copy=False`` returns views instead (for hash-and-discard
        users like the convergence digest); never retain such a state.
        """
        data = self.data[:self.used]
        return {"data": data.copy() if copy else data,
                "num_words": self.num_words, "forced": dict(self._forced)}

    def restore_state(self, state: dict) -> None:
        """Overwrite contents with a snapshot (geometry must match).

        Words past the image's prefix read zero afterwards. The stuck-at
        overlay dict is restored too; golden-run snapshots carry an
        empty overlay, and a permanent fault installed *after* the
        restore re-arms itself through ``force_bit`` exactly as in an
        un-checkpointed run.
        """
        if state["num_words"] != self.num_words:
            raise ConfigError("register file snapshot of another geometry")
        prefix = state["data"]
        used = prefix.size
        self.data[:used] = prefix
        self.data[used:self.used] = 0
        self.used = used
        self._forced = dict(state["forced"])
