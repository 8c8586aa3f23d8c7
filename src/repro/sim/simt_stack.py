"""SIMT reconvergence stack (NVIDIA divergence model).

GPGPU-Sim's per-warp stack with immediate-post-dominator reconvergence:
the top entry defines the warp's current pc and active mask; a divergent
branch rewrites the top entry into the reconvergence point and pushes
one entry per taken side; entries pop when the warp reaches their
reconvergence pc. ``reconv == NO_RECONV`` marks entries that never
reconverge (sides that run until EXIT).
"""

from __future__ import annotations

from dataclasses import dataclass

NO_RECONV = -1


@dataclass
class StackEntry:
    """One reconvergence-stack level."""

    pc: int
    mask: int        # active-lane bitmask
    reconv: int      # pc at which this entry pops (NO_RECONV: never)


class SimtStack:
    """Per-warp divergence stack."""

    def __init__(self, initial_mask: int):
        self.entries = [StackEntry(pc=0, mask=initial_mask, reconv=NO_RECONV)]

    @property
    def top(self) -> StackEntry:
        return self.entries[-1]

    @property
    def pc(self) -> int:
        return self.entries[-1].pc

    @property
    def active_mask(self) -> int:
        return self.entries[-1].mask

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def empty(self) -> bool:
        """True when every lane has exited."""
        return not self.entries

    def advance(self, next_pc: int) -> None:
        """Sequential flow: move the top entry to ``next_pc`` and pop any
        entries whose reconvergence point has been reached."""
        top = self.entries[-1]
        top.pc = next_pc
        # Only a top entry at its reconvergence pc can pop.
        if next_pc == top.reconv:
            self._pop_reconverged()

    def branch(self, taken_mask: int, target: int, fallthrough: int,
               reconv: int) -> None:
        """Apply a (possibly divergent) branch executed by the top entry.

        ``taken_mask`` must be a subset of the current active mask.
        """
        top = self.top
        not_taken = top.mask & ~taken_mask
        if taken_mask == 0:
            self.advance(fallthrough)
            return
        if not_taken == 0:
            self.advance(target)
            return
        if reconv == NO_RECONV:
            # Both sides run to EXIT; no reconvergence entry possible.
            self.entries.pop()
            self.entries.append(
                StackEntry(pc=fallthrough, mask=not_taken, reconv=NO_RECONV)
            )
            self.entries.append(
                StackEntry(pc=target, mask=taken_mask, reconv=NO_RECONV)
            )
            return
        # Divergence: the current top becomes the reconvergence entry
        # (it already carries the union mask of both sides).
        top.pc = reconv
        self.entries.append(StackEntry(pc=fallthrough, mask=not_taken, reconv=reconv))
        self.entries.append(StackEntry(pc=target, mask=taken_mask, reconv=reconv))

    def exit_lanes(self, mask: int) -> None:
        """Lanes terminated (EXIT): remove them from every entry."""
        for entry in self.entries:
            entry.mask &= ~mask
        self.entries = [entry for entry in self.entries if entry.mask]
        self._pop_reconverged()

    def _pop_reconverged(self) -> None:
        while len(self.entries) > 1:
            top = self.entries[-1]
            if top.reconv != NO_RECONV and top.pc == top.reconv:
                self.entries.pop()
            else:
                break

    # ------------------------------------------------------------------
    # Checkpoint protocol (see repro.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> list:
        """Plain-data stack image: one (pc, mask, reconv) row per entry."""
        return [(e.pc, e.mask, e.reconv) for e in self.entries]

    def restore_state(self, state: list) -> None:
        """Replace the stack contents with a snapshot image."""
        self.entries = [
            StackEntry(pc=pc, mask=mask, reconv=reconv)
            for pc, mask, reconv in state
        ]
