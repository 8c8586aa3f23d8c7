"""Warp / wavefront / thread-block runtime state."""

from __future__ import annotations

import numpy as np

from repro.arch.structures import NUM_SASS_PREDICATES
from repro.bits import mask_lanes
from repro.sim.simt_stack import SimtStack

#: Number of SASS predicate registers per thread (P0..P6). Published by
#: the structure registry so the predicate-file fault geometry and the
#: warp state can never disagree.
NUM_PREDICATES = NUM_SASS_PREDICATES


class BlockState:
    """One resident thread block (CTA / work-group)."""

    def __init__(self, linear_id: int, index: tuple, reg_base_row: int,
                 lmem_base: int, footprint):
        self.linear_id = linear_id
        self.index = index              # (bx, by)
        self.reg_base_row = reg_base_row
        self.lmem_base = lmem_base      # byte offset in the core's local memory
        self.footprint = footprint
        self.warps: list = []
        self.unfinished = 0

    def barrier_complete(self) -> bool:
        """True when every non-exited warp has arrived at the barrier."""
        live = [warp for warp in self.warps if not warp.done]
        return bool(live) and all(warp.at_barrier for warp in live)


class WarpBase:
    """State common to NVIDIA warps and AMD wavefronts."""

    def __init__(self, wid: int, block: BlockState, lane_offset: int,
                 nlanes: int, warp_size: int, reg_base_row: int):
        self.wid = wid                  # core-local warp slot id
        self.block = block
        self.lane_offset = lane_offset  # first flat thread id within block
        self.nlanes = nlanes
        self.warp_size = warp_size
        self.reg_base_row = reg_base_row
        #: Hardware warp-context slot (0 .. max_warps_per_core - 1),
        #: assigned by the core at block residency — the slot axis of
        #: the control-structure fault geometry (repro.sim.control).
        self.hw_slot = -1
        self.ready_cycle = 0
        self.last_issue = -1
        self.at_barrier = False
        self.barrier_arrival = 0

    @property
    def done(self) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpoint protocol (see repro.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Plain-data image of the ISA-independent warp state."""
        return {
            "wid": self.wid,
            "lane_offset": self.lane_offset,
            "nlanes": self.nlanes,
            "reg_base_row": self.reg_base_row,
            "hw_slot": int(self.hw_slot),
            "ready_cycle": int(self.ready_cycle),
            "last_issue": int(self.last_issue),
            "at_barrier": bool(self.at_barrier),
            "barrier_arrival": int(self.barrier_arrival),
        }

    def _restore_base(self, state: dict) -> None:
        self.hw_slot = state["hw_slot"]
        self.ready_cycle = state["ready_cycle"]
        self.last_issue = state["last_issue"]
        self.at_barrier = state["at_barrier"]
        self.barrier_arrival = state["barrier_arrival"]


class SassWarp(WarpBase):
    """NVIDIA warp: SIMT stack divergence + predicate registers."""

    def __init__(self, wid, block, lane_offset, nlanes, warp_size, reg_base_row):
        super().__init__(wid, block, lane_offset, nlanes, warp_size, reg_base_row)
        self.stack = SimtStack(mask_lanes(nlanes))
        self.preds = np.zeros((NUM_PREDICATES, warp_size), dtype=bool)
        self._specials: dict[str, np.ndarray] = {}

    @property
    def done(self) -> bool:
        return not self.stack.entries

    @property
    def pc(self) -> int:
        return self.stack.entries[-1].pc

    def special_cache(self) -> dict:
        return self._specials

    def snapshot_state(self) -> dict:
        # The special-register cache is dropped: its values are pure
        # functions of launch geometry, recomputed on demand.
        state = super().snapshot_state()
        state["stack"] = self.stack.snapshot_state()
        state["preds"] = self.preds.copy()
        return state

    @classmethod
    def from_state(cls, state: dict, block: "BlockState",
                   warp_size: int) -> "SassWarp":
        warp = cls(state["wid"], block, state["lane_offset"],
                   state["nlanes"], warp_size, state["reg_base_row"])
        warp._restore_base(state)
        warp.stack.restore_state(state["stack"])
        warp.preds[:] = state["preds"]
        return warp


class SiWavefront(WarpBase):
    """AMD wavefront: scalar register file + EXEC-mask divergence."""

    def __init__(self, wid, block, lane_offset, nlanes, warp_size,
                 reg_base_row, num_sgprs: int):
        super().__init__(wid, block, lane_offset, nlanes, warp_size, reg_base_row)
        self.pc = 0
        self.valid_mask = mask_lanes(nlanes)
        self.exec_mask = self.valid_mask
        self.vcc = 0
        self.scc = False
        self.sgprs = np.zeros(max(num_sgprs, 8), dtype=np.uint32)
        self.finished = False

    @property
    def done(self) -> bool:
        return self.finished

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["pc"] = int(self.pc)
        state["valid_mask"] = int(self.valid_mask)
        state["exec_mask"] = int(self.exec_mask)
        state["vcc"] = int(self.vcc)
        state["scc"] = bool(self.scc)
        state["sgprs"] = self.sgprs.copy()
        state["finished"] = bool(self.finished)
        return state

    @classmethod
    def from_state(cls, state: dict, block: "BlockState",
                   warp_size: int) -> "SiWavefront":
        wave = cls(state["wid"], block, state["lane_offset"],
                   state["nlanes"], warp_size, state["reg_base_row"],
                   num_sgprs=len(state["sgprs"]))
        wave._restore_base(state)
        wave.pc = state["pc"]
        wave.valid_mask = state["valid_mask"]
        wave.exec_mask = state["exec_mask"]
        wave.vcc = state["vcc"]
        wave.scc = state["scc"]
        wave.sgprs[:] = state["sgprs"]
        wave.finished = state["finished"]
        return wave
