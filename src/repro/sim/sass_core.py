"""NVIDIA SM model: SASS front-end on the generic core engine.

Keeps what is SASS-specific on top of :class:`repro.sim.core.CoreBase`:
the operand grammar of :mod:`repro.isa.sass.semantics` (registers with
RZ, predicates with PT, parameter words, special registers), predicate
guards on the SIMT stack's active mask, and SIMT-stack divergence with
immediate-post-dominator reconvergence.
"""

from __future__ import annotations

import numpy as np

from repro.isa.base import Imm, Param, Pred, Reg
from repro.isa.sass import semantics
from repro.isa.sass.cfg import immediate_postdominators
from repro.isa.sass.opcodes import SASS_OPCODES
from repro.sim.core import CoreBase
from repro.sim.simt_stack import NO_RECONV
from repro.sim.vector import bools_to_mask, const_bool, const_u32, mask_to_bools
from repro.sim.warp import SassWarp

#: id(program) -> (program, reconvergence table): computed once per
#: program object and shared by every launch and restore of it. The
#: entry holds the program, so its id cannot be reused by another.
_IPDOM_TABLES: dict[int, tuple] = {}


class SassCore(CoreBase):
    """One streaming multiprocessor executing SASS-like kernels."""

    OPCODES = SASS_OPCODES
    HANDLERS = semantics.HANDLERS
    WARP_CLASS = SassWarp

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ipdom: dict[int, int] = {}

    # ------------------------------------------------------------------
    # CoreBase hooks
    # ------------------------------------------------------------------
    def _prepare_program(self, program) -> None:
        entry = _IPDOM_TABLES.get(id(program))
        if entry is None:
            entry = _IPDOM_TABLES[id(program)] = (
                program, immediate_postdominators(program))
        self._ipdom = entry[1]
        super()._prepare_program(program)

    def _execute(self, warp: SassWarp, pc: int, inst, info, handler,
                 t_issue: int) -> int:
        stack = warp.stack
        active_mask = stack.entries[-1].mask
        active_bool = mask_to_bools(active_mask, self.warp_size)
        if inst.guard is not None:
            eff_bool = active_bool & self._pred_values(warp, inst.guard)
            eff_mask = bools_to_mask(eff_bool)
        else:
            eff_bool = active_bool
            eff_mask = active_mask

        self.eff_bool = eff_bool
        self.eff_mask = eff_mask

        if eff_mask == 0 and not (info.is_branch or info.is_exit or info.is_barrier):
            stack.advance(pc + 1)
            return 0

        effect = handler(self, inst)
        if effect.kind == "none":
            stack.advance(pc + 1)
        else:
            self._apply_effect(warp, pc, effect, t_issue)
        return effect.extra_cycles

    def _apply_effect(self, warp: SassWarp, pc: int, effect,
                      t_issue: int) -> None:
        """Retire one instruction's control effect on the SIMT stack."""
        if effect.kind == "branch":
            reconv = self._ipdom.get(pc, NO_RECONV)
            warp.stack.branch(effect.mask, effect.target, pc + 1, reconv)
        elif effect.kind == "exit":
            warp.stack.exit_lanes(effect.mask)
            if not warp.stack.empty and warp.stack.pc == pc:
                warp.stack.advance(pc + 1)
        elif effect.kind == "barrier":
            warp.stack.advance(pc + 1)
            self._arrive_barrier(warp, t_issue)
        else:
            warp.stack.advance(pc + 1)

    # ------------------------------------------------------------------
    # Warp-context protocol (used by repro.isa.sass.semantics)
    # ------------------------------------------------------------------
    def read_reg(self, reg: Reg) -> np.ndarray:
        index = reg.index
        if index < 0:  # RZ
            return const_u32(self.warp_size, 0)
        return self.regfile.read_row(self._warp.reg_base_row + index,
                                     self.eff_mask, self._cycle)

    def write_reg(self, reg: Reg, values: np.ndarray) -> None:
        index = reg.index
        if index < 0:  # RZ: discard
            return
        self.regfile.write_row(self._warp.reg_base_row + index, values,
                               self.eff_bool, self.eff_mask, self._cycle)

    def _pred_values(self, warp: SassWarp, pred: Pred) -> np.ndarray:
        if pred.index < 0:  # PT
            return const_bool(self.warp_size, not pred.negated)
        values = warp.preds[pred.index].copy()
        return ~values if pred.negated else values

    def read_pred(self, pred: Pred) -> np.ndarray:
        return self._pred_values(self._warp, pred)

    def write_pred(self, pred: Pred, values: np.ndarray) -> None:
        if pred.index < 0:
            return
        np.copyto(self._warp.preds[pred.index], values, where=self.eff_bool)

    def read_operand(self, op) -> np.ndarray:
        # Operand classes are final dataclasses: exact type dispatch.
        kind = type(op)
        if kind is Reg:
            return self.read_reg(op)
        if kind is Imm:
            return const_u32(self.warp_size, op.value)
        if kind is Param:
            return const_u32(self.warp_size, self.launch.param_word(op.index))
        raise TypeError(f"cannot read operand {op!r}")

    def special(self, name: str) -> np.ndarray:
        cache = self._warp.special_cache()
        if name not in cache:
            cache[name] = self._compute_special(self._warp, name)
        return cache[name]

    def _compute_special(self, warp: SassWarp, name: str) -> np.ndarray:
        size = self.config.warp_size
        bx, by = self.launch.block
        gx, gy = self.launch.grid
        flat = warp.lane_offset + np.arange(size, dtype=np.uint32)
        if name == "SR_TID_X":
            return flat % np.uint32(bx)
        if name == "SR_TID_Y":
            return flat // np.uint32(bx)
        if name == "SR_CTAID_X":
            return np.full(size, warp.block.index[0], dtype=np.uint32)
        if name == "SR_CTAID_Y":
            return np.full(size, warp.block.index[1], dtype=np.uint32)
        if name == "SR_NTID_X":
            return np.full(size, bx, dtype=np.uint32)
        if name == "SR_NTID_Y":
            return np.full(size, by, dtype=np.uint32)
        if name == "SR_NCTAID_X":
            return np.full(size, gx, dtype=np.uint32)
        if name == "SR_NCTAID_Y":
            return np.full(size, gy, dtype=np.uint32)
        if name == "SR_LANEID":
            return np.arange(size, dtype=np.uint32)
        if name == "SR_WARPID":
            return np.full(size, warp.lane_offset // size, dtype=np.uint32)
        raise KeyError(f"unknown special register {name}")
