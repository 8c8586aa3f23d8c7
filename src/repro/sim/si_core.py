"""AMD compute-unit model: Southern-Islands front-end on the core engine.

Keeps what is SI-specific on top of :class:`repro.sim.core.CoreBase`:
the operand grammar of :mod:`repro.isa.si.semantics` (SGPR/VCC/EXEC/SCC
scalar state per wavefront, EXEC-masked vector register access against
the CU's VGPR file), EXEC lane masking and branch/exit handling on the
wavefront pc, and the launch ABI preloaded into each new wavefront.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IllegalInstruction
from repro.isa.base import Imm, Param, SReg, SRegPair, SpecialScalar, VReg
from repro.isa.si import semantics
from repro.isa.si.opcodes import SI_OPCODES
from repro.sim.core import CoreBase
from repro.sim.vector import bools_to_mask as _bools_to_mask
from repro.sim.vector import const_u32
from repro.sim.vector import mask_to_bools as _mask_to_bools
from repro.sim.warp import SiWavefront

_MASK64 = (1 << 64) - 1


class SiCore(CoreBase):
    """One compute unit executing SI-like kernels."""

    OPCODES = SI_OPCODES
    HANDLERS = semantics.HANDLERS
    WARP_CLASS = SiWavefront

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scc: bool = False  # mirrors the current wavefront during execute

    # ------------------------------------------------------------------
    # CoreBase hooks
    # ------------------------------------------------------------------
    def _new_warp(self, **fields) -> SiWavefront:
        """A new wavefront with the launch ABI preloaded: s0..s5
        geometry, v0/v1 local ids."""
        wave = SiWavefront(num_sgprs=self.program.scalar_registers, **fields)
        bx, by = self.launch.block
        gx, gy = self.launch.grid
        wave.sgprs[0] = wave.block.index[0]
        wave.sgprs[1] = wave.block.index[1]
        wave.sgprs[2] = bx
        wave.sgprs[3] = by
        wave.sgprs[4] = gx
        wave.sgprs[5] = gy
        # v0 / v1 are architectural VGPRs holding local ids: write them
        # through the register file so allocation-time state is visible
        # to the reliability analyses (they are genuinely stored there).
        flat = wave.lane_offset + np.arange(self.config.warp_size, dtype=np.uint32)
        lid_x = flat % np.uint32(bx)
        lid_y = flat // np.uint32(bx)
        valid = self.mask_to_bools(wave.valid_mask)
        self.regfile.write_row(wave.reg_base_row + 0, lid_x, valid,
                               wave.valid_mask, self.time)
        if self.program.registers_per_thread > 1:
            self.regfile.write_row(wave.reg_base_row + 1, lid_y, valid,
                                   wave.valid_mask, self.time)
        return wave

    def _execute(self, wave: SiWavefront, pc: int, inst, info, handler,
                 t_issue: int) -> int:
        self.scc = wave.scc
        eff_mask = self.eff_mask = wave.exec_mask & wave.valid_mask
        self.eff_bool = _mask_to_bools(eff_mask, self.warp_size)

        if eff_mask == 0 and not info.is_scalar:
            # Vector op with EXEC == 0: architecturally a no-op.
            wave.pc = pc + 1
            return 0

        effect = handler(self, inst)
        wave.scc = self.scc

        kind = effect.kind
        if kind == "none":
            wave.pc = pc + 1
        elif kind == "branch":
            wave.pc = effect.target
        elif kind == "exit":
            wave.finished = True
        elif kind == "barrier":
            wave.pc = pc + 1
            self._arrive_barrier(wave, t_issue)
        else:
            wave.pc = pc + 1
        return effect.extra_cycles

    # ------------------------------------------------------------------
    # Mask helpers
    # ------------------------------------------------------------------
    def mask_to_bools(self, mask: int) -> np.ndarray:
        return _mask_to_bools(mask, self.warp_size)

    def bools_to_mask(self, bools: np.ndarray) -> int:
        return _bools_to_mask(bools)

    # ------------------------------------------------------------------
    # Wavefront-context protocol (used by repro.isa.si.semantics)
    # ------------------------------------------------------------------
    def read_vreg(self, reg: VReg) -> np.ndarray:
        return self.regfile.read_row(self._warp.reg_base_row + reg.index,
                                     self.eff_mask, self._cycle)

    def write_vreg(self, reg: VReg, values: np.ndarray) -> None:
        self.regfile.write_row(self._warp.reg_base_row + reg.index, values,
                               self.eff_bool, self.eff_mask, self._cycle)

    # Operand classes are final dataclasses: the readers below dispatch
    # on the exact type.
    def read_vsrc(self, op) -> np.ndarray:
        kind = type(op)
        if kind is VReg:
            return self.read_vreg(op)
        if kind is SReg:
            return const_u32(self.warp_size, int(self._warp.sgprs[op.index]))
        if kind is Imm:
            return const_u32(self.warp_size, op.value)
        if kind is Param:
            return const_u32(self.warp_size, self.launch.param_word(op.index))
        raise IllegalInstruction(f"cannot read vector source {op!r}")

    def read_scalar32(self, op) -> int:
        kind = type(op)
        if kind is SReg:
            return int(self._warp.sgprs[op.index])
        if kind is Imm:
            return op.value
        if kind is Param:
            return self.launch.param_word(op.index)
        raise IllegalInstruction(f"cannot read scalar source {op!r}")

    def write_scalar32(self, op, value: int) -> None:
        if type(op) is SReg:
            self._warp.sgprs[op.index] = np.uint32(value & 0xFFFFFFFF)
            return
        raise IllegalInstruction(f"cannot write scalar destination {op!r}")

    def read_mask64(self, op) -> int:
        if type(op) is SpecialScalar:
            if op.name == "vcc":
                return self._warp.vcc
            if op.name == "exec":
                return self._warp.exec_mask
            if op.name == "scc":
                return int(self.scc)
        if type(op) is SRegPair:
            low = int(self._warp.sgprs[op.index])
            high = int(self._warp.sgprs[op.index + 1])
            return low | (high << 32)
        if type(op) is Imm:
            return op.value & _MASK64
        raise IllegalInstruction(f"cannot read 64-bit source {op!r}")

    def write_mask64(self, op, value: int) -> None:
        value &= _MASK64
        if type(op) is SpecialScalar:
            if op.name == "vcc":
                self._warp.vcc = value
                return
            if op.name == "exec":
                self._warp.exec_mask = value
                return
        if type(op) is SRegPair:
            self._warp.sgprs[op.index] = np.uint32(value & 0xFFFFFFFF)
            self._warp.sgprs[op.index + 1] = np.uint32(value >> 32)
            return
        raise IllegalInstruction(f"cannot write 64-bit destination {op!r}")
