"""AMD compute-unit model: Southern-Islands front-end on the core engine.

Implements the wavefront context protocol consumed by
:mod:`repro.isa.si.semantics`: SGPR/VCC/EXEC/SCC scalar state per
wavefront, EXEC-masked vector register access against the CU's VGPR
file (the fault-injection target), LDS and global memory access.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import IllegalInstruction
from repro.isa.base import Imm, Param, SReg, SRegPair, SpecialScalar, VReg
from repro.isa.si import semantics
from repro.isa.si.opcodes import SI_OPCODES
from repro.sim.core import CoreBase
from repro.sim.vector import bools_to_mask as _bools_to_mask
from repro.sim.vector import const_u32
from repro.sim.vector import mask_to_bools as _mask_to_bools
from repro.sim.warp import BlockState, SiWavefront
from repro.telemetry import profile as _profile

_MASK64 = (1 << 64) - 1


class SiCore(CoreBase):
    """One compute unit executing SI-like kernels."""

    OPCODES = SI_OPCODES

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wave: SiWavefront | None = None
        self.eff_bool: np.ndarray | None = None
        self.eff_mask: int = 0
        self._cycle: int = 0
        self.scc: bool = False  # mirrors the current wavefront during execute

    # ------------------------------------------------------------------
    # CoreBase hooks
    # ------------------------------------------------------------------
    def _populate_warps(self, block: BlockState) -> None:
        threads = self.launch.threads_per_block
        warp_size = self.config.warp_size
        rows_per_wave = self.footprint.reg_words_per_warp // warp_size
        num_waves = math.ceil(threads / warp_size)
        for slot in range(num_waves):
            lane_offset = slot * warp_size
            nlanes = min(warp_size, threads - lane_offset)
            wave = SiWavefront(
                wid=self.next_warp_id(),
                block=block,
                lane_offset=lane_offset,
                nlanes=nlanes,
                warp_size=warp_size,
                reg_base_row=block.reg_base_row + slot * rows_per_wave,
                num_sgprs=self.program.scalar_registers,
            )
            self._init_abi(wave)
            block.warps.append(wave)
        block.unfinished = num_waves

    def _init_abi(self, wave: SiWavefront) -> None:
        """Preload the launch ABI: s0..s5 geometry, v0/v1 local ids."""
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

    def _warp_from_state(self, state: dict, block: BlockState) -> SiWavefront:
        return SiWavefront.from_state(state, block, self.config.warp_size)

    def _execute(self, wave: SiWavefront, t_issue: int) -> int:
        pc = wave.pc
        decoded = self._decoded
        if not 0 <= pc < len(decoded):
            # Only reachable under fault injection (corrupted wave pc);
            # the campaign classifies the exception as DUE.
            raise IllegalInstruction(
                f"pc {pc} outside program 0..{len(decoded) - 1}"
            )
        inst, info, latency = decoded[pc]

        # Hot-path profiling hook: one global read + branch when off.
        prof = _profile.ACTIVE
        if prof is not None:
            prof.dispatch("si", info.latency_class,
                          bool(info.memory_space))

        self._wave = wave
        self.scc = wave.scc
        self.eff_mask = wave.exec_mask & wave.valid_mask
        self.eff_bool = _mask_to_bools(self.eff_mask, self.config.warp_size)
        self._cycle = t_issue

        if not info.is_scalar and self.eff_mask == 0:
            # Vector op with EXEC == 0: architecturally a no-op.
            wave.pc = pc + 1
            return latency

        effect = semantics.execute(self, inst)
        wave.scc = self.scc

        if effect.kind == "branch":
            wave.pc = effect.target
        elif effect.kind == "exit":
            wave.finished = True
        elif effect.kind == "barrier":
            wave.pc = pc + 1
            self._arrive_barrier(wave, t_issue)
        else:
            wave.pc = pc + 1
        return latency + effect.extra_cycles

    # ------------------------------------------------------------------
    # Mask helpers
    # ------------------------------------------------------------------
    def mask_to_bools(self, mask: int) -> np.ndarray:
        return _mask_to_bools(mask, self.config.warp_size)

    def bools_to_mask(self, bools: np.ndarray) -> int:
        return _bools_to_mask(bools)

    # ------------------------------------------------------------------
    # Wavefront-context protocol (used by repro.isa.si.semantics)
    # ------------------------------------------------------------------
    def resolve_label(self, ref) -> int:
        return self.program.resolve_label(ref)

    def read_vreg(self, reg: VReg) -> np.ndarray:
        row = self._wave.reg_base_row + reg.index
        return self.regfile.read_row(row, self.eff_mask, self._cycle)

    def write_vreg(self, reg: VReg, values: np.ndarray) -> None:
        row = self._wave.reg_base_row + reg.index
        self.regfile.write_row(
            row, values, self.eff_bool, self.eff_mask, self._cycle
        )

    def read_vsrc(self, op) -> np.ndarray:
        if isinstance(op, VReg):
            return self.read_vreg(op)
        if isinstance(op, SReg):
            return np.full(
                self.config.warp_size, self._wave.sgprs[op.index], dtype=np.uint32
            )
        if isinstance(op, Imm):
            return const_u32(self.config.warp_size, op.value)
        if isinstance(op, Param):
            return const_u32(self.config.warp_size,
                             self.launch.param_word(op.index))
        raise IllegalInstruction(f"cannot read vector source {op!r}")

    def read_scalar32(self, op) -> int:
        if isinstance(op, SReg):
            return int(self._wave.sgprs[op.index])
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, Param):
            return self.launch.param_word(op.index)
        raise IllegalInstruction(f"cannot read scalar source {op!r}")

    def write_scalar32(self, op, value: int) -> None:
        if isinstance(op, SReg):
            self._wave.sgprs[op.index] = np.uint32(value & 0xFFFFFFFF)
            return
        raise IllegalInstruction(f"cannot write scalar destination {op!r}")

    def read_mask64(self, op) -> int:
        if isinstance(op, SpecialScalar):
            if op.name == "vcc":
                return self._wave.vcc
            if op.name == "exec":
                return self._wave.exec_mask
            if op.name == "scc":
                return int(self.scc)
        if isinstance(op, SRegPair):
            low = int(self._wave.sgprs[op.index])
            high = int(self._wave.sgprs[op.index + 1])
            return low | (high << 32)
        if isinstance(op, Imm):
            return op.value & _MASK64
        raise IllegalInstruction(f"cannot read 64-bit source {op!r}")

    def write_mask64(self, op, value: int) -> None:
        value &= _MASK64
        if isinstance(op, SpecialScalar):
            if op.name == "vcc":
                self._wave.vcc = value
                return
            if op.name == "exec":
                self._wave.exec_mask = value
                return
        if isinstance(op, SRegPair):
            self._wave.sgprs[op.index] = np.uint32(value & 0xFFFFFFFF)
            self._wave.sgprs[op.index + 1] = np.uint32(value >> 32)
            return
        raise IllegalInstruction(f"cannot write 64-bit destination {op!r}")

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def global_load(self, addresses: np.ndarray):
        sel = self.eff_bool
        out = np.zeros(self.config.warp_size, dtype=np.uint32)
        selected = addresses[sel]
        out[sel] = self.gmem.load_words(selected)
        return out, self._coalescing_extra(selected)

    def global_store(self, addresses: np.ndarray, values: np.ndarray) -> int:
        sel = self.eff_bool
        selected = addresses[sel]
        self.gmem.store_words(selected, values[sel])
        return self._coalescing_extra(selected)

    def global_atomic_add(self, addresses: np.ndarray, values: np.ndarray):
        sel = self.eff_bool
        out = np.zeros(self.config.warp_size, dtype=np.uint32)
        selected = addresses[sel]
        out[sel] = self.gmem.atomic_add(selected, values[sel])
        return out, self._coalescing_extra(selected)

    def _lds_addrs(self, addresses: np.ndarray) -> np.ndarray:
        return addresses + self._wave.block.lmem_base

    def shared_load(self, addresses: np.ndarray) -> np.ndarray:
        sel = self.eff_bool
        out = np.zeros(self.config.warp_size, dtype=np.uint32)
        out[sel] = self.lmem.load(self._lds_addrs(addresses)[sel], self._cycle)
        return out

    def shared_store(self, addresses: np.ndarray, values: np.ndarray) -> None:
        sel = self.eff_bool
        self.lmem.store(self._lds_addrs(addresses)[sel], values[sel], self._cycle)

    def shared_atomic_add(self, addresses: np.ndarray, values: np.ndarray):
        sel = self.eff_bool
        out = np.zeros(self.config.warp_size, dtype=np.uint32)
        out[sel] = self.lmem.atomic_add(
            self._lds_addrs(addresses)[sel], values[sel], self._cycle
        )
        return out
