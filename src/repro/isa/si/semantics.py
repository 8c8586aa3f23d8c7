"""Execution semantics for the Southern-Islands-like ISA.

Scalar (``s_``) handlers run once per wavefront on Python integers
(SGPRs, SCC, and the 64-bit VCC/EXEC masks); vector (``v_``/``ds_``/
``global_``) handlers are vectorised across the 64 lanes with numpy
under EXEC masking. The context object is the CU model,
:class:`repro.sim.si_core.SiCore`; handlers return an
:class:`repro.isa.base.Effect`. The core looks each opcode's handler up
in :data:`HANDLERS` once, when it prepares a program.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.bits import to_signed, u32
from repro.errors import IllegalInstruction
from repro.isa.base import (EFFECT_NONE, EXEC, VCC, Effect, Imm, LabelRef,
                            VReg, as_f32, as_i32, as_u32, memory_effect)

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Scalar handlers
# ---------------------------------------------------------------------------


def _h_s_mov_b32(ctx, inst):
    ctx.write_scalar32(inst.operands[0], ctx.read_scalar32(inst.operands[1]))
    return EFFECT_NONE


_SALU32 = {
    "s_add_i32": lambda a, b: a + b,
    "s_sub_i32": lambda a, b: a - b,
    "s_mul_i32": lambda a, b: a * b,
    "s_and_b32": lambda a, b: a & b,
    "s_or_b32": lambda a, b: a | b,
    "s_xor_b32": lambda a, b: a ^ b,
    "s_lshl_b32": lambda a, b: a << (b & 31),
    "s_lshr_b32": lambda a, b: (a & 0xFFFFFFFF) >> (b & 31),
    "s_ashr_i32": lambda a, b: to_signed(a) >> (b & 31),
    "s_min_i32": lambda a, b: min(to_signed(a), to_signed(b)),
    "s_max_i32": lambda a, b: max(to_signed(a), to_signed(b)),
}


def _h_salu32(ctx, inst):
    a = ctx.read_scalar32(inst.operands[1])
    b = ctx.read_scalar32(inst.operands[2])
    ctx.write_scalar32(inst.operands[0], u32(_SALU32[inst.opcode](a, b)))
    return EFFECT_NONE


def _h_s_mov_b64(ctx, inst):
    ctx.write_mask64(inst.operands[0], ctx.read_mask64(inst.operands[1]))
    return EFFECT_NONE


_SALU64 = {
    "s_and_b64": lambda a, b: a & b,
    "s_or_b64": lambda a, b: a | b,
    "s_xor_b64": lambda a, b: a ^ b,
    "s_andn2_b64": lambda a, b: a & ~b,
}


def _h_salu64(ctx, inst):
    a = ctx.read_mask64(inst.operands[1])
    b = ctx.read_mask64(inst.operands[2])
    result = _SALU64[inst.opcode](a, b) & _MASK64
    ctx.write_mask64(inst.operands[0], result)
    ctx.scc = result != 0
    return EFFECT_NONE


def _h_s_not_b64(ctx, inst):
    result = ~ctx.read_mask64(inst.operands[1]) & _MASK64
    ctx.write_mask64(inst.operands[0], result)
    ctx.scc = result != 0
    return EFFECT_NONE


def _h_s_and_saveexec_b64(ctx, inst):
    old_exec = ctx.read_mask64(EXEC)
    ctx.write_mask64(inst.operands[0], old_exec)
    new_exec = old_exec & ctx.read_mask64(inst.operands[1])
    ctx.write_mask64(EXEC, new_exec)
    ctx.scc = new_exec != 0
    return EFFECT_NONE


#: The six comparisons; Python ints and numpy lane arrays alike.
_CMP = {"lt": operator.lt, "le": operator.le, "gt": operator.gt,
        "ge": operator.ge, "eq": operator.eq, "ne": operator.ne}


def _s_cmp(op: str, ty: str):
    """The ``s_cmp_<op>_<ty>`` handler: SCC = a <op> b."""
    compare, signed = _CMP[op], ty == "i32"

    def handler(ctx, inst):
        a = ctx.read_scalar32(inst.operands[0])
        b = ctx.read_scalar32(inst.operands[1])
        if signed:
            a, b = to_signed(a), to_signed(b)
        ctx.scc = compare(a, b)
        return EFFECT_NONE
    return handler


def _branch_target(ctx, inst) -> int:
    target_op = inst.operands[0]
    if not isinstance(target_op, LabelRef):
        raise IllegalInstruction(f"{inst.opcode} target must be a label")
    return ctx.resolve_label(target_op)


def _h_s_branch(ctx, inst):
    return Effect("branch", target=_branch_target(ctx, inst))


#: ``s_cbranch_<kind>``: whether the branch is taken.
_BRANCH_TAKEN = {
    "scc0": lambda ctx: not ctx.scc,
    "scc1": lambda ctx: ctx.scc,
    "vccz": lambda ctx: ctx.read_mask64(VCC) == 0,
    "vccnz": lambda ctx: ctx.read_mask64(VCC) != 0,
    "execz": lambda ctx: ctx.read_mask64(EXEC) == 0,
    "execnz": lambda ctx: ctx.read_mask64(EXEC) != 0,
}


def _s_cbranch(kind: str):
    """The ``s_cbranch_<kind>`` handler."""
    taken = _BRANCH_TAKEN[kind]

    def handler(ctx, inst):
        if taken(ctx):
            return Effect("branch", target=_branch_target(ctx, inst))
        return EFFECT_NONE
    return handler


def _h_s_barrier(ctx, inst):
    return Effect("barrier")


def _h_s_endpgm(ctx, inst):
    return Effect("exit")


def _h_s_nop(ctx, inst):
    return EFFECT_NONE


def _h_s_load_dword(ctx, inst):
    ctx.write_scalar32(inst.operands[0], ctx.read_scalar32(inst.operands[1]))
    return EFFECT_NONE


# ---------------------------------------------------------------------------
# Vector handlers
# ---------------------------------------------------------------------------


def _h_v_mov_b32(ctx, inst):
    ctx.write_vreg(inst.operands[0], ctx.read_vsrc(inst.operands[1]))
    return EFFECT_NONE


_VALU_INT = {
    "v_add_i32": lambda a, b: a + b,
    "v_sub_i32": lambda a, b: a - b,
    "v_mul_lo_i32": lambda a, b: a * b,
    "v_and_b32": lambda a, b: a & b,
    "v_or_b32": lambda a, b: a | b,
    "v_xor_b32": lambda a, b: a ^ b,
}


def _h_valu_int(ctx, inst):
    a = ctx.read_vsrc(inst.operands[1])
    b = ctx.read_vsrc(inst.operands[2])
    ctx.write_vreg(inst.operands[0], _VALU_INT[inst.opcode](a, b))
    return EFFECT_NONE


def _h_v_minmax_i32(ctx, inst):
    a = as_i32(ctx.read_vsrc(inst.operands[1]))
    b = as_i32(ctx.read_vsrc(inst.operands[2]))
    picked = np.maximum(a, b) if inst.opcode == "v_max_i32" else np.minimum(a, b)
    ctx.write_vreg(inst.operands[0], picked.view(np.uint32))
    return EFFECT_NONE


def _h_v_mad_i32(ctx, inst):
    a = ctx.read_vsrc(inst.operands[1])
    b = ctx.read_vsrc(inst.operands[2])
    c = ctx.read_vsrc(inst.operands[3])
    ctx.write_vreg(inst.operands[0], a * b + c)
    return EFFECT_NONE


def _h_v_shift(ctx, inst):
    amount = ctx.read_vsrc(inst.operands[1]) & np.uint32(31)
    value = ctx.read_vsrc(inst.operands[2])
    if inst.opcode == "v_lshlrev_b32":
        result = value << amount
    elif inst.opcode == "v_lshrrev_b32":
        result = value >> amount
    else:  # v_ashrrev_i32
        result = (as_i32(value) >> amount.astype(np.int32)).view(np.uint32)
    ctx.write_vreg(inst.operands[0], result)
    return EFFECT_NONE


_VALU_F32 = {
    "v_add_f32": lambda a, b: a + b,
    "v_sub_f32": lambda a, b: a - b,
    "v_mul_f32": lambda a, b: a * b,
    "v_min_f32": np.fmin,
    "v_max_f32": np.fmax,
}


def _h_valu_f32(ctx, inst):
    a = as_f32(ctx.read_vsrc(inst.operands[1]))
    b = as_f32(ctx.read_vsrc(inst.operands[2]))
    ctx.write_vreg(inst.operands[0], as_u32(_VALU_F32[inst.opcode](a, b)))
    return EFFECT_NONE


def _h_v_mac_f32(ctx, inst):
    dst = inst.operands[0]
    a = as_f32(ctx.read_vsrc(inst.operands[1]))
    b = as_f32(ctx.read_vsrc(inst.operands[2]))
    acc = as_f32(ctx.read_vsrc(dst))
    ctx.write_vreg(dst, as_u32(a * b + acc))
    return EFFECT_NONE


def _h_v_fma_f32(ctx, inst):
    a = as_f32(ctx.read_vsrc(inst.operands[1]))
    b = as_f32(ctx.read_vsrc(inst.operands[2]))
    c = as_f32(ctx.read_vsrc(inst.operands[3]))
    ctx.write_vreg(inst.operands[0], as_u32(a * b + c))
    return EFFECT_NONE


_VUNARY_F32 = {
    "v_rcp_f32": lambda a: np.float32(1.0) / a,
    "v_sqrt_f32": np.sqrt,
    "v_rsq_f32": lambda a: np.float32(1.0) / np.sqrt(a),
    "v_exp_f32": np.exp2,
    "v_log_f32": np.log2,
    "v_sin_f32": np.sin,
    "v_cos_f32": np.cos,
}


def _h_vunary_f32(ctx, inst):
    a = as_f32(ctx.read_vsrc(inst.operands[1]))
    with np.errstate(all="ignore"):
        result = _VUNARY_F32[inst.opcode](a).astype(np.float32)
    ctx.write_vreg(inst.operands[0], as_u32(result))
    return EFFECT_NONE


def _h_v_cvt(ctx, inst):
    a = ctx.read_vsrc(inst.operands[1])
    if inst.opcode == "v_cvt_f32_i32":
        result = as_u32(as_i32(a).astype(np.float32))
    elif inst.opcode == "v_cvt_f32_u32":
        result = as_u32(a.astype(np.float32))
    else:  # v_cvt_i32_f32 truncates
        with np.errstate(all="ignore"):
            staged = np.nan_to_num(
                np.trunc(as_f32(a)), nan=0.0,
                posinf=2 ** 31 - 1, neginf=-(2 ** 31),
            )
            result = np.clip(staged, -(2 ** 31), 2 ** 31 - 1) \
                .astype(np.int32).view(np.uint32)
    ctx.write_vreg(inst.operands[0], result)
    return EFFECT_NONE


def _h_v_cndmask_b32(ctx, inst):
    dst, src0, src1, mask_op = inst.operands
    mask = ctx.read_mask64(mask_op)
    select = ctx.mask_to_bools(mask)
    a = ctx.read_vsrc(src0)
    b = ctx.read_vsrc(src1)
    ctx.write_vreg(dst, np.where(select, b, a))
    return EFFECT_NONE


def _v_cmp(op: str, ty: str):
    """The ``v_cmp_<op>_<ty>`` handler: a lane mask of a <op> b."""
    compare, view = _CMP[op], {"f32": as_f32, "i32": as_i32}.get(ty)

    def handler(ctx, inst):
        a = ctx.read_vsrc(inst.operands[1])
        b = ctx.read_vsrc(inst.operands[2])
        if view is not None:
            a, b = view(a), view(b)
        mask = ctx.bools_to_mask(compare(a, b) & ctx.eff_bool)
        ctx.write_mask64(inst.operands[0], mask)
        return EFFECT_NONE
    return handler


# ---------------------------------------------------------------------------
# Memory handlers
# ---------------------------------------------------------------------------


def _mem_addrs(ctx, addr_op, offset_op) -> np.ndarray:
    base = ctx.read_vsrc(addr_op).astype(np.int64)
    if offset_op is not None:
        if not isinstance(offset_op, Imm):
            raise IllegalInstruction("memory offset must be an immediate")
        base = base + offset_op.value
    return base


def _h_ds_read(ctx, inst):
    dst = inst.operands[0]
    offset = inst.operands[2] if len(inst.operands) > 2 else None
    ctx.write_vreg(dst, ctx.shared_load(_mem_addrs(ctx, inst.operands[1], offset)))
    return EFFECT_NONE


def _h_ds_write(ctx, inst):
    offset = inst.operands[2] if len(inst.operands) > 2 else None
    # Offset, when present, is the third operand: ds_write_b32 vaddr, vsrc, off
    addrs = _mem_addrs(ctx, inst.operands[0], offset)
    ctx.shared_store(addrs, ctx.read_vsrc(inst.operands[1]))
    return EFFECT_NONE


def _h_ds_add(ctx, inst):
    offset = inst.operands[2] if len(inst.operands) > 2 else None
    addrs = _mem_addrs(ctx, inst.operands[0], offset)
    ctx.shared_atomic_add(addrs, ctx.read_vsrc(inst.operands[1]))
    return EFFECT_NONE


def _h_global_load(ctx, inst):
    dst = inst.operands[0]
    offset = inst.operands[2] if len(inst.operands) > 2 else None
    values, extra = ctx.global_load(_mem_addrs(ctx, inst.operands[1], offset))
    ctx.write_vreg(dst, values)
    return memory_effect(extra)


def _h_global_store(ctx, inst):
    offset = inst.operands[2] if len(inst.operands) > 2 else None
    addrs = _mem_addrs(ctx, inst.operands[0], offset)
    extra = ctx.global_store(addrs, ctx.read_vsrc(inst.operands[1]))
    return memory_effect(extra)


def _h_global_atomic_add(ctx, inst):
    dst, addr_op, src_op = inst.operands[0], inst.operands[1], inst.operands[2]
    addrs = _mem_addrs(ctx, addr_op, None)
    old, extra = ctx.global_atomic_add(addrs, ctx.read_vsrc(src_op))
    if isinstance(dst, VReg):
        ctx.write_vreg(dst, old)
    return memory_effect(extra)


# ---------------------------------------------------------------------------
# Dispatch table
# ---------------------------------------------------------------------------

HANDLERS: dict = {"s_mov_b32": _h_s_mov_b32, "s_mov_b64": _h_s_mov_b64}
for _name in _SALU32:
    HANDLERS[_name] = _h_salu32
for _name in _SALU64:
    HANDLERS[_name] = _h_salu64
HANDLERS.update({
    "s_not_b64": _h_s_not_b64,
    "s_and_saveexec_b64": _h_s_and_saveexec_b64,
    "s_branch": _h_s_branch,
    "s_barrier": _h_s_barrier,
    "s_endpgm": _h_s_endpgm,
    "s_nop": _h_s_nop,
    "s_waitcnt": _h_s_nop,
    "s_load_dword": _h_s_load_dword,
    "v_mov_b32": _h_v_mov_b32,
    "v_mad_i32": _h_v_mad_i32,
    "v_min_i32": _h_v_minmax_i32,
    "v_max_i32": _h_v_minmax_i32,
    "v_mac_f32": _h_v_mac_f32,
    "v_fma_f32": _h_v_fma_f32,
    "v_cndmask_b32": _h_v_cndmask_b32,
    "v_lshlrev_b32": _h_v_shift,
    "v_lshrrev_b32": _h_v_shift,
    "v_ashrrev_i32": _h_v_shift,
    "v_cvt_f32_i32": _h_v_cvt,
    "v_cvt_f32_u32": _h_v_cvt,
    "v_cvt_i32_f32": _h_v_cvt,
    "ds_read_b32": _h_ds_read,
    "ds_write_b32": _h_ds_write,
    "ds_add_u32": _h_ds_add,
    "global_load_dword": _h_global_load,
    "global_store_dword": _h_global_store,
    "global_atomic_add": _h_global_atomic_add,
})
for _name in _VALU_INT:
    HANDLERS[_name] = _h_valu_int
for _name in _VALU_F32:
    HANDLERS[_name] = _h_valu_f32
for _name in _VUNARY_F32:
    HANDLERS[_name] = _h_vunary_f32
for _op in _CMP:
    for _ty in ("i32", "u32"):
        HANDLERS[f"s_cmp_{_op}_{_ty}"] = _s_cmp(_op, _ty)
    for _ty in ("i32", "u32", "f32"):
        HANDLERS[f"v_cmp_{_op}_{_ty}"] = _v_cmp(_op, _ty)
for _kind in _BRANCH_TAKEN:
    HANDLERS[f"s_cbranch_{_kind}"] = _s_cbranch(_kind)

