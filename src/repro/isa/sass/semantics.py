"""Execution semantics for the SASS-like ISA.

Each handler interprets one warp-instruction, vectorised across the 32
lanes with numpy. Handlers receive a *context* object — the SM model,
:class:`repro.sim.sass_core.SassCore` — exposing masked register,
predicate and memory access, and return an
:class:`repro.isa.base.Effect` describing any control-flow consequence;
plain data instructions return ``EFFECT_NONE``. The core looks each
opcode's handler up in :data:`HANDLERS` once, when it prepares a
program.

All integer state is uint32 (wrap-around semantics); float operations
reinterpret the same words as IEEE-754 binary32 and compute in float32,
so results are bit-deterministic — a requirement for fault-injection
outcome classification, which compares outputs bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IllegalInstruction
from repro.isa.base import (EFFECT_NONE, Effect, LabelRef, MemRef, as_f32,
                            as_i32, as_u32, memory_effect)

_INT32_MIN = -(2 ** 31)
_INT32_MAX = 2 ** 31 - 1


def _cmp(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if kind == "LT":
        return a < b
    if kind == "LE":
        return a <= b
    if kind == "GT":
        return a > b
    if kind == "GE":
        return a >= b
    if kind == "EQ":
        return a == b
    if kind == "NE":
        return a != b
    raise IllegalInstruction(f"unknown comparison {kind!r}")


# ---------------------------------------------------------------------------
# Handlers. Signature: handler(ctx, inst) -> Effect
# ---------------------------------------------------------------------------


def _h_mov(ctx, inst):
    ctx.write_reg(inst.operands[0], ctx.read_operand(inst.operands[1]))
    return EFFECT_NONE


def _h_s2r(ctx, inst):
    ctx.write_reg(inst.operands[0], ctx.special(inst.operands[1].name))
    return EFFECT_NONE


def _h_sel(ctx, inst):
    dst, a_op, b_op, pred = inst.operands
    a = ctx.read_operand(a_op)
    b = ctx.read_operand(b_op)
    ctx.write_reg(dst, np.where(ctx.read_pred(pred), a, b))
    return EFFECT_NONE


def _h_iadd(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    b = ctx.read_operand(inst.operands[2])
    ctx.write_reg(inst.operands[0], a + b)
    return EFFECT_NONE


def _h_isub(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    b = ctx.read_operand(inst.operands[2])
    ctx.write_reg(inst.operands[0], a - b)
    return EFFECT_NONE


def _h_imul(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    b = ctx.read_operand(inst.operands[2])
    if inst.has_mod("HI"):
        wide = a.astype(np.uint64) * b.astype(np.uint64)
        result = (wide >> np.uint64(32)).astype(np.uint32)
    else:
        result = a * b
    ctx.write_reg(inst.operands[0], result)
    return EFFECT_NONE


def _h_imad(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    b = ctx.read_operand(inst.operands[2])
    c = ctx.read_operand(inst.operands[3])
    ctx.write_reg(inst.operands[0], a * b + c)
    return EFFECT_NONE


def _h_iscadd(ctx, inst):
    dst, a_op, b_op, shift_op = inst.operands
    a = ctx.read_operand(a_op)
    b = ctx.read_operand(b_op)
    shift = shift_op.value & 31
    ctx.write_reg(dst, (a << np.uint32(shift)) + b)
    return EFFECT_NONE


def _h_imnmx(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    b = ctx.read_operand(inst.operands[2])
    if not inst.has_mod("U32"):
        a_c, b_c = as_i32(a), as_i32(b)
    else:
        a_c, b_c = a, b
    picked = np.maximum(a_c, b_c) if inst.has_mod("MAX") else np.minimum(a_c, b_c)
    ctx.write_reg(inst.operands[0], picked.view(np.uint32))
    return EFFECT_NONE


def _h_shl(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    amount = ctx.read_operand(inst.operands[2]) & np.uint32(31)
    ctx.write_reg(inst.operands[0], a << amount)
    return EFFECT_NONE


def _h_shr(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    amount = ctx.read_operand(inst.operands[2]) & np.uint32(31)
    if inst.has_mod("S32"):
        result = (as_i32(a) >> amount.astype(np.int32)).view(np.uint32)
    else:
        result = a >> amount
    ctx.write_reg(inst.operands[0], result)
    return EFFECT_NONE


def _h_and(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    b = ctx.read_operand(inst.operands[2])
    ctx.write_reg(inst.operands[0], a & b)
    return EFFECT_NONE


def _h_or(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    b = ctx.read_operand(inst.operands[2])
    ctx.write_reg(inst.operands[0], a | b)
    return EFFECT_NONE


def _h_xor(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    b = ctx.read_operand(inst.operands[2])
    ctx.write_reg(inst.operands[0], a ^ b)
    return EFFECT_NONE


def _h_not(ctx, inst):
    ctx.write_reg(inst.operands[0], ~ctx.read_operand(inst.operands[1]))
    return EFFECT_NONE


def _h_fadd(ctx, inst):
    a = as_f32(ctx.read_operand(inst.operands[1]))
    b = as_f32(ctx.read_operand(inst.operands[2]))
    ctx.write_reg(inst.operands[0], as_u32(a + b))
    return EFFECT_NONE


def _h_fmul(ctx, inst):
    a = as_f32(ctx.read_operand(inst.operands[1]))
    b = as_f32(ctx.read_operand(inst.operands[2]))
    ctx.write_reg(inst.operands[0], as_u32(a * b))
    return EFFECT_NONE


def _h_ffma(ctx, inst):
    a = as_f32(ctx.read_operand(inst.operands[1]))
    b = as_f32(ctx.read_operand(inst.operands[2]))
    c = as_f32(ctx.read_operand(inst.operands[3]))
    ctx.write_reg(inst.operands[0], as_u32(a * b + c))
    return EFFECT_NONE


def _h_fmnmx(ctx, inst):
    a = as_f32(ctx.read_operand(inst.operands[1]))
    b = as_f32(ctx.read_operand(inst.operands[2]))
    picked = np.fmax(a, b) if inst.has_mod("MAX") else np.fmin(a, b)
    ctx.write_reg(inst.operands[0], as_u32(picked))
    return EFFECT_NONE


def _h_mufu(ctx, inst):
    a = as_f32(ctx.read_operand(inst.operands[1]))
    kind = inst.mods[0] if inst.mods else ""
    with np.errstate(all="ignore"):
        if kind == "RCP":
            result = np.float32(1.0) / a
        elif kind == "SQRT":
            result = np.sqrt(a)
        elif kind == "RSQ":
            result = np.float32(1.0) / np.sqrt(a)
        elif kind == "EX2":
            result = np.exp2(a)
        elif kind == "LG2":
            result = np.log2(a)
        elif kind == "SIN":
            result = np.sin(a)
        elif kind == "COS":
            result = np.cos(a)
        else:
            raise IllegalInstruction(f"MUFU needs a function modifier, got {inst}")
    ctx.write_reg(inst.operands[0], as_u32(result.astype(np.float32)))
    return EFFECT_NONE


def _h_f2i(ctx, inst):
    a = as_f32(ctx.read_operand(inst.operands[1]))
    with np.errstate(all="ignore"):
        staged = np.floor(a) if inst.has_mod("FLOOR") else np.trunc(a)
        staged = np.nan_to_num(staged, nan=0.0, posinf=_INT32_MAX, neginf=_INT32_MIN)
        clipped = np.clip(staged, _INT32_MIN, _INT32_MAX).astype(np.int32)
    ctx.write_reg(inst.operands[0], clipped.view(np.uint32))
    return EFFECT_NONE


def _h_i2f(ctx, inst):
    a = ctx.read_operand(inst.operands[1])
    source = a.astype(np.float32) if inst.has_mod("U32") else as_i32(a).astype(np.float32)
    ctx.write_reg(inst.operands[0], as_u32(source))
    return EFFECT_NONE


def _h_isetp(ctx, inst):
    pd, a_op, b_op = inst.operands[0], inst.operands[1], inst.operands[2]
    a = ctx.read_operand(a_op)
    b = ctx.read_operand(b_op)
    if not inst.has_mod("U32"):
        a, b = as_i32(a), as_i32(b)
    kind = inst.mods[0]
    result = _cmp(kind, a, b)
    if inst.has_mod("AND") and len(inst.operands) > 3:
        result = result & ctx.read_pred(inst.operands[3])
    ctx.write_pred(pd, result)
    return EFFECT_NONE


def _h_fsetp(ctx, inst):
    pd, a_op, b_op = inst.operands[0], inst.operands[1], inst.operands[2]
    a = as_f32(ctx.read_operand(a_op))
    b = as_f32(ctx.read_operand(b_op))
    result = _cmp(inst.mods[0], a, b)
    if inst.has_mod("AND") and len(inst.operands) > 3:
        result = result & ctx.read_pred(inst.operands[3])
    ctx.write_pred(pd, result)
    return EFFECT_NONE


def _addresses(ctx, ref: MemRef) -> np.ndarray:
    base = ctx.read_reg(ref.base)
    return base.astype(np.int64) + ref.offset


def _h_ldg(ctx, inst):
    dst, ref = inst.operands
    values, extra = ctx.global_load(_addresses(ctx, ref))
    ctx.write_reg(dst, values)
    return memory_effect(extra)


def _h_stg(ctx, inst):
    ref, src = inst.operands
    extra = ctx.global_store(_addresses(ctx, ref), ctx.read_reg(src))
    return memory_effect(extra)


def _h_lds(ctx, inst):
    dst, ref = inst.operands
    ctx.write_reg(dst, ctx.shared_load(_addresses(ctx, ref)))
    return EFFECT_NONE


def _h_sts(ctx, inst):
    ref, src = inst.operands
    ctx.shared_store(_addresses(ctx, ref), ctx.read_reg(src))
    return EFFECT_NONE


def _h_atoms(ctx, inst):
    dst, ref, src = inst.operands
    old = ctx.shared_atomic_add(_addresses(ctx, ref), ctx.read_reg(src))
    ctx.write_reg(dst, old)
    return EFFECT_NONE


def _h_atom(ctx, inst):
    dst, ref, src = inst.operands
    old, extra = ctx.global_atomic_add(_addresses(ctx, ref), ctx.read_reg(src))
    ctx.write_reg(dst, old)
    return memory_effect(extra)


def _h_bra(ctx, inst):
    target_op = inst.operands[0]
    if not isinstance(target_op, LabelRef):
        raise IllegalInstruction("BRA target must be a label")
    return Effect("branch", mask=ctx.eff_mask, target=ctx.resolve_label(target_op))


def _h_exit(ctx, inst):
    return Effect("exit", mask=ctx.eff_mask)


def _h_bar(ctx, inst):
    return Effect("barrier")


def _h_nop(ctx, inst):
    return EFFECT_NONE


HANDLERS = {
    "MOV": _h_mov,
    "MOV32I": _h_mov,
    "S2R": _h_s2r,
    "SEL": _h_sel,
    "IADD": _h_iadd,
    "ISUB": _h_isub,
    "IMUL": _h_imul,
    "IMAD": _h_imad,
    "ISCADD": _h_iscadd,
    "IMNMX": _h_imnmx,
    "SHL": _h_shl,
    "SHR": _h_shr,
    "AND": _h_and,
    "OR": _h_or,
    "XOR": _h_xor,
    "NOT": _h_not,
    "FADD": _h_fadd,
    "FMUL": _h_fmul,
    "FFMA": _h_ffma,
    "FMNMX": _h_fmnmx,
    "MUFU": _h_mufu,
    "F2I": _h_f2i,
    "I2F": _h_i2f,
    "ISETP": _h_isetp,
    "FSETP": _h_fsetp,
    "LDG": _h_ldg,
    "STG": _h_stg,
    "LDS": _h_lds,
    "STS": _h_sts,
    "ATOMS": _h_atoms,
    "ATOM": _h_atom,
    "BRA": _h_bra,
    "EXIT": _h_exit,
    "BAR": _h_bar,
    "NOP": _h_nop,
}

