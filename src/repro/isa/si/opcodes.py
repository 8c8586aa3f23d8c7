"""Southern-Islands-like opcode table.

Mnemonics follow AMD's GCN1 ISA manual (the level SIFI injects at),
restricted to the subset our ten benchmarks need. Scalar (``s_``)
instructions execute on the scalar unit once per wavefront; vector
(``v_``) instructions execute per lane under EXEC masking; ``ds_``
instructions access the LDS; ``global_`` instructions access device
memory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one SI opcode."""

    name: str
    latency_class: str      # alu | mul | sfu | shared | global | branch | barrier
    is_scalar: bool = False
    is_branch: bool = False
    is_barrier: bool = False
    is_exit: bool = False
    memory_space: str = ""  # "global" | "shared"


def _scalar(name, latency="alu", **kw):
    return OpInfo(name, latency, is_scalar=True, **kw)


def _vop(name, latency="alu", **kw):
    return OpInfo(name, latency, **kw)


_OPS = [
    # --- scalar moves / ALU (32-bit) ---
    _scalar("s_mov_b32"),
    _scalar("s_add_i32"),
    _scalar("s_sub_i32"),
    _scalar("s_mul_i32", "mul"),
    _scalar("s_and_b32"),
    _scalar("s_or_b32"),
    _scalar("s_xor_b32"),
    _scalar("s_lshl_b32"),
    _scalar("s_lshr_b32"),
    _scalar("s_ashr_i32"),
    _scalar("s_min_i32"),
    _scalar("s_max_i32"),
    # --- scalar 64-bit mask ops ---
    _scalar("s_mov_b64"),
    _scalar("s_and_b64"),
    _scalar("s_or_b64"),
    _scalar("s_xor_b64"),
    _scalar("s_andn2_b64"),
    _scalar("s_not_b64"),
    _scalar("s_and_saveexec_b64"),
    # --- scalar compares (write SCC) ---
    *[
        _scalar(f"s_cmp_{op}_{ty}")
        for op in ("lt", "le", "gt", "ge", "eq", "ne")
        for ty in ("i32", "u32")
    ],
    # --- scalar control flow ---
    _scalar("s_branch", "branch", is_branch=True),
    _scalar("s_cbranch_scc0", "branch", is_branch=True),
    _scalar("s_cbranch_scc1", "branch", is_branch=True),
    _scalar("s_cbranch_vccz", "branch", is_branch=True),
    _scalar("s_cbranch_vccnz", "branch", is_branch=True),
    _scalar("s_cbranch_execz", "branch", is_branch=True),
    _scalar("s_cbranch_execnz", "branch", is_branch=True),
    _scalar("s_barrier", "barrier", is_barrier=True),
    _scalar("s_endpgm", "branch", is_exit=True),
    _scalar("s_nop"),
    _scalar("s_waitcnt"),
    _scalar("s_load_dword"),        # kernel-argument load: s_load_dword sN, param[k]
    # --- vector moves / integer ALU ---
    _vop("v_mov_b32"),
    _vop("v_add_i32"),
    _vop("v_sub_i32"),
    _vop("v_mul_lo_i32", "mul"),
    _vop("v_mad_i32", "mul"),
    _vop("v_min_i32"),
    _vop("v_max_i32"),
    _vop("v_and_b32"),
    _vop("v_or_b32"),
    _vop("v_xor_b32"),
    _vop("v_lshlrev_b32"),
    _vop("v_lshrrev_b32"),
    _vop("v_ashrrev_i32"),
    # --- vector float ALU ---
    _vop("v_add_f32"),
    _vop("v_sub_f32"),
    _vop("v_mul_f32"),
    _vop("v_mac_f32", "mul"),
    _vop("v_fma_f32", "mul"),
    _vop("v_min_f32"),
    _vop("v_max_f32"),
    _vop("v_rcp_f32", "sfu"),
    _vop("v_sqrt_f32", "sfu"),
    _vop("v_rsq_f32", "sfu"),
    _vop("v_exp_f32", "sfu"),
    _vop("v_log_f32", "sfu"),
    _vop("v_sin_f32", "sfu"),
    _vop("v_cos_f32", "sfu"),
    _vop("v_cvt_f32_i32", "sfu"),
    _vop("v_cvt_f32_u32", "sfu"),
    _vop("v_cvt_i32_f32", "sfu"),
    _vop("v_cndmask_b32"),
    # --- vector compares ---
    *[
        _vop(f"v_cmp_{op}_{ty}")
        for op in ("lt", "le", "gt", "ge", "eq", "ne")
        for ty in ("i32", "u32", "f32")
    ],
    # --- LDS ---
    _vop("ds_read_b32", "shared", memory_space="shared"),
    _vop("ds_write_b32", "shared", memory_space="shared"),
    _vop("ds_add_u32", "shared", memory_space="shared"),
    # --- global memory ---
    _vop("global_load_dword", "global", memory_space="global"),
    _vop("global_store_dword", "global", memory_space="global"),
    _vop("global_atomic_add", "global", memory_space="global"),
]

SI_OPCODES: dict[str, OpInfo] = {op.name: op for op in _OPS}
