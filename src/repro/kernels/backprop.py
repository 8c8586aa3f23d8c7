"""backprop: neural-network layer-forward partial sums (Rodinia
"bpnn_layerforward_CUDA").

Grid of (1, in_n/16) blocks of 16x16 threads: tx indexes the 16 hidden
units, ty a 16-row chunk of input units. Each block stages its input
slice and weight tile in shared memory, multiplies, tree-reduces over
ty and emits one partial sum per (chunk, hidden unit); the host (here:
the numpy reference) sums partials and applies the sigmoid.
"""

from __future__ import annotations

from repro.kernels import common
from repro.kernels.workload import BufferSpec, Workload
from repro.sim.launch import LaunchConfig, pack_params

HID = 16
CHUNK = 16

SASS = """
.kernel backprop
.regs 20
.smem 1088
    S2R R0, SR_TID_X           # tx: hidden unit
    S2R R1, SR_TID_Y           # ty: input row within chunk
    S2R R2, SR_CTAID_Y         # by: input chunk
    SHL R3, R2, 4
    IADD R3, R3, R1            # idx: global input row
    ISETP.NE P0, R0, RZ
    SHL R4, R3, 2
    IADD R4, R4, c[0]
@!P0 LDG R5, [R4]              # input[idx], one lane per row
    SHL R6, R1, 2
@!P0 STS [R6], R5              # input_node[ty]
    SHL R7, R3, 4
    IADD R7, R7, R0            # idx*16 + tx
    SHL R8, R7, 2
    IADD R8, R8, c[1]
    LDG R9, [R8]               # w[idx][tx]
    SHL R10, R1, 4
    IADD R10, R10, R0
    SHL R10, R10, 2
    IADD R10, R10, 64          # weight_matrix[ty][tx] (after 64B inputs)
    STS [R10], R9
    BAR.SYNC
    LDS R11, [R6]              # input_node[ty]
    LDS R12, [R10]
    FMUL R12, R12, R11
    STS [R10], R12             # wm[ty][tx] *= input
    BAR.SYNC
    MOV32I R13, 8              # s
bp_loop:
    ISETP.LT P1, R1, R13
    SHL R14, R13, 6            # s * 16 regs * 4 bytes
    IADD R14, R14, R10
@P1 LDS R15, [R14]             # wm[ty+s][tx]
@P1 LDS R16, [R10]
@P1 FADD R16, R16, R15
@P1 STS [R10], R16
    BAR.SYNC
    SHR.U32 R13, R13, 1
    ISETP.GT P2, R13, RZ
@P2 BRA bp_loop
    ISETP.NE P3, R1, RZ
@P3 EXIT
    SHL R17, R0, 2
    IADD R17, R17, 64          # wm[0][tx]
    LDS R18, [R17]
    SHL R19, R2, 4
    IADD R19, R19, R0
    SHL R19, R19, 2
    IADD R19, R19, c[2]
    STG [R19], R18             # partial[by*16 + tx]
    EXIT
"""

SI = """
.kernel backprop
.vregs 14
.sregs 14
.lds 1088
    s_lshl_b32 s7, s1, 4       # by*16
    v_mov_b32 v2, s7
    v_add_i32 v2, v2, v1       # idx = by*16 + ty
    v_lshlrev_b32 v3, 2, v1    # input_node[ty] byte index
    v_cmp_eq_i32 vcc, v0, 0
    s_and_saveexec_b64 s[8:9], vcc
    s_cbranch_execz in_done
    v_lshlrev_b32 v4, 2, v2
    s_load_dword s6, param[0]
    v_add_i32 v4, v4, s6
    global_load_dword v5, v4       # input[idx]
    ds_write_b32 v3, v5            # input_node[ty]
in_done:
    s_mov_b64 exec, s[8:9]
    v_lshlrev_b32 v6, 4, v2
    v_add_i32 v6, v6, v0           # idx*16 + tx
    v_lshlrev_b32 v6, 2, v6
    s_load_dword s6, param[1]
    v_add_i32 v6, v6, s6
    global_load_dword v7, v6       # w[idx][tx]
    v_lshlrev_b32 v8, 4, v1
    v_add_i32 v8, v8, v0
    v_lshlrev_b32 v8, 2, v8
    v_add_i32 v8, v8, 64           # weight_matrix[ty][tx]
    ds_write_b32 v8, v7
    s_barrier
    ds_read_b32 v9, v3             # input_node[ty]
    ds_read_b32 v10, v8
    v_mul_f32 v10, v10, v9
    ds_write_b32 v8, v10
    s_barrier
    s_mov_b32 s10, 8               # s
bp_loop:
    v_cmp_lt_i32 vcc, v1, s10
    s_and_saveexec_b64 s[8:9], vcc
    s_cbranch_execz bp_skip
    s_lshl_b32 s11, s10, 6
    v_add_i32 v11, v8, s11         # wm[ty+s][tx]
    ds_read_b32 v12, v11
    ds_read_b32 v10, v8
    v_add_f32 v10, v10, v12
    ds_write_b32 v8, v10
bp_skip:
    s_mov_b64 exec, s[8:9]
    s_barrier
    s_lshr_b32 s10, s10, 1
    s_cmp_gt_i32 s10, 0
    s_cbranch_scc1 bp_loop
    v_cmp_eq_i32 vcc, v1, 0
    s_and_saveexec_b64 s[8:9], vcc
    s_cbranch_execz done
    v_lshlrev_b32 v11, 2, v0
    v_add_i32 v11, v11, 64         # wm[0][tx]
    ds_read_b32 v12, v11
    s_lshl_b32 s11, s1, 4
    v_mov_b32 v13, s11
    v_add_i32 v13, v13, v0
    v_lshlrev_b32 v13, 2, v13
    s_load_dword s6, param[2]
    v_add_i32 v13, v13, s6
    global_store_dword v13, v12    # partial[by*16 + tx]
done:
    s_endpgm
"""

_IN_SIZES = {"tiny": 64, "small": 256, "default": 512}


def build(scale: str = "default") -> Workload:
    in_n = _IN_SIZES[scale]
    chunks = in_n // CHUNK
    rng = common.rng_for("backprop")
    inputs = common.uniform_f32(rng, in_n)
    weights = common.uniform_f32(rng, (in_n, HID))

    def make_launches(isa: str, bases: dict) -> list:
        params = pack_params(bases["input"], bases["weights"], bases["partial"])
        return [
            LaunchConfig(
                program=programs[isa],
                grid=(1, chunks),
                block=(HID, CHUNK),
                params=params,
            )
        ]

    def reference() -> dict:
        # Mirror the kernel's tree-reduction order in float32:
        # partial[chunk][tx] = tree-sum over ty of w[idx][tx]*input[idx].
        products = weights * inputs[:, None]           # f32 (in_n, HID)
        tiles = products.reshape(chunks, CHUNK, HID)
        stride = CHUNK // 2
        acc = tiles.copy()
        while stride:
            acc[:, :stride, :] += acc[:, stride:2 * stride, :]
            stride //= 2
        return {"partial": acc[:, 0, :].reshape(-1)}

    programs = common.assemble_pair(SASS, SI)
    return Workload(
        name="backprop",
        programs=programs,
        buffers=[
            BufferSpec("input", data=inputs),
            BufferSpec("weights", data=weights),
            BufferSpec("partial", nbytes=chunks * HID * 4),
        ],
        make_launches=make_launches,
        output_buffers=["partial"],
        reference=reference,
        output_dtypes={"partial": "f32"},
        description=(
            f"layer-forward partial sums, {in_n} inputs x {HID} hidden units"
        ),
        uses_local_memory=True,
    )
