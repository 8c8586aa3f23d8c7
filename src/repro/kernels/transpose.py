"""transpose: tiled matrix transpose with padded shared tiles (CUDA SDK).

out[j][i] = in[i][j] staged through a 16x17 shared tile (the padding
column avoids bank conflicts on real hardware; we keep it for layout
fidelity — it also makes the local-memory occupancy non-power-of-two,
a useful test of the allocator).
"""

from __future__ import annotations

from repro.kernels import common
from repro.kernels.workload import BufferSpec, Workload
from repro.sim.launch import LaunchConfig, pack_params

TILE = 16
PITCH = 17

SASS = """
.kernel transpose
.regs 15
.smem 1088
    S2R R0, SR_TID_X
    S2R R1, SR_TID_Y
    S2R R2, SR_CTAID_X
    S2R R3, SR_CTAID_Y
    MOV R4, c[0]              # N
    SHL R5, R2, 4
    IADD R5, R5, R0           # x = bx*16 + tx
    SHL R6, R3, 4
    IADD R6, R6, R1           # y = by*16 + ty
    IMAD R7, R6, R4, R5       # y*N + x
    SHL R7, R7, 2
    IADD R7, R7, c[1]
    LDG R8, [R7]
    IMUL R9, R1, 17           # tile[ty][tx] (pitch 17)
    IADD R9, R9, R0
    SHL R9, R9, 2
    STS [R9], R8
    BAR.SYNC
    SHL R10, R3, 4
    IADD R10, R10, R0         # xOut = by*16 + tx
    SHL R11, R2, 4
    IADD R11, R11, R1         # yOut = bx*16 + ty
    IMAD R12, R11, R4, R10
    SHL R12, R12, 2
    IADD R12, R12, c[2]
    IMUL R13, R0, 17          # tile[tx][ty]
    IADD R13, R13, R1
    SHL R13, R13, 2
    LDS R14, [R13]
    STG [R12], R14
    EXIT
"""

SI = """
.kernel transpose
.vregs 12
.sregs 12
.lds 1088
    s_load_dword s6, param[0]     # N
    s_lshl_b32 s8, s0, 4
    v_mov_b32 v2, s8
    v_add_i32 v2, v2, v0          # x
    s_lshl_b32 s9, s1, 4
    v_mov_b32 v3, s9
    v_add_i32 v3, v3, v1          # y
    v_mad_i32 v4, v3, s6, v2      # y*N + x
    v_lshlrev_b32 v4, 2, v4
    s_load_dword s7, param[1]
    v_add_i32 v4, v4, s7
    global_load_dword v5, v4
    v_mul_lo_i32 v6, v1, 17       # tile[ty][tx]
    v_add_i32 v6, v6, v0
    v_lshlrev_b32 v6, 2, v6
    ds_write_b32 v6, v5
    s_barrier
    v_mov_b32 v7, s9
    v_add_i32 v7, v7, v0          # xOut = by*16 + tx
    v_mov_b32 v8, s8
    v_add_i32 v8, v8, v1          # yOut = bx*16 + ty
    v_mad_i32 v9, v8, s6, v7
    v_lshlrev_b32 v9, 2, v9
    s_load_dword s7, param[2]
    v_add_i32 v9, v9, s7
    v_mul_lo_i32 v10, v0, 17      # tile[tx][ty]
    v_add_i32 v10, v10, v1
    v_lshlrev_b32 v10, 2, v10
    ds_read_b32 v11, v10
    global_store_dword v9, v11
    s_endpgm
"""

_SIZES = {"tiny": 32, "small": 64, "default": 128}


def build(scale: str = "default") -> Workload:
    n = _SIZES[scale]
    rng = common.rng_for("transpose")
    a = common.uniform_f32(rng, (n, n))

    def make_launches(isa: str, bases: dict) -> list:
        params = pack_params(n, bases["in"], bases["out"])
        return [
            LaunchConfig(
                program=programs[isa],
                grid=(n // TILE, n // TILE),
                block=(TILE, TILE),
                params=params,
            )
        ]

    def reference() -> dict:
        return {"out": a.T.copy()}

    programs = common.assemble_pair(SASS, SI)
    # Shared tile uses the padded pitch (17 columns of the 16 rows).
    assert PITCH * TILE * 4 == 1088

    return Workload(
        name="transpose",
        programs=programs,
        buffers=[
            BufferSpec("in", data=a),
            BufferSpec("out", nbytes=n * n * 4),
        ],
        make_launches=make_launches,
        output_buffers=["out"],
        reference=reference,
        output_dtypes={"out": "f32"},
        description=f"tiled {n}x{n} transpose via padded 16x17 shared tile",
        uses_local_memory=True,
    )
