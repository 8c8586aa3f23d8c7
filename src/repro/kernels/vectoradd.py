"""vectoradd: c[i] = a[i] + b[i] (CUDA SDK / AMD APP SDK "VectorAdd").

The simplest benchmark of the suite: one float per thread, no local
memory (so it appears in the paper's Fig. 1 / Fig. 3 but not Fig. 2),
minimal register footprint.
"""

from __future__ import annotations

from repro.kernels import common
from repro.kernels.workload import BufferSpec, Workload
from repro.sim.launch import LaunchConfig, pack_params

SASS = """
.kernel vectoradd
.regs 8
.smem 0
    S2R R0, SR_TID_X
    S2R R1, SR_CTAID_X
    S2R R2, SR_NTID_X
    IMAD R3, R1, R2, R0          # gid = ctaid * ntid + tid
    ISETP.GE P0, R3, c[0]        # gid >= N ?
@P0 EXIT
    SHL R4, R3, 2                # byte offset
    IADD R5, R4, c[1]
    LDG R6, [R5]                 # a[gid]
    IADD R5, R4, c[2]
    LDG R7, [R5]                 # b[gid]
    FADD R6, R6, R7
    IADD R5, R4, c[3]
    STG [R5], R6                 # c[gid]
    EXIT
"""

SI = """
.kernel vectoradd
.vregs 6
.sregs 12
.lds 0
    s_load_dword s6, param[0]    # N
    s_mul_i32 s10, s0, s2        # wg_id_x * wg_dim_x
    v_mov_b32 v1, s10
    v_add_i32 v1, v1, v0         # gid
    v_cmp_lt_i32 vcc, v1, s6
    s_and_saveexec_b64 s[8:9], vcc
    s_cbranch_execz done
    v_lshlrev_b32 v2, 2, v1      # byte offset
    s_load_dword s7, param[1]
    v_add_i32 v3, v2, s7
    global_load_dword v4, v3     # a[gid]
    s_load_dword s7, param[2]
    v_add_i32 v3, v2, s7
    global_load_dword v5, v3     # b[gid]
    v_add_f32 v4, v4, v5
    s_load_dword s7, param[3]
    v_add_i32 v3, v2, s7
    global_store_dword v3, v4    # c[gid]
done:
    s_endpgm
"""

_SIZES = {"tiny": 512, "small": 4096, "default": 16384}
_BLOCK = 128


def build(scale: str = "default") -> Workload:
    n = _SIZES[scale]
    rng = common.rng_for("vectoradd")
    a = common.uniform_f32(rng, n)
    b = common.uniform_f32(rng, n)

    def make_launches(isa: str, bases: dict) -> list:
        params = pack_params(n, bases["a"], bases["b"], bases["c"])
        program = programs[isa]
        return [
            LaunchConfig(
                program=program,
                grid=(common.blocks_for(n, _BLOCK),),
                block=(_BLOCK,),
                params=params,
            )
        ]

    def reference() -> dict:
        return {"c": a + b}

    programs = common.assemble_pair(SASS, SI)
    return Workload(
        name="vectoradd",
        programs=programs,
        buffers=[
            BufferSpec("a", data=a),
            BufferSpec("b", data=b),
            BufferSpec("c", nbytes=n * 4),
        ],
        make_launches=make_launches,
        output_buffers=["c"],
        reference=reference,
        output_dtypes={"c": "f32"},
        description=f"element-wise float vector add, N={n}",
        uses_local_memory=False,
    )
