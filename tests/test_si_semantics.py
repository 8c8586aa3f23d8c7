"""SI execution semantics, tested by running one-wavefront kernels."""

import numpy as np

from tests.conftest import run_si


def run1(body: str, n_out: int = 64, vregs: int = 16, sregs: int = 16,
         lds: int = 0, extra_buffers: dict | None = None,
         params: list | None = None, block=(64,)):
    """Run a 1-wavefront kernel; v15 is stored to out[tid] at the end."""
    source = f"""
.kernel t
.vregs {vregs}
.sregs {sregs}
.lds {lds}
{body}
    v_lshlrev_b32 v14, 2, v0
    s_load_dword s15, param[0]
    v_add_i32 v14, v14, s15
    global_store_dword v14, v15
    s_endpgm
"""
    buffers = {"out": n_out * 4}
    if extra_buffers:
        buffers.update(extra_buffers)
    gpu, snap = run_si(source, buffers, ["out"] + (params or []), block=block)
    return snap["out"]


def lanes(n=64):
    return np.arange(n, dtype=np.uint32)


class TestScalarAlu:
    def test_s_mov_and_broadcast(self):
        out = run1("s_mov_b32 s6, 42\nv_mov_b32 v15, s6")
        assert (out == 42).all()

    def test_s_add_sub_mul(self):
        out = run1("s_mov_b32 s6, 7\ns_add_i32 s6, s6, 5\nv_mov_b32 v15, s6")
        assert (out == 12).all()
        out = run1("s_mov_b32 s6, 7\ns_sub_i32 s6, s6, 9\nv_mov_b32 v15, s6")
        assert (out == 0xFFFFFFFE).all()
        out = run1("s_mov_b32 s6, 7\ns_mul_i32 s6, s6, 6\nv_mov_b32 v15, s6")
        assert (out == 42).all()

    def test_s_shifts(self):
        out = run1("s_mov_b32 s6, 1\ns_lshl_b32 s6, s6, 5\nv_mov_b32 v15, s6")
        assert (out == 32).all()
        out = run1("s_mov_b32 s6, 0x80000000\ns_lshr_b32 s6, s6, 31\nv_mov_b32 v15, s6")
        assert (out == 1).all()
        out = run1("s_mov_b32 s6, 0x80000000\ns_ashr_i32 s6, s6, 31\nv_mov_b32 v15, s6")
        assert (out == 0xFFFFFFFF).all()

    def test_s_minmax(self):
        out = run1("s_mov_b32 s6, -5\ns_min_i32 s6, s6, 3\nv_mov_b32 v15, s6")
        assert (out == 0xFFFFFFFB).all()

    def test_s_logic(self):
        out = run1("s_mov_b32 s6, 0xF0\ns_and_b32 s6, s6, 0x3C\nv_mov_b32 v15, s6")
        assert (out == 0x30).all()

    def test_abi_sgprs(self):
        # s2 = workgroup dim x.
        out = run1("v_mov_b32 v15, s2")
        assert (out == 64).all()

    def test_s_load_dword_param(self):
        out = run1("s_load_dword s6, param[1]\nv_mov_b32 v15, s6",
                   params=[1234])
        assert (out == 1234).all()


class TestVectorAlu:
    def test_v_add_i32(self):
        out = run1("v_mov_b32 v1, 5\nv_add_i32 v15, v0, v1")
        assert np.array_equal(out, lanes() + 5)

    def test_v_sub_i32(self):
        out = run1("v_mov_b32 v1, 100\nv_sub_i32 v15, v1, v0")
        assert np.array_equal(out, 100 - lanes())

    def test_v_mul_lo(self):
        out = run1("v_mul_lo_i32 v15, v0, v0")
        assert np.array_equal(out, lanes() * lanes())

    def test_v_mad(self):
        out = run1("v_mov_b32 v1, 3\nv_mad_i32 v15, v0, v1, v1")
        assert np.array_equal(out, lanes() * 3 + 3)

    def test_reversed_shifts(self):
        out = run1("v_mov_b32 v1, 1\nv_lshlrev_b32 v15, v0, v1")
        assert np.array_equal(out, np.left_shift(np.uint32(1), lanes() & 31))
        out = run1("v_mov_b32 v1, 0x80000000\nv_lshrrev_b32 v15, 31, v1")
        assert (out == 1).all()
        out = run1("v_mov_b32 v1, 0x80000000\nv_ashrrev_i32 v15, 31, v1")
        assert (out == 0xFFFFFFFF).all()

    def test_v_minmax_i32(self):
        out = run1("v_mov_b32 v1, -2\nv_min_i32 v15, v0, v1")
        assert (out == 0xFFFFFFFE).all()
        out = run1("v_mov_b32 v1, 31\nv_max_i32 v15, v0, v1").view(np.int32)
        assert np.array_equal(out, np.maximum(lanes().astype(np.int32), 31))

    def test_float_ops(self):
        out = run1("v_mov_b32 v1, 1.5\nv_mov_b32 v2, 2.0\nv_add_f32 v15, v1, v2")
        assert (out.view(np.float32) == 3.5).all()
        out = run1("v_mov_b32 v1, 1.5\nv_mov_b32 v2, 2.0\nv_mul_f32 v15, v1, v2")
        assert (out.view(np.float32) == 3.0).all()
        out = run1("v_mov_b32 v1, 5.0\nv_mov_b32 v2, 2.0\nv_sub_f32 v15, v1, v2")
        assert (out.view(np.float32) == 3.0).all()

    def test_v_mac_accumulates(self):
        out = run1(
            "v_mov_b32 v15, 1.0\nv_mov_b32 v1, 2.0\nv_mov_b32 v2, 3.0\n"
            "v_mac_f32 v15, v1, v2"
        )
        assert (out.view(np.float32) == 7.0).all()

    def test_v_fma(self):
        out = run1(
            "v_mov_b32 v1, 2.0\nv_mov_b32 v2, 3.0\nv_mov_b32 v3, 10.0\n"
            "v_fma_f32 v15, v1, v2, v3"
        )
        assert (out.view(np.float32) == 16.0).all()

    def test_unary_float(self):
        out = run1("v_mov_b32 v1, 4.0\nv_rcp_f32 v15, v1")
        assert (out.view(np.float32) == 0.25).all()
        out = run1("v_mov_b32 v1, 9.0\nv_sqrt_f32 v15, v1")
        assert (out.view(np.float32) == 3.0).all()
        out = run1("v_mov_b32 v1, 3.0\nv_exp_f32 v15, v1")
        assert (out.view(np.float32) == 8.0).all()

    def test_conversions(self):
        out = run1("v_cvt_f32_i32 v15, v0")
        assert np.array_equal(out.view(np.float32), lanes().astype(np.float32))
        out = run1("v_mov_b32 v1, -2.7\nv_cvt_i32_f32 v15, v1").view(np.int32)
        assert (out == -2).all()


class TestMasksAndCndmask:
    def test_v_cmp_writes_vcc(self):
        out = run1(
            "v_mov_b32 v1, 32\nv_cmp_lt_i32 vcc, v0, v1\n"
            "v_mov_b32 v2, 7\nv_mov_b32 v3, 9\nv_cndmask_b32 v15, v2, v3, vcc"
        )
        assert (out[:32] == 9).all() and (out[32:] == 7).all()

    def test_v_cmp_to_sreg_pair(self):
        out = run1(
            "v_mov_b32 v1, 16\nv_cmp_ge_u32 s[8:9], v0, v1\n"
            "v_mov_b32 v2, 1\nv_mov_b32 v3, 2\nv_cndmask_b32 v15, v2, v3, s[8:9]"
        )
        assert (out[:16] == 1).all() and (out[16:] == 2).all()

    def test_v_cmp_f32(self):
        out = run1(
            "v_cvt_f32_i32 v1, v0\nv_mov_b32 v2, 31.5\n"
            "v_cmp_gt_f32 vcc, v1, v2\n"
            "v_mov_b32 v3, 0\nv_mov_b32 v4, 1\nv_cndmask_b32 v15, v3, v4, vcc"
        )
        assert out.sum() == 32  # lanes 32..63

    def test_saveexec_divergence(self):
        out = run1(
            "v_mov_b32 v15, 100\n"
            "v_mov_b32 v1, 10\n"
            "v_cmp_lt_i32 vcc, v0, v1\n"
            "s_and_saveexec_b64 s[8:9], vcc\n"
            "s_cbranch_execz skip\n"
            "v_mov_b32 v15, 200\n"
            "skip:\n"
            "s_mov_b64 exec, s[8:9]"
        )
        assert (out[:10] == 200).all() and (out[10:] == 100).all()

    def test_execz_branch_taken_when_empty(self):
        out = run1(
            "v_mov_b32 v15, 1\n"
            "v_mov_b32 v1, 100\n"
            "v_cmp_gt_i32 vcc, v0, v1\n"       # no lane: tid > 100
            "s_and_saveexec_b64 s[8:9], vcc\n"
            "s_cbranch_execz skip\n"
            "v_mov_b32 v15, 2\n"
            "skip:\n"
            "s_mov_b64 exec, s[8:9]"
        )
        assert (out == 1).all()

    def test_mask_logic_64(self):
        out = run1(
            "s_mov_b64 s[8:9], 0xFF\n"
            "s_not_b64 s[10:11], s[8:9]\n"
            "s_and_b64 s[8:9], s[10:11], exec\n"
            "v_mov_b32 v1, 5\nv_mov_b32 v2, 6\n"
            "v_cndmask_b32 v15, v1, v2, s[8:9]"
        )
        assert (out[:8] == 5).all() and (out[8:] == 6).all()

    def test_scalar_loop(self):
        out = run1(
            "s_mov_b32 s6, 0\ns_mov_b32 s7, 0\n"
            "loop:\n"
            "s_add_i32 s6, s6, 3\ns_add_i32 s7, s7, 1\n"
            "s_cmp_lt_i32 s7, 4\ns_cbranch_scc1 loop\n"
            "v_mov_b32 v15, s6"
        )
        assert (out == 12).all()


class TestSiMemory:
    def test_global_roundtrip(self):
        data = np.arange(200, 264, dtype=np.uint32)
        out = run1(
            "v_lshlrev_b32 v1, 2, v0\ns_load_dword s6, param[1]\n"
            "v_add_i32 v1, v1, s6\nglobal_load_dword v15, v1",
            extra_buffers={"in": data}, params=["in"],
        )
        assert np.array_equal(out, data)

    def test_global_offset(self):
        data = np.arange(128, dtype=np.uint32)
        out = run1(
            "v_lshlrev_b32 v1, 2, v0\ns_load_dword s6, param[1]\n"
            "v_add_i32 v1, v1, s6\nglobal_load_dword v15, v1, 16",
            extra_buffers={"in": data}, params=["in"],
        )
        assert np.array_equal(out, data[4:68])

    def test_lds_roundtrip(self):
        out = run1(
            "v_lshlrev_b32 v1, 2, v0\nv_mul_lo_i32 v2, v0, 7\n"
            "ds_write_b32 v1, v2\nds_read_b32 v15, v1",
            lds=512,
        )
        assert np.array_equal(out, lanes() * 7)

    def test_lds_offset_write_read(self):
        out = run1(
            "v_lshlrev_b32 v1, 2, v0\nv_mov_b32 v2, 11\n"
            "ds_write_b32 v1, v2, 256\nds_read_b32 v15, v1, 256",
            lds=1024,
        )
        assert (out == 11).all()

    def test_ds_add_atomic(self):
        out = run1(
            "v_mov_b32 v1, 0\nv_mov_b32 v2, 1\n"
            "ds_add_u32 v1, v2\ns_barrier\nds_read_b32 v15, v1",
            lds=128,
        )
        assert (out == 64).all()

    def test_global_atomic_add(self):
        out = run1(
            "s_load_dword s6, param[1]\nv_mov_b32 v1, s6\nv_mov_b32 v2, 1\n"
            "global_atomic_add v15, v1, v2",
            extra_buffers={"acc": 4}, params=["acc"],
        )
        assert sorted(out.tolist()) == list(range(64))

    def test_partial_wavefront(self):
        out = run1("v_mov_b32 v15, 9", block=(40,))
        assert (out[:40] == 9).all() and (out[40:] == 0).all()
