"""SASS execution semantics, tested by running one-warp kernels.

Each test assembles a small kernel whose lanes compute values into an
output buffer, runs it on the mini NVIDIA chip, and checks the stored
words — covering every opcode the benchmark suite relies on.
"""

import numpy as np

from repro.bits import float_to_bits
from tests.conftest import run_sass


def run1(body: str, n_out: int = 32, regs: int = 24, smem: int = 0,
         extra_buffers: dict | None = None, params: list | None = None,
         block=(32,)):
    """Run a 1-warp kernel writing out[tid] and return out as u32."""
    source = f"""
.kernel t
.regs {regs}
.smem {smem}
    S2R R20, SR_TID_X
    SHL R21, R20, 2
    IADD R21, R21, c[0]
{body}
    STG [R21], R0
    EXIT
"""
    buffers = {"out": n_out * 4}
    if extra_buffers:
        buffers.update(extra_buffers)
    gpu, snap = run_sass(source, buffers, ["out"] + (params or []), block=block)
    return snap["out"]


def lanes(n=32):
    return np.arange(n, dtype=np.uint32)


class TestMovesAndSpecials:
    def test_mov_imm(self):
        assert (run1("MOV R0, 7") == 7).all()

    def test_mov32i_float(self):
        assert (run1("MOV32I R0, 1.5") == float_to_bits(1.5)).all()

    def test_mov_rz(self):
        assert (run1("MOV R0, RZ") == 0).all()

    def test_s2r_tid(self):
        assert np.array_equal(run1("S2R R0, SR_TID_X"), lanes())

    def test_s2r_laneid(self):
        assert np.array_equal(run1("S2R R0, SR_LANEID"), lanes())

    def test_s2r_ntid(self):
        assert (run1("S2R R0, SR_NTID_X") == 32).all()

    def test_s2r_2d(self):
        # Store tid_y at the flat index tid_y*8 + tid_x.
        source = """
.kernel t
.regs 8
.smem 0
    S2R R0, SR_TID_X
    S2R R1, SR_TID_Y
    S2R R2, SR_NTID_X
    IMAD R3, R1, R2, R0
    SHL R3, R3, 2
    IADD R3, R3, c[0]
    STG [R3], R1
    EXIT
"""
        gpu, snap = run_sass(source, {"out": 32 * 4}, ["out"], block=(8, 4))
        assert np.array_equal(snap["out"], lanes() // 8)

    def test_sel(self):
        out = run1(
            "S2R R1, SR_TID_X\nISETP.LT P0, R1, 16\n"
            "SEL R0, 111, 222, P0"
        )
        assert (out[:16] == 111).all() and (out[16:] == 222).all()


class TestIntegerAlu:
    def test_iadd_wraps(self):
        out = run1("MOV32I R1, 0xFFFFFFFF\nIADD R0, R1, 2")
        assert (out == 1).all()

    def test_isub(self):
        assert (run1("MOV R1, 5\nISUB R0, R1, 9") == 0xFFFFFFFC).all()

    def test_imul_low(self):
        out = run1("MOV32I R1, 0x10001\nIMUL R0, R1, 0x10001")
        assert (out == ((0x10001 * 0x10001) & 0xFFFFFFFF)).all()

    def test_imul_hi(self):
        out = run1("MOV32I R1, 0x80000000\nIMUL.HI R0, R1, 4")
        assert (out == 2).all()

    def test_imad(self):
        out = run1("S2R R1, SR_TID_X\nIMAD R0, R1, 3, 10")
        assert np.array_equal(out, lanes() * 3 + 10)

    def test_iscadd(self):
        out = run1("S2R R1, SR_TID_X\nISCADD R0, R1, 5, 2")
        assert np.array_equal(out, lanes() * 4 + 5)

    def test_imnmx_min_signed(self):
        out = run1("MOV32I R1, 0xFFFFFFFF\nIMNMX.MIN R0, R1, 3")
        assert (out == 0xFFFFFFFF).all()  # -1 < 3 signed

    def test_imnmx_max_unsigned(self):
        out = run1("MOV32I R1, 0xFFFFFFFF\nIMNMX.MAX.U32 R0, R1, 3")
        assert (out == 0xFFFFFFFF).all()

    def test_shl_masks_amount(self):
        out = run1("MOV R1, 1\nMOV R2, 33\nSHL R0, R1, R2")
        assert (out == 2).all()  # 33 & 31 == 1

    def test_shr_logical(self):
        out = run1("MOV32I R1, 0x80000000\nSHR.U32 R0, R1, 31")
        assert (out == 1).all()

    def test_shr_arithmetic(self):
        out = run1("MOV32I R1, 0x80000000\nSHR.S32 R0, R1, 31")
        assert (out == 0xFFFFFFFF).all()

    def test_logic_ops(self):
        assert (run1("MOV32I R1, 0xF0F0\nAND R0, R1, 0xFF") == 0xF0).all()
        assert (run1("MOV32I R1, 0xF0F0\nOR R0, R1, 0xF") == 0xF0FF).all()
        assert (run1("MOV32I R1, 0xFF\nXOR R0, R1, 0xF0") == 0x0F).all()
        assert (run1("MOV R1, RZ\nNOT R0, R1") == 0xFFFFFFFF).all()


class TestFloatAlu:
    def _f(self, out):
        return out.view(np.float32)

    def test_fadd(self):
        out = self._f(run1("MOV32I R1, 1.5\nFADD R0, R1, 2.25"))
        assert (out == np.float32(3.75)).all()

    def test_fmul(self):
        out = self._f(run1("MOV32I R1, 3.0\nFMUL R0, R1, -2.0"))
        assert (out == np.float32(-6.0)).all()

    def test_ffma(self):
        out = self._f(run1("MOV32I R1, 2.0\nMOV32I R2, 3.0\nMOV32I R3, 1.0\nFFMA R0, R1, R2, R3"))
        assert (out == np.float32(7.0)).all()

    def test_fmnmx(self):
        assert (self._f(run1("MOV32I R1, 2.0\nFMNMX.MIN R0, R1, 5.0")) == 2.0).all()
        assert (self._f(run1("MOV32I R1, 2.0\nFMNMX.MAX R0, R1, 5.0")) == 5.0).all()

    def test_mufu_rcp(self):
        out = self._f(run1("MOV32I R1, 4.0\nMUFU.RCP R0, R1"))
        assert (out == np.float32(0.25)).all()

    def test_mufu_sqrt(self):
        out = self._f(run1("MOV32I R1, 9.0\nMUFU.SQRT R0, R1"))
        assert (out == np.float32(3.0)).all()

    def test_mufu_rcp_zero_gives_inf(self):
        out = self._f(run1("MOV R1, RZ\nMUFU.RCP R0, R1"))
        assert np.isinf(out).all()

    def test_mufu_ex2_lg2(self):
        assert (self._f(run1("MOV32I R1, 3.0\nMUFU.EX2 R0, R1")) == 8.0).all()
        assert (self._f(run1("MOV32I R1, 8.0\nMUFU.LG2 R0, R1")) == 3.0).all()

    def test_f2i_trunc(self):
        out = run1("MOV32I R1, -2.7\nF2I R0, R1").view(np.int32)
        assert (out == -2).all()

    def test_f2i_floor(self):
        out = run1("MOV32I R1, -2.7\nF2I.FLOOR R0, R1").view(np.int32)
        assert (out == -3).all()

    def test_i2f(self):
        out = run1("MOV32I R1, -3\nI2F R0, R1").view(np.float32)
        assert (out == np.float32(-3.0)).all()

    def test_i2f_unsigned(self):
        out = run1("MOV32I R1, 0xFFFFFFFF\nI2F.U32 R0, R1").view(np.float32)
        assert (out == np.float32(2 ** 32 - 1)).all()


class TestPredicatesAndCompare:
    def test_isetp_signed(self):
        out = run1(
            "S2R R1, SR_TID_X\nISETP.LT P0, R1, 10\nSEL R0, 1, RZ, P0"
        )
        assert out.sum() == 10

    def test_isetp_unsigned_mod(self):
        # -1 unsigned is huge, so GE holds.
        out = run1("MOV32I R1, 0xFFFFFFFF\nISETP.GE.U32 P0, R1, 10\nSEL R0, 1, RZ, P0")
        assert (out == 1).all()

    def test_fsetp(self):
        out = run1("MOV32I R1, 0.5\nFSETP.GT P0, R1, 0.0\nSEL R0, 1, RZ, P0")
        assert (out == 1).all()

    def test_isetp_and_combine(self):
        out = run1(
            "S2R R1, SR_TID_X\nISETP.GE P1, R1, 8\n"
            "ISETP.LT.AND P0, R1, 16, P1\nSEL R0, 1, RZ, P0"
        )
        assert out.sum() == 8  # lanes 8..15

    def test_predicated_write_leaves_old_value(self):
        out = run1(
            "MOV R0, 5\nS2R R1, SR_TID_X\nISETP.LT P0, R1, 4\n@P0 MOV R0, 9"
        )
        assert (out[:4] == 9).all() and (out[4:] == 5).all()


class TestMemoryOps:
    def test_ldg_stg_roundtrip(self):
        data = np.arange(100, 132, dtype=np.uint32)
        out = run1(
            "SHL R2, R20, 2\nIADD R2, R2, c[1]\nLDG R0, [R2]",
            extra_buffers={"in": data}, params=["in"],
        )
        assert np.array_equal(out, data)

    def test_ldg_offset(self):
        data = np.arange(64, dtype=np.uint32)
        out = run1(
            "SHL R2, R20, 2\nIADD R2, R2, c[1]\nLDG R0, [R2+0x10]",
            extra_buffers={"in": data}, params=["in"],
        )
        assert np.array_equal(out, data[4:36])

    def test_shared_roundtrip(self):
        out = run1(
            "SHL R2, R20, 2\nMOV R3, R20\nIMUL R3, R3, 3\nSTS [R2], R3\nLDS R0, [R2]",
            smem=256,
        )
        assert np.array_equal(out, lanes() * 3)

    def test_shared_atomic_add(self):
        # All 32 lanes atomically add 1 to word 0, then read it back.
        out = run1(
            "MOV R1, 1\nATOMS.ADD RZ, [RZ], R1\nBAR.SYNC\nLDS R0, [RZ]",
            smem=128,
        )
        assert (out == 32).all()

    def test_global_atomic_add_returns_old(self):
        out = run1(
            "MOV R1, 1\nIADD R2, RZ, c[1]\nATOM.ADD R0, [R2], R1",
            extra_buffers={"acc": 4}, params=["acc"],
        )
        # Old values are a permutation of 0..31 (lane-serialised).
        assert sorted(out.tolist()) == list(range(32))


class TestControlFlow:
    def test_loop(self):
        out = run1(
            "MOV R0, RZ\nMOV R1, RZ\n"
            "loop:\nIADD R0, R0, 2\nIADD R1, R1, 1\n"
            "ISETP.LT P0, R1, 5\n@P0 BRA loop"
        )
        assert (out == 10).all()

    def test_divergent_if_else_reconverges(self):
        out = run1(
            "S2R R1, SR_TID_X\nISETP.LT P0, R1, 16\n"
            "MOV R0, RZ\n"
            "@!P0 BRA else_side\n"
            "IADD R0, R0, 100\n"
            "BRA join\n"
            "else_side:\n"
            "IADD R0, R0, 200\n"
            "join:\n"
            "IADD R0, R0, 7"
        )
        assert (out[:16] == 107).all() and (out[16:] == 207).all()

    def test_guarded_exit(self):
        # Lanes >= 8 exit early and never store; their slots stay 0xFF.
        source = """
.kernel t
.regs 8
.smem 0
    S2R R0, SR_TID_X
    ISETP.GE P0, R0, 8
@P0 EXIT
    SHL R1, R0, 2
    IADD R1, R1, c[0]
    MOV R2, 1
    STG [R1], R2
    EXIT
"""
        seed = np.full(32, 0xFF, dtype=np.uint32)
        gpu, snap = run_sass(source, {"out": seed}, ["out"])
        assert (snap["out"][:8] == 1).all()
        assert (snap["out"][8:] == 0xFF).all()

    def test_partial_warp(self):
        out = run1("S2R R0, SR_TID_X", block=(20,))
        assert np.array_equal(out[:20], lanes(20))
        assert (out[20:] == 0).all()  # lanes beyond block never store

    def test_nested_divergence(self):
        out = run1(
            "S2R R1, SR_TID_X\nMOV R0, RZ\n"
            "ISETP.LT P0, R1, 16\n"
            "@!P0 BRA outer_else\n"
            "ISETP.LT P1, R1, 8\n"
            "@!P1 BRA inner_else\n"
            "MOV R0, 1\nBRA inner_join\n"
            "inner_else:\nMOV R0, 2\n"
            "inner_join:\nBRA outer_join\n"
            "outer_else:\nMOV R0, 3\n"
            "outer_join:\nIADD R0, R0, 10"
        )
        assert (out[:8] == 11).all()
        assert (out[8:16] == 12).all()
        assert (out[16:] == 13).all()


class TestBarrierTiming:
    def test_multi_warp_barrier(self):
        # Warp 1 writes, barrier, warp 0 reads what warp 1 wrote.
        source = """
.kernel t
.regs 8
.smem 512
    S2R R0, SR_TID_X
    SHL R1, R0, 2
    MOV R2, R0
    IADD R2, R2, 1000
    STS [R1], R2
    BAR.SYNC
    MOV32I R3, 124
    IADD R3, R3, R1
    AND R3, R3, 0xFF
    LDS R4, [R1]
    SHL R5, R0, 2
    IADD R5, R5, c[0]
    STG [R5], R4
    EXIT
"""
        gpu, snap = run_sass(source, {"out": 64 * 4}, ["out"], block=(64,))
        assert np.array_equal(snap["out"], np.arange(64, dtype=np.uint32) + 1000)
