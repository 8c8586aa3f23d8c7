"""Property-based cross-checks of the two ISAs against numpy models.

For randomly drawn operands, a SASS kernel and an SI kernel computing
the same expression must both match the reference — and therefore each
other. This is the property that makes the paper's cross-vendor
comparison meaningful (same benchmark, same numbers, different
microarchitecture).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import u32
from tests.conftest import run_sass, run_si

u32s = st.integers(min_value=0, max_value=0xFFFFFFFF)
f32s = st.floats(width=32, allow_nan=False, allow_infinity=False,
                 min_value=-1e6, max_value=1e6)

_SETTINGS = dict(max_examples=20, deadline=None)


def sass_binop(op: str, a: int, b: int) -> int:
    source = f"""
.kernel t
.regs 8
.smem 0
    MOV32I R1, {a}
    MOV32I R2, {b}
    {op} R0, R1, R2
    S2R R3, SR_TID_X
    SHL R3, R3, 2
    IADD R3, R3, c[0]
    STG [R3], R0
    EXIT
"""
    _, snap = run_sass(source, {"out": 128}, ["out"])
    return int(snap["out"][0])


def si_binop(op: str, a: int, b: int) -> int:
    source = f"""
.kernel t
.vregs 8
.sregs 10
.lds 0
    v_mov_b32 v1, {a}
    v_mov_b32 v2, {b}
    {op} v3, v1, v2
    v_lshlrev_b32 v4, 2, v0
    s_load_dword s6, param[0]
    v_add_i32 v4, v4, s6
    global_store_dword v4, v3
    s_endpgm
"""
    _, snap = run_si(source, {"out": 256}, ["out"])
    return int(snap["out"][0])


class TestIntegerAgreement:
    @settings(**_SETTINGS)
    @given(u32s, u32s)
    def test_add(self, a, b):
        expected = u32(a + b)
        assert sass_binop("IADD", a, b) == expected
        assert si_binop("v_add_i32", a, b) == expected

    @settings(**_SETTINGS)
    @given(u32s, u32s)
    def test_mul_low(self, a, b):
        expected = u32(a * b)
        assert sass_binop("IMUL", a, b) == expected
        assert si_binop("v_mul_lo_i32", a, b) == expected

    @settings(**_SETTINGS)
    @given(u32s, u32s)
    def test_and_or_xor(self, a, b):
        assert sass_binop("AND", a, b) == (a & b)
        assert si_binop("v_and_b32", a, b) == (a & b)
        assert sass_binop("XOR", a, b) == (a ^ b)
        assert si_binop("v_xor_b32", a, b) == (a ^ b)

    @settings(**_SETTINGS)
    @given(u32s, st.integers(min_value=0, max_value=63))
    def test_shifts_agree(self, a, amount):
        expected = u32(a << (amount & 31))
        assert sass_binop("SHL", a, amount) == expected
        # SI shift amount is the *first* source (reversed operands).
        assert si_binop("v_lshlrev_b32", amount, a) == expected


class TestFloatAgreement:
    @settings(**_SETTINGS)
    @given(f32s, f32s)
    def test_fadd(self, x, y):
        from repro.bits import bits_to_float, float_to_bits
        a, b = float_to_bits(x), float_to_bits(y)
        expected = np.float32(np.float32(x) + np.float32(y))
        got_sass = bits_to_float(sass_binop("FADD", a, b))
        got_si = bits_to_float(si_binop("v_add_f32", a, b))
        assert np.float32(got_sass) == expected or (
            np.isnan(expected) and np.isnan(got_sass)
        )
        assert got_sass == got_si

    @settings(**_SETTINGS)
    @given(f32s, f32s)
    def test_fmul_bitexact_cross_isa(self, x, y):
        from repro.bits import float_to_bits
        a, b = float_to_bits(x), float_to_bits(y)
        assert sass_binop("FMUL", a, b) == si_binop("v_mul_f32", a, b)

    @settings(**_SETTINGS)
    @given(f32s, f32s)
    def test_min_max_agree(self, x, y):
        from repro.bits import float_to_bits
        a, b = float_to_bits(x), float_to_bits(y)
        assert sass_binop("FMNMX.MIN", a, b) == si_binop("v_min_f32", a, b)
        assert sass_binop("FMNMX.MAX", a, b) == si_binop("v_max_f32", a, b)


class TestComparisonAgreement:
    @settings(**_SETTINGS)
    @given(u32s, u32s)
    def test_signed_lt(self, a, b):
        sass = f"""
.kernel t
.regs 8
.smem 0
    MOV32I R1, {a}
    MOV32I R2, {b}
    ISETP.LT P0, R1, R2
    SEL R0, 1, RZ, P0
    S2R R3, SR_TID_X
    SHL R3, R3, 2
    IADD R3, R3, c[0]
    STG [R3], R0
    EXIT
"""
        si = f"""
.kernel t
.vregs 8
.sregs 10
.lds 0
    v_mov_b32 v1, {a}
    v_mov_b32 v2, {b}
    v_cmp_lt_i32 vcc, v1, v2
    v_mov_b32 v3, 0
    v_mov_b32 v4, 1
    v_cndmask_b32 v5, v3, v4, vcc
    v_lshlrev_b32 v6, 2, v0
    s_load_dword s6, param[0]
    v_add_i32 v6, v6, s6
    global_store_dword v6, v5
    s_endpgm
"""
        _, sass_snap = run_sass(sass, {"out": 128}, ["out"])
        _, si_snap = run_si(si, {"out": 256}, ["out"])
        from repro.bits import to_signed
        expected = int(to_signed(a) < to_signed(b))
        assert int(sass_snap["out"][0]) == expected
        assert int(si_snap["out"][0]) == expected


@pytest.mark.parametrize("isa", ["sass", "si"])
def test_every_opcode_has_exactly_one_handler(isa):
    """The decode cache looks each opcode's handler up when a program
    is prepared, so the opcode table and the handler table must name
    the same mnemonics: an assembled opcode always has semantics, and
    no handler is unreachable."""
    from repro.sim.sass_core import SassCore
    from repro.sim.si_core import SiCore
    core = SassCore if isa == "sass" else SiCore
    assert core.OPCODES and set(core.OPCODES) == set(core.HANDLERS)
