"""Southern-Islands assembler tests."""

import pytest

from repro.bits import float_to_bits
from repro.errors import AssemblyError
from repro.isa.base import EXEC, Imm, Param, SReg, SRegPair, VCC, VReg
from repro.isa.si.parser import ABI_SGPRS, assemble_si


def asm(body: str, vregs: int = 16, sregs: int = 16, lds: int = 0):
    return assemble_si(
        f".kernel t\n.vregs {vregs}\n.sregs {sregs}\n.lds {lds}\n{body}\ns_endpgm\n"
    )


class TestDirectives:
    def test_metadata(self):
        program = asm("s_nop", vregs=8, sregs=12, lds=512)
        assert program.isa == "si"
        assert program.registers_per_thread == 8
        assert program.scalar_registers == 12
        assert program.local_memory_bytes == 512

    def test_sregs_floor_at_abi(self):
        program = asm("s_nop", sregs=2)
        assert program.scalar_registers >= ABI_SGPRS

    @pytest.mark.parametrize("later", [".bogus 3", "L:"])
    def test_first_error_in_line_order(self, later):
        """A bad instruction is reported before a later directive or
        label error (here a bad directive, or ``L`` defined twice)."""
        with pytest.raises(AssemblyError, match="unknown opcode") as info:
            assemble_si(f".kernel t\nL:\nv_bogus v0\n{later}\ns_endpgm\n")
        assert info.value.line == 3


class TestOperands:
    def test_regs(self):
        program = asm("v_add_i32 v2, v0, v1")
        assert program.at(0).operands == (VReg(2), VReg(0), VReg(1))

    def test_sregs(self):
        program = asm("s_add_i32 s7, s6, s5")
        assert program.at(0).operands == (SReg(7), SReg(6), SReg(5))

    def test_pair(self):
        program = asm("s_mov_b64 s[8:9], exec")
        assert program.at(0).operands == (SRegPair(8), EXEC)

    def test_misaligned_pair_rejected(self):
        with pytest.raises(AssemblyError, match="aligned consecutive"):
            asm("s_mov_b64 s[9:10], exec")

    def test_non_consecutive_pair_rejected(self):
        with pytest.raises(AssemblyError, match="aligned consecutive"):
            asm("s_mov_b64 s[8:10], exec")

    def test_specials(self):
        program = asm("s_cbranch_vccz out\nout:")
        assert program.at(0).opcode == "s_cbranch_vccz"
        program = asm("v_cmp_lt_i32 vcc, v0, v1")
        assert program.at(0).operands[0] == VCC

    def test_param(self):
        program = asm("s_load_dword s6, param[3]")
        assert program.at(0).operands == (SReg(6), Param(3))

    def test_float_imm(self):
        program = asm("v_mov_b32 v2, 0.5")
        assert program.at(0).operands[1] == Imm(float_to_bits(0.5))

    def test_float_imm_leading_dot_exponent(self):
        program = asm("v_mov_b32 v2, .5e3")
        assert program.at(0).operands[1] == Imm(float_to_bits(500.0))

    def test_int_imm_hex(self):
        program = asm("v_mov_b32 v2, 0x7f7fffff")
        assert program.at(0).operands[1] == Imm(0x7F7FFFFF)

    def test_case_insensitive_mnemonics(self):
        program = asm("V_ADD_I32 v2, v0, v1")
        assert program.at(0).opcode == "v_add_i32"


class TestBounds:
    def test_vreg_bound(self):
        with pytest.raises(AssemblyError, match="v9 used but"):
            asm("v_mov_b32 v9, v0", vregs=8)

    def test_sreg_bound(self):
        with pytest.raises(AssemblyError, match="s15 used but"):
            asm("s_mov_b32 s15, s0", sregs=12)

    def test_pair_bound(self):
        with pytest.raises(AssemblyError, match="exceeds"):
            asm("s_mov_b64 s[14:15], exec", sregs=15)

    def test_unknown_opcode(self):
        with pytest.raises(AssemblyError, match="unknown opcode"):
            asm("v_frobnicate v0, v1")

    def test_labels(self):
        program = asm("loop:\ns_add_i32 s6, s6, 1\ns_branch loop")
        assert program.labels["loop"] == 0

    def test_undefined_label(self):
        with pytest.raises(AssemblyError, match="undefined label"):
            asm("s_branch nowhere_xyz")
