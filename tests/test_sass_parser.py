"""SASS assembler tests."""

import pytest

from repro.bits import float_to_bits
from repro.errors import AssemblyError
from repro.isa.base import Imm, MemRef, Param, Pred, Reg, Special
from repro.isa.sass.parser import assemble_sass


def asm(body: str, regs: int = 16, smem: int = 0):
    return assemble_sass(f".kernel t\n.regs {regs}\n.smem {smem}\n{body}\nEXIT\n")


class TestDirectives:
    def test_metadata(self):
        program = asm("NOP", regs=8, smem=256)
        assert program.name == "t"
        assert program.isa == "sass"
        assert program.registers_per_thread == 8
        assert program.local_memory_bytes == 256

    def test_bad_directive(self):
        with pytest.raises(AssemblyError, match="bad directive"):
            assemble_sass(".bogus 3\nEXIT\n")

    def test_empty_program_rejected(self):
        with pytest.raises(AssemblyError, match="no instructions"):
            assemble_sass(".kernel t\n.regs 4\n")

    @pytest.mark.parametrize("later", [".bogus 3", "L:"])
    def test_first_error_in_line_order(self, later):
        """A bad instruction is reported before a later directive or
        label error (here a bad directive, or ``L`` defined twice)."""
        with pytest.raises(AssemblyError, match="unknown opcode") as info:
            assemble_sass(f".kernel t\nL:\nFOO R0\n{later}\nEXIT\n")
        assert info.value.line == 3


class TestOperands:
    def test_registers(self):
        program = asm("MOV R3, R5")
        inst = program.at(0)
        assert inst.operands == (Reg(3), Reg(5))

    def test_rz(self):
        program = asm("MOV R0, RZ")
        assert program.at(0).operands[1] == Reg(-1)

    def test_immediates(self):
        program = asm("MOV32I R0, 0x10\nMOV32I R1, 42\nMOV32I R2, -1")
        assert program.at(0).operands[1] == Imm(0x10)
        assert program.at(1).operands[1] == Imm(42)
        assert program.at(2).operands[1] == Imm(0xFFFFFFFF)

    def test_float_immediates(self):
        program = asm("MOV32I R0, 1.5\nMOV32I R1, -2.0\nMOV32I R2, 0.5f")
        assert program.at(0).operands[1] == Imm(float_to_bits(1.5))
        assert program.at(1).operands[1] == Imm(float_to_bits(-2.0))
        assert program.at(2).operands[1] == Imm(float_to_bits(0.5))

    def test_params(self):
        program = asm("MOV R0, c[0]\nMOV R1, c[0x2]")
        assert program.at(0).operands[1] == Param(0)
        assert program.at(1).operands[1] == Param(2)

    def test_specials(self):
        program = asm("S2R R0, SR_TID_X")
        assert program.at(0).operands[1] == Special("SR_TID_X")

    def test_memref(self):
        program = asm("LDG R0, [R4]\nLDG R1, [R4+0x10]\nLDG R2, [R4-4]\nLDG R3, [RZ]")
        assert program.at(0).operands[1] == MemRef(Reg(4), 0)
        assert program.at(1).operands[1] == MemRef(Reg(4), 16)
        assert program.at(2).operands[1] == MemRef(Reg(4), -4)
        assert program.at(3).operands[1] == MemRef(Reg(-1), 0)

    def test_predicates(self):
        program = asm("ISETP.LT P2, R0, R1\nSEL R0, R1, R2, !P2")
        assert program.at(0).operands[0] == Pred(2)
        assert program.at(1).operands[3] == Pred(2, negated=True)

    def test_unparseable_operand(self):
        with pytest.raises(AssemblyError, match="cannot parse"):
            asm("MOV R0, @@")

    def test_leading_dot_float_takes_no_exponent(self):
        """SASS spells floats more narrowly than SI (``.5e3`` is an SI
        float), so each assembler keeps its own float pattern."""
        with pytest.raises(AssemblyError, match="cannot parse"):
            asm("MOV32I R0, .5e3")


class TestGuards:
    def test_positive_guard(self):
        program = asm("@P0 MOV R0, R1")
        assert program.at(0).guard == Pred(0)

    def test_negated_guard(self):
        program = asm("@!P3 MOV R0, R1")
        assert program.at(0).guard == Pred(3, negated=True)

    def test_no_guard(self):
        assert asm("MOV R0, R1").at(0).guard is None


class TestLabelsAndMods:
    def test_labels_resolve(self):
        program = asm("loop:\nIADD R0, R0, 1\nBRA loop")
        assert program.labels["loop"] == 0
        assert program.resolve_label(program.at(1).operands[0]) == 0

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError, match="duplicate label"):
            asm("a:\nNOP\na:\nNOP")

    def test_undefined_label(self):
        with pytest.raises(AssemblyError, match="undefined label"):
            asm("BRA nowhere_defined_q")

    def test_modifiers(self):
        program = asm("ISETP.GE.U32 P0, R0, R1\nMUFU.RCP R2, R3")
        assert program.at(0).mods == ("GE", "U32")
        assert program.at(1).mods == ("RCP",)

    def test_invalid_modifier(self):
        with pytest.raises(AssemblyError, match="invalid modifier"):
            asm("MUFU.TAN R0, R1")

    def test_unknown_opcode(self):
        with pytest.raises(AssemblyError, match="unknown opcode"):
            asm("FROB R0, R1")

    def test_comments_stripped(self):
        program = asm("MOV R0, R1  # comment\nMOV R1, R2 // c2\nMOV R2, R3 ; c3")
        assert len(program) == 4  # 3 MOVs + EXIT

    def test_register_bounds_checked(self):
        with pytest.raises(AssemblyError, match="R9 used but"):
            asm("MOV R9, R0", regs=8)

    def test_membase_bounds_checked(self):
        with pytest.raises(AssemblyError, match="R12 used but"):
            asm("LDG R0, [R12]", regs=8)

    def test_error_carries_line_number(self):
        try:
            assemble_sass(".kernel t\n.regs 4\nNOP\nFROB R0\n")
        except AssemblyError as error:
            assert error.line == 4
        else:
            pytest.fail("expected AssemblyError")

    def test_str_roundtrip_readable(self):
        program = asm("@!P1 FFMA R2, R3, R4, R2")
        text = str(program.at(0))
        assert "FFMA" in text and "@!P1" in text and "R2" in text
