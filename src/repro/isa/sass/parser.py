"""Assembler for the SASS-like ISA.

Kernel text format::

    .kernel matrixMul      # kernel name
    .regs 14               # architectural registers per thread
    .smem 2048             # static shared memory bytes per block

        S2R R0, SR_TID_X
        ISETP.GE P0, R0, c[0]
    @P0 EXIT
    loop:
        LDG R2, [R4+0x10]
        FFMA R5, R2, R3, R5
        IADD R4, R4, 4
        ISETP.LT P1, R4, R6
    @P1 BRA loop
        STG [R7], R5
        EXIT

Comments start with ``#``, ``//`` or ``;``. Operands: ``R<n>``/``RZ``
registers, ``P<n>``/``PT`` predicates, ``c[k]`` parameter words,
``SR_*`` specials, integer (``123``, ``0x7B``) and float (``1.0``,
``0.5f``) immediates, ``[R<n>+off]`` memory references, label names.
"""

from __future__ import annotations

import re

from repro.errors import AssemblyError
from repro.isa.base import (
    Instruction,
    MemRef,
    Param,
    Pred,
    Program,
    Reg,
    Special,
    parse_literal,
    scan_kernel,
    split_operands,
)
from repro.isa.sass.opcodes import SASS_OPCODES, SPECIAL_REGISTERS

_REG_RE = re.compile(r"^R(\d+)$")
_PRED_RE = re.compile(r"^(!?)P(\d+)$")
_PARAM_RE = re.compile(r"^c\[(0x[0-9a-fA-F]+|\d+)\]$")
_MEM_RE = re.compile(
    r"^\[\s*(RZ|R\d+)\s*(?:([+-])\s*(0x[0-9a-fA-F]+|\d+)\s*)?\]$"
)
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+([eE][+-]?\d+))f?$|^[+-]?\d+\.\d*[eE][+-]?\d+f?$")
_GUARD_RE = re.compile(r"^@(!?)(P\d+|PT)\s+(.*)$")


def _parse_operand(token: str, line: int):
    """Parse one operand token into an operand object."""
    if token == "RZ":
        return Reg(-1)
    if token == "PT":
        return Pred(-1)
    if token == "!PT":
        return Pred(-1, negated=True)
    match = _REG_RE.match(token)
    if match:
        return Reg(int(match.group(1)))
    match = _PRED_RE.match(token)
    if match:
        return Pred(int(match.group(2)), negated=bool(match.group(1)))
    match = _PARAM_RE.match(token)
    if match:
        return Param(int(match.group(1), 0))
    if token in SPECIAL_REGISTERS:
        return Special(token)
    match = _MEM_RE.match(token)
    if match:
        base = Reg(-1) if match.group(1) == "RZ" else Reg(int(match.group(1)[1:]))
        offset = 0
        if match.group(3):
            offset = int(match.group(3), 0)
            if match.group(2) == "-":
                offset = -offset
        return MemRef(base, offset)
    return parse_literal(token, line, _FLOAT_RE)


def assemble_sass(text: str) -> Program:
    """Assemble SASS-like kernel text into a :class:`Program`."""
    values = {".kernel": "kernel", ".regs": 0, ".smem": 0}
    labels: dict[str, int] = {}
    instructions: list[Instruction] = []
    for lineno, line in scan_kernel(text, values, labels):
        guard = None
        match = _GUARD_RE.match(line)
        if match:
            pred_token = match.group(2)
            index = -1 if pred_token == "PT" else int(pred_token[1:])
            guard = Pred(index, negated=bool(match.group(1)))
            line = match.group(3).strip()

        parts = line.split(None, 1)
        mnemonic = parts[0]
        pieces = mnemonic.split(".")
        opcode, mods = pieces[0], tuple(pieces[1:])
        info = SASS_OPCODES.get(opcode)
        if info is None:
            raise AssemblyError(f"unknown opcode {opcode!r}", line=lineno)
        for mod in mods:
            if info.valid_mods and mod not in info.valid_mods:
                raise AssemblyError(
                    f"invalid modifier .{mod} for {opcode}", line=lineno
                )
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = tuple(
            _parse_operand(token, lineno)
            for token in split_operands(operand_text)
        )
        instructions.append(
            Instruction(
                opcode=opcode,
                mods=mods,
                operands=operands,
                guard=guard,
                pc=len(instructions),
                line=lineno,
            )
        )

    program = Program(
        name=values[".kernel"],
        isa="sass",
        instructions=instructions,
        labels=labels,
        registers_per_thread=values[".regs"],
        local_memory_bytes=values[".smem"],
        source=text,
    )
    program.validate()
    _check_register_bounds(program)
    return program


def _check_register_bounds(program: Program) -> None:
    """Every register index must be below the declared .regs count."""
    limit = program.registers_per_thread
    for inst in program.instructions:
        for op in inst.operands:
            reg = None
            if isinstance(op, Reg):
                reg = op
            elif isinstance(op, MemRef) and isinstance(op.base, Reg):
                reg = op.base
            if reg is not None and reg.index >= limit:
                raise AssemblyError(
                    f"R{reg.index} used but .regs is {limit}", line=inst.line
                )
