"""Assembler for the Southern-Islands-like ISA.

Kernel text format::

    .kernel reduction
    .vregs 8                 # VGPRs per work-item
    .sregs 16                # SGPRs per wavefront
    .lds 1024                # LDS bytes per work-group

        s_load_dword s6, param[0]      # N
        v_mov_b32 v1, v0               # local id
        v_cmp_lt_i32 vcc, v1, s6
        s_and_saveexec_b64 s[8:9], vcc
        s_cbranch_execz done
        ds_read_b32 v2, v3, 16         # optional trailing byte offset
        ...
    done:
        s_endpgm

Operands: ``s<n>`` scalar regs, ``s[a:b]`` 64-bit pairs, ``v<n>``
vector regs, ``vcc`` / ``exec`` / ``scc``, ``param[k]`` kernel
arguments, integer and float literals, label names. The launch ABI
preloads s0 = workgroup id x, s1 = workgroup id y, s2 = workgroup dim
x, s3 = workgroup dim y, s4 = grid dim x (in workgroups), s5 = grid
dim y; v0 = local id x, v1 = local id y.
"""

from __future__ import annotations

import re

from repro.errors import AssemblyError
from repro.isa.base import (
    EXEC,
    Instruction,
    Param,
    Program,
    SCC,
    SReg,
    SRegPair,
    VCC,
    VReg,
    parse_literal,
    scan_kernel,
    split_operands,
)
from repro.isa.si.opcodes import SI_OPCODES

_SREG_RE = re.compile(r"^s(\d+)$")
_VREG_RE = re.compile(r"^v(\d+)$")
_SPAIR_RE = re.compile(r"^s\[(\d+):(\d+)\]$")
_PARAM_RE = re.compile(r"^param\[(0x[0-9a-fA-F]+|\d+)\]$")
_FLOAT_RE = re.compile(
    r"^[+-]?(\d+\.\d*|\.\d+)([eE][+-]?\d+)?f?$|^[+-]?\d+[eE][+-]?\d+f?$"
)

#: Number of ABI-preloaded SGPRs (s0..s5, see module docstring).
ABI_SGPRS = 6


def _parse_operand(token: str, line: int):
    lowered = token.lower()
    if lowered == "vcc":
        return VCC
    if lowered == "exec":
        return EXEC
    if lowered == "scc":
        return SCC
    match = _SREG_RE.match(token)
    if match:
        return SReg(int(match.group(1)))
    match = _VREG_RE.match(token)
    if match:
        return VReg(int(match.group(1)))
    match = _SPAIR_RE.match(token)
    if match:
        first, second = int(match.group(1)), int(match.group(2))
        if second != first + 1 or first % 2:
            raise AssemblyError(
                f"scalar pair must be aligned consecutive regs, got {token}",
                line=line,
            )
        return SRegPair(first)
    match = _PARAM_RE.match(token)
    if match:
        return Param(int(match.group(1), 0))
    return parse_literal(token, line, _FLOAT_RE)


def assemble_si(text: str) -> Program:
    """Assemble SI-like kernel text into a :class:`Program`."""
    values = {".kernel": "kernel", ".vregs": 0, ".sregs": 16, ".lds": 0}
    labels: dict[str, int] = {}
    instructions: list[Instruction] = []
    for lineno, line in scan_kernel(text, values, labels):
        parts = line.split(None, 1)
        opcode = parts[0].lower()
        if opcode not in SI_OPCODES:
            raise AssemblyError(f"unknown opcode {opcode!r}", line=lineno)
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = tuple(
            _parse_operand(token, lineno)
            for token in split_operands(operand_text)
        )
        instructions.append(
            Instruction(
                opcode=opcode,
                operands=operands,
                pc=len(instructions),
                line=lineno,
            )
        )

    program = Program(
        name=values[".kernel"],
        isa="si",
        instructions=instructions,
        labels=labels,
        registers_per_thread=values[".vregs"],
        scalar_registers=max(values[".sregs"], ABI_SGPRS),
        local_memory_bytes=values[".lds"],
        source=text,
    )
    program.validate()
    _check_register_bounds(program)
    return program


def _check_register_bounds(program: Program) -> None:
    vlimit = program.registers_per_thread
    slimit = program.scalar_registers
    for inst in program.instructions:
        for op in inst.operands:
            if isinstance(op, VReg) and op.index >= vlimit:
                raise AssemblyError(
                    f"v{op.index} used but .vregs is {vlimit}", line=inst.line
                )
            if isinstance(op, SReg) and op.index >= slimit:
                raise AssemblyError(
                    f"s{op.index} used but .sregs is {slimit}", line=inst.line
                )
            if isinstance(op, SRegPair) and op.index + 1 >= slimit:
                raise AssemblyError(
                    f"s[{op.index}:{op.index + 1}] exceeds .sregs {slimit}",
                    line=inst.line,
                )
