"""Vocabulary shared by the SASS and SI front-ends.

Both assemblers lower kernel text into a :class:`Program`: a flat list of
:class:`Instruction` objects plus label and directive metadata. The
simulators interpret instructions directly (no encode/decode round-trip:
faults are injected into *storage*, not into instruction words, exactly as
in the paper, which targets the register file and local memory).

Besides operands, instructions and programs, this module holds what
both ISAs share around them: the kernel-text scan (comments,
directives, labels) and literal parsing used by both assemblers, and
the :class:`Effect` a semantics handler returns plus the lane views
its float and signed arithmetic works through.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from repro.bits import float_to_bits, u32
from repro.errors import AssemblyError

# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    """SASS general-purpose register ``R<n>``; ``index == -1`` is RZ."""

    index: int

    def __str__(self):
        return "RZ" if self.index == -1 else f"R{self.index}"


RZ = Reg(-1)


@dataclass(frozen=True)
class Pred:
    """SASS predicate register ``P<n>``; ``index == -1`` is PT (true)."""

    index: int
    negated: bool = False

    def __str__(self):
        bang = "!" if self.negated else ""
        name = "PT" if self.index == -1 else f"P{self.index}"
        return f"{bang}{name}"


PT = Pred(-1)


@dataclass(frozen=True)
class Imm:
    """Immediate operand, stored as a raw 32-bit pattern."""

    value: int

    def __str__(self):
        return f"0x{self.value & 0xFFFFFFFF:x}"


@dataclass(frozen=True)
class Param:
    """Kernel parameter word: SASS ``c[k]`` / SI ``param[k]``."""

    index: int

    def __str__(self):
        return f"c[{self.index}]"


@dataclass(frozen=True)
class Special:
    """SASS special register read via S2R (``SR_TID_X``, ...)."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class MemRef:
    """Register-indirect memory operand ``[R<n>+offset]`` (byte offset)."""

    base: "Reg | VReg"
    offset: int = 0

    def __str__(self):
        if self.offset:
            return f"[{self.base}+0x{self.offset:x}]"
        return f"[{self.base}]"


@dataclass(frozen=True)
class SReg:
    """SI scalar register ``s<n>``."""

    index: int

    def __str__(self):
        return f"s{self.index}"


@dataclass(frozen=True)
class SRegPair:
    """SI aligned scalar register pair ``s[n:n+1]`` (64-bit)."""

    index: int  # first (even) register

    def __str__(self):
        return f"s[{self.index}:{self.index + 1}]"


@dataclass(frozen=True)
class VReg:
    """SI vector register ``v<n>`` (one 32-bit word per lane)."""

    index: int

    def __str__(self):
        return f"v{self.index}"


@dataclass(frozen=True)
class SpecialScalar:
    """SI architectural scalar: ``vcc``, ``exec`` (64-bit) or ``scc``."""

    name: str  # "vcc" | "exec" | "scc"

    def __str__(self):
        return self.name


VCC = SpecialScalar("vcc")
EXEC = SpecialScalar("exec")
SCC = SpecialScalar("scc")


@dataclass(frozen=True)
class LabelRef:
    """Branch target by label name; resolved to a pc during assembly."""

    name: str

    def __str__(self):
        return self.name


Operand = object  # documentation alias: any of the classes above


# ---------------------------------------------------------------------------
# Instructions and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instruction:
    """One decoded machine instruction.

    ``opcode`` is the canonical mnemonic (upper-case for SASS, lower-case
    for SI), ``mods`` the dot-suffix modifiers in order, ``operands`` the
    parsed operand tuple (destination first when one exists), ``guard``
    the SASS ``@P#`` / ``@!P#`` predicate guard (None = unconditional).
    """

    opcode: str
    mods: tuple = ()
    operands: tuple = ()
    guard: Pred | None = None
    pc: int = 0
    line: int = 0

    def has_mod(self, name: str) -> bool:
        return name in self.mods

    def __str__(self):
        text = self.opcode
        if self.mods:
            text += "." + ".".join(self.mods)
        if self.operands:
            text += " " + ", ".join(str(op) for op in self.operands)
        if self.guard is not None:
            text = f"@{self.guard} {text}"
        return text


@dataclass
class Program:
    """An assembled kernel: instructions + labels + resource directives."""

    name: str
    isa: str                       # "sass" | "si"
    instructions: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)     # label -> pc
    #: architectural registers per thread (SASS) / VGPRs per work-item (SI)
    registers_per_thread: int = 0
    #: SGPRs per wavefront (SI only)
    scalar_registers: int = 0
    #: statically allocated local/shared memory bytes per block
    local_memory_bytes: int = 0
    source: str = ""

    def __len__(self):
        return len(self.instructions)

    def at(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def resolve_label(self, ref: LabelRef) -> int:
        try:
            return self.labels[ref.name]
        except KeyError:
            raise AssemblyError(f"undefined label {ref.name!r}") from None

    def validate(self) -> None:
        """Check label targets and register bounds; raise AssemblyError."""
        if not self.instructions:
            raise AssemblyError(f"kernel {self.name!r} has no instructions")
        for inst in self.instructions:
            for op in inst.operands:
                if isinstance(op, LabelRef) and op.name not in self.labels:
                    raise AssemblyError(
                        f"undefined label {op.name!r}", line=inst.line
                    )


# ---------------------------------------------------------------------------
# Shared tokenising helpers used by both parsers
# ---------------------------------------------------------------------------

_COMMENT_MARKERS = ("#", "//", ";")


def strip_comment(line: str) -> str:
    """Remove trailing comments introduced by ``#``, ``//`` or ``;``."""
    for marker in _COMMENT_MARKERS:
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def split_operands(text: str) -> list[str]:
    """Split an operand list on top-level commas (respecting brackets)."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char in "[(":
            depth += 1
        elif char in "])":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_int(token: str, line: int = 0) -> int:
    """Parse a decimal/hex integer literal (with optional sign)."""
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"bad integer literal {token!r}", line=line) from None


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def scan_kernel(text: str, values: dict, labels: dict):
    """Assembler line loop: yield ``(lineno, text)`` of every instruction
    line, comment stripped, in source order.

    ``values`` maps each directive the ISA accepts (``".kernel"``,
    ``".regs"``, ...) to its default; the directives met are stored
    into it, and every label into ``labels`` (label -> pc of the next
    instruction), as the scan reaches them, so the first error in line
    order is the one raised. Every directive takes exactly one argument:
    a name for ``.kernel``, an integer for the others. The caller must
    turn every yielded line into one instruction or raise.
    """
    pc = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        if line.startswith("."):
            fields = line.split()
            directive = fields[0]
            if directive not in values or len(fields) != 2:
                raise AssemblyError(f"bad directive {line!r}", line=lineno)
            values[directive] = (fields[1] if directive == ".kernel"
                                 else parse_int(fields[1], lineno))
            continue
        match = _LABEL_RE.match(line)
        if match:
            label = match.group(1)
            if label in labels:
                raise AssemblyError(f"duplicate label {label!r}", line=lineno)
            labels[label] = pc
            continue
        yield lineno, line
        pc += 1


def parse_literal(token: str, line: int, float_re: re.Pattern):
    """The operand forms both ISAs share: float immediates (as the
    ISA's ``float_re`` spells them), integer immediates, label names."""
    if float_re.match(token):
        return Imm(float_to_bits(float(token.rstrip("fF"))))
    try:
        return Imm(u32(int(token, 0)))
    except ValueError:
        pass
    if _IDENT_RE.match(token):
        return LabelRef(token)
    raise AssemblyError(f"cannot parse operand {token!r}", line=line)


# ---------------------------------------------------------------------------
# Execution vocabulary shared by both semantics modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Effect:
    """Control-flow outcome of one executed instruction."""

    kind: str                 # "none" | "branch" | "exit" | "barrier"
    mask: int = 0             # SASS: taken lanes (branch) / exiting lanes (exit)
    target: int = 0           # branch target pc
    extra_cycles: int = 0     # added latency (e.g. uncoalesced accesses)


EFFECT_NONE = Effect("none")


@functools.cache
def memory_effect(extra_cycles: int) -> Effect:
    """The shared effect of a memory instruction that adds
    ``extra_cycles`` of coalescing latency (at most one per segment a
    warp can touch, so the cache stays small)."""
    return Effect("none", extra_cycles=extra_cycles)


def as_f32(words: np.ndarray) -> np.ndarray:
    """View uint32 lane words as float32 (no copy)."""
    return words.view(np.float32)


def as_u32(floats: np.ndarray) -> np.ndarray:
    """View float32 lane values as their uint32 bit patterns."""
    return np.ascontiguousarray(floats, dtype=np.float32).view(np.uint32)


def as_i32(words: np.ndarray) -> np.ndarray:
    """View uint32 lane words as int32 (no copy)."""
    return words.view(np.int32)
