"""NFIL instruction set.

All registers are 64-bit unsigned integers (:data:`WORD_BITS`); loads
zero-extend, stores truncate to the access size.  Comparison results are 0
or 1 in a 64-bit register; branches test for non-zero.  Keeping a single
register width keeps both the interpreter and the symbolic engine simple
without affecting the performance observables BOLT cares about (dynamic
instruction count, memory access count).

Operators act on unsigned ``w``-bit operands ``a`` and ``b``; ``w`` is 64
in NFIL registers, and the symbolic layer applies the same operators at
any width:

* ``add``, ``sub`` and ``mul`` wrap around: the exact sum, difference or
  product modulo ``2**w``.
* ``udiv`` and ``urem`` are unsigned floor division and remainder.
  Division by zero does not trap: ``udiv`` gives ``2**w - 1`` (all ones)
  and ``urem`` gives the dividend ``a``.
* ``and``, ``or`` and ``xor`` are bitwise.
* ``shl`` is ``a * 2**b`` modulo ``2**w`` and ``lshr`` is ``a // 2**b``;
  a shift by ``w`` or more gives 0.
* ``eq`` and ``ne`` test equality.  ``ult``, ``ule``, ``ugt`` and ``uge``
  order the unsigned values.  ``slt``, ``sle``, ``sgt`` and ``sge`` order
  two's-complement values: an operand ``x >= 2**(w - 1)`` stands for
  ``x - 2**w``.

:data:`BINARY_OPS` and :data:`CMP_OPS` are the one definition of these
semantics.  The interpreter, the symbolic expression layer and replay's
compiled predicates all take their code from :func:`operator_source`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple, Union

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1

#: Legal memory access sizes, in bytes.
ACCESS_SIZES = (1, 2, 4, 8)

#: What each :class:`BinOp` computes: Python source over the unsigned
#: ``{w}``-bit operands ``{a}`` and ``{b}``, with ``{m}`` the width's mask.
BINARY_OPS: Dict[str, str] = {
    "add": "({a} + {b}) & {m}",
    "sub": "({a} - {b}) & {m}",
    "mul": "({a} * {b}) & {m}",
    "udiv": "({a} // {b} if {b} else {m})",
    "urem": "({a} % {b} if {b} else {a})",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "(({a} << {b}) & {m} if {b} < {w} else 0)",
    "lshr": "({a} >> {b} if {b} < {w} else 0)",
}


class Predicate(NamedTuple):
    """A :class:`Cmp` predicate: ``a <relation> b``, read as two's complement if ``signed``."""

    relation: str
    signed: bool
    #: The predicate that holds exactly when this one does not.
    negation: str
    #: The predicate that holds on ``(b, a)`` exactly when this one holds on ``(a, b)``.
    swapped: str

    @property
    def reflexive(self) -> bool:
        """Whether the predicate holds when both operands are equal."""
        return self.relation in ("==", "<=", ">=")


#: What each :class:`Cmp` predicate computes.
CMP_OPS: Dict[str, Predicate] = {
    "eq": Predicate("==", signed=False, negation="ne", swapped="eq"),
    "ne": Predicate("!=", signed=False, negation="eq", swapped="ne"),
    "ult": Predicate("<", signed=False, negation="uge", swapped="ugt"),
    "ule": Predicate("<=", signed=False, negation="ugt", swapped="uge"),
    "ugt": Predicate(">", signed=False, negation="ule", swapped="ult"),
    "uge": Predicate(">=", signed=False, negation="ult", swapped="ule"),
    "slt": Predicate("<", signed=True, negation="sge", swapped="sgt"),
    "sle": Predicate("<=", signed=True, negation="sgt", swapped="sge"),
    "sgt": Predicate(">", signed=True, negation="sle", swapped="slt"),
    "sge": Predicate(">=", signed=True, negation="slt", swapped="sle"),
}


def operator_source(op: str, a: str, b: str, width: Union[int, str]) -> str:
    """Python source computing ``a <op> b`` on unsigned ``width``-bit operands.

    ``a`` and ``b`` are source text: names or literals.  ``width`` is a
    literal, inlined with its mask and sign bit, or the name of a variable
    holding the width.  A predicate's source gives 1 or 0.
    """
    if isinstance(width, int):
        mask, sign = str((1 << width) - 1), str(1 << (width - 1))
    else:
        mask, sign = f"((1 << {width}) - 1)", f"(1 << ({width} - 1))"
    template = BINARY_OPS.get(op)
    if template is not None:
        return template.format(a=a, b=b, w=width, m=mask)
    predicate = CMP_OPS[op]
    if predicate.signed:
        # Flipping the sign bit maps two's-complement order onto unsigned order.
        a, b = f"({a} ^ {sign})", f"({b} ^ {sign})"
    return f"(1 if {a} {predicate.relation} {b} else 0)"


@dataclass(frozen=True, slots=True)
class Reg:
    """A reference to a virtual register."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate operand (64-bit unsigned)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & WORD_MASK)

    def __str__(self) -> str:
        return str(self.value)


Operand = Union[Reg, Imm]


def as_operand(value: Union[Operand, int]) -> Operand:
    """Coerce an int into an :class:`Imm`; pass registers through."""
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, int):
        return Imm(value)
    raise TypeError(f"cannot use {type(value).__name__} as an operand")


class Instruction:
    """Base class of all NFIL instructions."""

    __slots__ = ()

    #: cost-model category, overridden per concrete instruction class.
    category = "alu"

    def operands(self) -> Tuple[Operand, ...]:
        """Return the operands read by this instruction."""
        return ()

    def defines(self) -> Optional[str]:
        """Return the register name written by this instruction, if any."""
        return None

    def is_terminator(self) -> bool:
        """Return True for instructions that end a basic block."""
        return False


@dataclass(frozen=True, slots=True)
class ConstInstr(Instruction):
    """``dest = constant``."""

    dest: str
    value: int

    category = "const"

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = const {self.value & WORD_MASK}"


@dataclass(frozen=True, slots=True)
class BinOp(Instruction):
    """``dest = a <op> b``."""

    op: str
    dest: str
    a: Operand
    b: Operand

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    @property
    def category(self) -> str:  # type: ignore[override]
        if self.op == "mul":
            return "mul"
        if self.op in ("udiv", "urem"):
            return "div"
        return "alu"

    def operands(self) -> Tuple[Operand, ...]:
        return (self.a, self.b)

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = {self.op} {self.a}, {self.b}"


@dataclass(frozen=True, slots=True)
class Cmp(Instruction):
    """``dest = (a <pred> b) ? 1 : 0``."""

    op: str
    dest: str
    a: Operand
    b: Operand

    category = "cmp"

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison {self.op!r}")

    def operands(self) -> Tuple[Operand, ...]:
        return (self.a, self.b)

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = cmp.{self.op} {self.a}, {self.b}"


@dataclass(frozen=True, slots=True)
class Select(Instruction):
    """``dest = cond ? a : b``."""

    dest: str
    cond: Operand
    a: Operand
    b: Operand

    category = "select"

    def operands(self) -> Tuple[Operand, ...]:
        return (self.cond, self.a, self.b)

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = select {self.cond}, {self.a}, {self.b}"


@dataclass(frozen=True, slots=True)
class Load(Instruction):
    """``dest = memory[addr .. addr+size)`` (little-endian, zero-extended)."""

    dest: str
    addr: Operand
    size: int = 8

    category = "load"

    def __post_init__(self) -> None:
        if self.size not in ACCESS_SIZES:
            raise ValueError(f"illegal load size {self.size}")

    def operands(self) -> Tuple[Operand, ...]:
        return (self.addr,)

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        return f"%{self.dest} = load{self.size * 8} [{self.addr}]"


@dataclass(frozen=True, slots=True)
class Store(Instruction):
    """``memory[addr .. addr+size) = value`` (little-endian, truncated)."""

    addr: Operand
    value: Operand
    size: int = 8

    category = "store"

    def __post_init__(self) -> None:
        if self.size not in ACCESS_SIZES:
            raise ValueError(f"illegal store size {self.size}")

    def operands(self) -> Tuple[Operand, ...]:
        return (self.addr, self.value)

    def __str__(self) -> str:
        return f"store{self.size * 8} [{self.addr}], {self.value}"


@dataclass(frozen=True, slots=True)
class Br(Instruction):
    """Conditional branch: jump to ``then_label`` when ``cond != 0``."""

    cond: Operand
    then_label: str
    else_label: str

    category = "branch"

    def operands(self) -> Tuple[Operand, ...]:
        return (self.cond,)

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"br {self.cond}, {self.then_label}, {self.else_label}"


@dataclass(frozen=True, slots=True)
class Jmp(Instruction):
    """Unconditional jump."""

    label: str

    category = "jump"

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"jmp {self.label}"


@dataclass(frozen=True, slots=True)
class Call(Instruction):
    """Call an internal function or an extern (stateful library method)."""

    dest: Optional[str]
    callee: str
    args: Tuple[Operand, ...] = field(default_factory=tuple)

    category = "call"

    def operands(self) -> Tuple[Operand, ...]:
        return self.args

    def defines(self) -> Optional[str]:
        return self.dest

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.args)
        prefix = f"%{self.dest} = " if self.dest else ""
        return f"{prefix}call {self.callee}({args})"


@dataclass(frozen=True, slots=True)
class Ret(Instruction):
    """Return from the current function."""

    value: Optional[Operand] = None

    category = "ret"

    def operands(self) -> Tuple[Operand, ...]:
        return (self.value,) if self.value is not None else ()

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"
