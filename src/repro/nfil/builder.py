"""Fluent construction of NFIL functions.

:class:`FunctionBuilder` removes the boilerplate of writing NFIL by hand:
it auto-names temporary registers and coerces Python ints to immediates.
It does not validate: the interpreter and the symbolic engine validate the
whole module when they are built (:mod:`repro.nfil.validate`).  The bridge
NF reads like pseudo-code::

    b = FunctionBuilder("process", params=("pkt", "len", "in_port"))
    short = b.ult(b.param("len"), 14)
    b.br(short, "drop", "lookup")
    b.block("drop")
    b.ret(DROP)
    b.block("lookup")
    ...
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.nfil.instructions import (
    ACCESS_SIZES,
    BinOp,
    Br,
    Call,
    Cmp,
    ConstInstr,
    Instruction,
    Jmp,
    Load,
    Operand,
    Reg,
    Ret,
    Select,
    Store,
    as_operand,
)
from repro.nfil.program import BasicBlock, Function, Param

__all__ = ["BuilderError", "FunctionBuilder"]

OperandLike = Union[Operand, int]


class BuilderError(RuntimeError):
    """The builder was used inconsistently."""


class FunctionBuilder:
    """Builds one NFIL :class:`~repro.nfil.program.Function` fluently."""

    def __init__(
        self,
        name: str,
        params: Sequence[str] = (),
        *,
        entry: str = "entry",
    ) -> None:
        self._function = Function(name=name, params=[Param(p) for p in params], entry=entry)
        self._current: Optional[BasicBlock] = None
        self._temp_counter = 0
        self.block(entry)

    # ------------------------------------------------------------------ #
    # Blocks and labels
    # ------------------------------------------------------------------ #
    def block(self, label: str) -> "FunctionBuilder":
        """Create (or switch to) the block named ``label``."""
        block = self._function.block(label)
        if block.terminator is not None:
            raise BuilderError(f"block {label!r} is already terminated")
        self._current = block
        return self

    # ------------------------------------------------------------------ #
    # Operand helpers
    # ------------------------------------------------------------------ #
    def param(self, name: str) -> Reg:
        """Return the register holding the parameter ``name``."""
        if name not in self._function.param_names():
            raise BuilderError(f"unknown parameter {name!r}")
        return Reg(name)

    def _fresh(self, name: Optional[str]) -> str:
        if name is not None:
            return name
        self._temp_counter += 1
        return f"t{self._temp_counter - 1}"

    def _append(self, instruction: Instruction) -> None:
        if self._current is None:  # pragma: no cover - defensive
            raise BuilderError("no current block")
        if self._current.terminator is not None:
            raise BuilderError(
                f"appending {instruction} after terminator in {self._current.label!r}"
            )
        self._current.append(instruction)

    # ------------------------------------------------------------------ #
    # Instructions
    # ------------------------------------------------------------------ #
    def const(self, value: int, name: Optional[str] = None) -> Reg:
        dest = self._fresh(name)
        self._append(ConstInstr(dest, value))
        return Reg(dest)

    def binop(self, op: str, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        dest = self._fresh(name)
        self._append(BinOp(op, dest, as_operand(a), as_operand(b)))
        return Reg(dest)

    def cmp(self, op: str, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        dest = self._fresh(name)
        self._append(Cmp(op, dest, as_operand(a), as_operand(b)))
        return Reg(dest)

    def select(
        self,
        cond: OperandLike,
        a: OperandLike,
        b: OperandLike,
        name: Optional[str] = None,
    ) -> Reg:
        dest = self._fresh(name)
        self._append(Select(dest, as_operand(cond), as_operand(a), as_operand(b)))
        return Reg(dest)

    def load(self, addr: OperandLike, size: int = 8, name: Optional[str] = None) -> Reg:
        if size not in ACCESS_SIZES:
            raise BuilderError(f"illegal load size {size}")
        dest = self._fresh(name)
        self._append(Load(dest, as_operand(addr), size))
        return Reg(dest)

    def store(self, addr: OperandLike, value: OperandLike, size: int = 8) -> "FunctionBuilder":
        if size not in ACCESS_SIZES:
            raise BuilderError(f"illegal store size {size}")
        self._append(Store(as_operand(addr), as_operand(value), size))
        return self

    def call(
        self,
        callee: str,
        *args: OperandLike,
        name: Optional[str] = None,
        void: bool = False,
    ) -> Optional[Reg]:
        """Emit a call; returns the destination register unless ``void``."""
        operands = tuple(as_operand(arg) for arg in args)
        if void:
            if name is not None:
                raise BuilderError("void call cannot name a destination")
            self._append(Call(None, callee, operands))
            return None
        dest = self._fresh(name)
        self._append(Call(dest, callee, operands))
        return Reg(dest)

    def br(self, cond: OperandLike, then_label: str, else_label: str) -> "FunctionBuilder":
        self._append(Br(as_operand(cond), then_label, else_label))
        return self

    def jmp(self, label: str) -> "FunctionBuilder":
        self._append(Jmp(label))
        return self

    def ret(self, value: Optional[OperandLike] = None) -> "FunctionBuilder":
        self._append(Ret(as_operand(value) if value is not None else None))
        return self

    # Arithmetic / comparison sugar ------------------------------------- #
    def add(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.binop("add", a, b, name)

    def sub(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.binop("sub", a, b, name)

    def mul(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.binop("mul", a, b, name)

    def and_(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.binop("and", a, b, name)

    def or_(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.binop("or", a, b, name)

    def xor(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.binop("xor", a, b, name)

    def shl(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.binop("shl", a, b, name)

    def lshr(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.binop("lshr", a, b, name)

    def eq(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.cmp("eq", a, b, name)

    def ne(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.cmp("ne", a, b, name)

    def ult(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.cmp("ult", a, b, name)

    def ule(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.cmp("ule", a, b, name)

    def ugt(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.cmp("ugt", a, b, name)

    def uge(self, a: OperandLike, b: OperandLike, name: Optional[str] = None) -> Reg:
        return self.cmp("uge", a, b, name)

    # ------------------------------------------------------------------ #
    # Finishing
    # ------------------------------------------------------------------ #
    def build(self) -> Function:
        """Return the finished function, unvalidated."""
        return self._function
