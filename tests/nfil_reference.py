"""Reference NFIL interpreter: one instruction per loop iteration.

This is the straightforward per-instruction executor that
:class:`repro.nfil.interpreter.Interpreter` replaced with decoded blocks.
Nothing in the package selects it; the differential tests run every NF
workload through both and require identical traces, results and errors.

Its operators come from :data:`ORACLE`, written from the semantics
documented in :mod:`repro.nfil.instructions` and sharing no code with the
package's operator table: wraparound is ``% 2**w``, shifts multiply or
divide by ``2**b``, and a two's-complement value is found by subtracting
``2**w``.  The differential tests therefore check what each operator
computes, not only how instructions are decoded and dispatched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.nfil.instructions import (
    BinOp,
    Br,
    Call,
    Cmp,
    ConstInstr,
    Imm,
    Instruction,
    Jmp,
    Load,
    Operand,
    Reg,
    Ret,
    Select,
    Store,
    WORD_BITS,
)
from repro.nfil.interpreter import ExternHandler, InterpreterError, Memory, StepLimitExceeded
from repro.nfil.program import Function, Module
from repro.nfil.tracer import ExecutionTrace


def _signed(value: int, w: int) -> int:
    """The two's-complement reading of an unsigned ``w``-bit value."""
    return value - 2**w if value >= 2 ** (w - 1) else value


#: ``fn(a, b, w)`` for every NFIL operator, on unsigned ``w``-bit operands.
ORACLE: Dict[str, Callable[[int, int, int], int]] = {
    "add": lambda a, b, w: (a + b) % 2**w,
    "sub": lambda a, b, w: (a - b) % 2**w,
    "mul": lambda a, b, w: (a * b) % 2**w,
    "udiv": lambda a, b, w: a // b if b != 0 else 2**w - 1,
    "urem": lambda a, b, w: a % b if b != 0 else a,
    "and": lambda a, b, w: a & b,
    "or": lambda a, b, w: a | b,
    "xor": lambda a, b, w: a ^ b,
    "shl": lambda a, b, w: (a * 2**b) % 2**w if b < w else 0,
    "lshr": lambda a, b, w: a // 2**b if b < w else 0,
    "eq": lambda a, b, w: int(a == b),
    "ne": lambda a, b, w: int(a != b),
    "ult": lambda a, b, w: int(a < b),
    "ule": lambda a, b, w: int(a <= b),
    "ugt": lambda a, b, w: int(a > b),
    "uge": lambda a, b, w: int(a >= b),
    "slt": lambda a, b, w: int(_signed(a, w) < _signed(b, w)),
    "sle": lambda a, b, w: int(_signed(a, w) <= _signed(b, w)),
    "sgt": lambda a, b, w: int(_signed(a, w) > _signed(b, w)),
    "sge": lambda a, b, w: int(_signed(a, w) >= _signed(b, w)),
}


def _truncate(value: int) -> int:
    return value % 2**WORD_BITS


@dataclass
class _Frame:
    function: Function
    block: str
    index: int
    registers: Dict[str, int]
    ret_dest: Optional[str]


class ReferenceInterpreter:
    """Per-instruction NFIL executor with the same API as ``Interpreter``."""

    def __init__(
        self,
        module: Module,
        *,
        handler: Optional[ExternHandler] = None,
        max_steps: int = 1_000_000,
    ) -> None:
        self.module = module
        self.handler = handler or ExternHandler()
        self.max_steps = max_steps

    def run(
        self,
        function_name: str,
        args: Sequence[int],
        *,
        memory: Optional[Memory] = None,
        trace: Optional[ExecutionTrace] = None,
    ) -> Tuple[Optional[int], ExecutionTrace]:
        """Execute ``function_name`` on concrete ``args``.

        Returns:
            ``(return value or None, execution trace)``.
        """
        function = self.module.functions.get(function_name)
        if function is None:
            raise InterpreterError(f"unknown function {function_name!r}")
        if len(args) != len(function.params):
            raise InterpreterError(
                f"{function_name} expects {len(function.params)} args, got {len(args)}"
            )
        memory = memory if memory is not None else Memory()
        trace = trace if trace is not None else ExecutionTrace()
        registers = {
            param.name: _truncate(int(value))
            for param, value in zip(function.params, args)
        }
        frames: List[_Frame] = [_Frame(function, function.entry, 0, registers, None)]
        steps = 0
        while frames:
            if steps >= self.max_steps:
                raise StepLimitExceeded(f"exceeded {self.max_steps} steps")
            steps += 1
            frame = frames[-1]
            block = frame.function.blocks.get(frame.block)
            if block is None:
                raise InterpreterError(f"{frame.function.name}: unknown block {frame.block!r}")
            if frame.index >= len(block.instructions):
                raise InterpreterError(
                    f"{frame.function.name}:{frame.block} fell through without terminator"
                )
            instruction = block.instructions[frame.index]
            frame.index += 1
            trace.record_instruction(self._category(instruction))
            returned = self._step(instruction, frame, frames, memory, trace)
            if returned is not _NOT_RETURNED:
                return returned, trace
        raise InterpreterError("empty frame stack")  # pragma: no cover - defensive

    # ------------------------------------------------------------------ #
    # Instruction dispatch
    # ------------------------------------------------------------------ #
    @staticmethod
    def _category(instruction: Instruction) -> str:
        return instruction.category

    def _value(self, operand: Operand, frame: _Frame) -> int:
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Reg):
            try:
                return frame.registers[operand.name]
            except KeyError:
                raise InterpreterError(
                    f"{frame.function.name}: read of undefined register %{operand.name}"
                ) from None
        raise InterpreterError(f"bad operand {operand!r}")  # pragma: no cover

    def _step(
        self,
        instruction: Instruction,
        frame: _Frame,
        frames: List[_Frame],
        memory: Memory,
        trace: ExecutionTrace,
    ) -> Optional[int]:
        regs = frame.registers
        if isinstance(instruction, ConstInstr):
            regs[instruction.dest] = _truncate(instruction.value)
        elif isinstance(instruction, (BinOp, Cmp)):
            a = self._value(instruction.a, frame)
            b = self._value(instruction.b, frame)
            regs[instruction.dest] = ORACLE[instruction.op](a, b, WORD_BITS)
        elif isinstance(instruction, Select):
            cond = self._value(instruction.cond, frame)
            picked = instruction.a if cond != 0 else instruction.b
            regs[instruction.dest] = self._value(picked, frame)
        elif isinstance(instruction, Load):
            addr = self._value(instruction.addr, frame)
            trace.record_access(addr, instruction.size, "load", frame.function.name)
            regs[instruction.dest] = memory.load(addr, instruction.size)
        elif isinstance(instruction, Store):
            addr = self._value(instruction.addr, frame)
            value = self._value(instruction.value, frame)
            trace.record_access(addr, instruction.size, "store", frame.function.name)
            memory.store(addr, value, instruction.size)
        elif isinstance(instruction, Br):
            cond = self._value(instruction.cond, frame)
            frame.block = instruction.then_label if cond != 0 else instruction.else_label
            frame.index = 0
        elif isinstance(instruction, Jmp):
            frame.block = instruction.label
            frame.index = 0
        elif isinstance(instruction, Call):
            self._call(instruction, frame, frames, memory, trace)
        elif isinstance(instruction, Ret):
            value = (
                self._value(instruction.value, frame)
                if instruction.value is not None
                else None
            )
            frames.pop()
            if not frames:
                return value
            caller = frames[-1]
            if caller.ret_dest is not None:
                if value is None:
                    raise InterpreterError(
                        f"{frame.function.name} returned void into %{caller.ret_dest}"
                    )
                caller.registers[caller.ret_dest] = value
                caller.ret_dest = None
        else:  # pragma: no cover - defensive
            raise InterpreterError(f"cannot execute {type(instruction).__name__}")
        return _NOT_RETURNED

    def _call(
        self,
        instruction: Call,
        frame: _Frame,
        frames: List[_Frame],
        memory: Memory,
        trace: ExecutionTrace,
    ) -> None:
        args = tuple(self._value(arg, frame) for arg in instruction.args)
        if self.module.is_extern(instruction.callee):
            decl = self.module.externs[instruction.callee]
            if len(args) != decl.arity:
                raise InterpreterError(
                    f"extern {decl.name} expects {decl.arity} args, got {len(args)}"
                )
            result = self.handler.handle(decl.name, args, memory)
            trace.record_extern(
                decl.name,
                args,
                result.value,
                instructions=result.instructions,
                memory_accesses=result.memory_accesses,
                pcvs=result.pcvs,
                accesses=result.accesses,
            )
            if instruction.dest is not None:
                if result.value is None:
                    raise InterpreterError(
                        f"extern {decl.name} returned no value into %{instruction.dest}"
                    )
                frame.registers[instruction.dest] = _truncate(result.value)
            return
        callee = self.module.functions.get(instruction.callee)
        if callee is None:
            raise InterpreterError(f"call to unknown symbol {instruction.callee!r}")
        if len(args) != len(callee.params):
            raise InterpreterError(
                f"{callee.name} expects {len(callee.params)} args, got {len(args)}"
            )
        frame.ret_dest = instruction.dest
        registers = {param.name: value for param, value in zip(callee.params, args)}
        frames.append(_Frame(callee, callee.entry, 0, registers, None))


#: Sentinel distinguishing "no top-level return yet" from "returned None".
_NOT_RETURNED = object()
