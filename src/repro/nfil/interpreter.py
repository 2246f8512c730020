"""Concrete NFIL interpreter and instrumented memory.

The interpreter executes one NFIL function on concrete 64-bit values.  Every
executed instruction and memory access is reported to an
:class:`repro.nfil.tracer.ExecutionTrace`, which makes the interpreter the
reproduction's replacement for running the NF under Intel Pin (§3.2 of the
paper).  Replay runs the same few functions 10⁴+ times, so each function's
blocks are decoded once, on its first run, into closures with their
operands and operators resolved.

Extern calls (the stateful data-structure methods of the Vigor-style
library) are dispatched to an :class:`ExternHandler`; the handler returns
the call's value together with the instrumented cost of serving it and the
PCV values it observed, so the trace carries everything a performance
contract must bound.

Each operator is compiled once, at import and at the 64-bit register
width, from the source :func:`repro.nfil.instructions.operator_source`
generates for it.  The symbolic layer builds its constant folding, its
``evaluate`` and replay's compiled predicates from the same table, so the
concrete and the symbolic semantics cannot drift apart.  The table lives
in NFIL, the bottom layer, which stays import-free of ``repro.sym``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.nfil.instructions import (
    BINARY_OPS,
    CMP_OPS,
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
    WORD_MASK,
    operator_source,
)
from repro.nfil.program import BasicBlock, Function, Module
from repro.nfil.tracer import ExecutionTrace

__all__ = [
    "ExternHandler",
    "ExternResult",
    "Interpreter",
    "InterpreterError",
    "Memory",
    "StepLimitExceeded",
]


class InterpreterError(RuntimeError):
    """An ill-formed program reached the interpreter."""


class StepLimitExceeded(InterpreterError):
    """The execution exceeded the configured step budget."""


def _truncate(value: int) -> int:
    return value & WORD_MASK


#: ``fn(a, b)`` for every binary operation and predicate, at 64 bits.
_OPERATORS: Dict[str, Callable[[int, int], int]] = {
    op: eval(f"lambda a, b: {operator_source(op, 'a', 'b', WORD_BITS)}")
    for op in (*BINARY_OPS, *CMP_OPS)
}


class Memory:
    """Sparse byte-addressable memory; unwritten bytes read as zero."""

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def load(self, addr: int, size: int) -> int:
        """Load ``size`` bytes little-endian, zero-extended to 64 bits."""
        value = 0
        for offset in range(size):
            value |= self._bytes.get(addr + offset, 0) << (8 * offset)
        return value

    def store(self, addr: int, value: int, size: int) -> None:
        """Store the low ``size`` bytes of ``value`` little-endian."""
        for offset in range(size):
            self._bytes[addr + offset] = (value >> (8 * offset)) & 0xFF

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk-write raw bytes (e.g. a packet buffer)."""
        for offset, byte in enumerate(data):
            self._bytes[addr + offset] = byte

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Bulk-read raw bytes."""
        return bytes(self._bytes.get(addr + offset, 0) for offset in range(size))

    def clear(self) -> None:
        """Reset all memory to zero."""
        self._bytes.clear()


@dataclass(frozen=True)
class ExternResult:
    """What an extern handler returns for one call.

    ``accesses`` optionally carries the concrete addresses the structure
    touched while serving the call (one per counted memory access, in
    touch order) so cache-simulating hardware models can observe the
    structure's locality; an empty tuple means counts only.
    """

    value: Optional[int] = None
    instructions: int = 0
    memory_accesses: int = 0
    pcvs: Mapping[str, int] = field(default_factory=dict)
    accesses: Tuple[int, ...] = ()


#: Handlers may return a plain int (the value), None (void) or ExternResult.
HandlerFn = Callable[[Tuple[int, ...], Memory], Union[ExternResult, int, None]]


class ExternHandler:
    """Dispatch table for extern (stateful library) calls.

    Either register plain callables with :meth:`register`, or subclass and
    register bound methods in ``__init__`` — the instrumented data
    structures in :mod:`repro.nf` do the latter.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, HandlerFn] = {}

    def register(self, name: str, fn: HandlerFn) -> None:
        """Register the handler for extern ``name``."""
        self._handlers[name] = fn

    def knows(self, name: str) -> bool:
        """Return True when a handler for ``name`` is registered."""
        return name in self._handlers

    def merge(self, other: "ExternHandler") -> "ExternHandler":
        """Adopt every registration of ``other``; returns self.

        Lets an NF that composes several stateful structures (each of which
        is its own handler) present one dispatch table to the interpreter.
        Name collisions raise, since silently shadowing a structure's
        handler would corrupt the cost accounting.
        """
        for name, fn in other._handlers.items():
            if name in self._handlers:
                raise ValueError(f"extern {name!r} already has a handler")
            self._handlers[name] = fn
        return self

    def handle(self, name: str, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        """Serve one extern call; coerce shorthand returns to ExternResult."""
        try:
            fn = self._handlers[name]
        except KeyError:
            raise InterpreterError(f"no handler registered for extern {name!r}") from None
        result = fn(args, memory)
        if result is None:
            return ExternResult(None)
        if isinstance(result, int):
            return ExternResult(result & WORD_MASK)
        return result


#: How a decoded segment ends (its last instruction, or the lack of one).
_CONTROL, _CALL, _RETURN, _FALL = range(4)

#: A body closure: straight-line, memory and extern-call instructions all
#: take ``(registers, memory, trace)``.
_Op = Callable[[Dict[str, int], Memory, ExecutionTrace], None]


class _Segment(NamedTuple):
    """A block decoded once: body closures, then the instruction ending the run.

    An internal call ends a segment too; the block's remaining
    instructions form ``resume``, where execution continues once the
    callee returns.  Fields are unpacked positionally on the hot path.
    """

    ops: Tuple[_Op, ...]
    #: Instructions the segment executes (body plus its end instruction).
    size: int
    #: Steps it consumes: ``len(ops) + 1``; a fall-through spends its last
    #: step on discovering that no terminator follows.
    width: int
    #: ``(category, instructions)`` in first-execution order.
    tally: Tuple[Tuple[str, int], ...]
    kind: int
    #: _CONTROL: ``regs -> next label``; _CALL: ``regs -> (callee,
    #: callee registers, destination)``; _RETURN: ``regs -> value``.
    end: Optional[Callable]
    resume: Optional["_Segment"]
    #: Category of each instruction, in order (step-limit and error paths).
    categories: Tuple[str, ...]
    label: str


def _undefined(function: str, regs: Mapping[str, int], names: Sequence[str]) -> InterpreterError:
    """The error for the first of ``names`` with no value in ``regs``."""
    missing = next(name for name in names if name not in regs)
    return InterpreterError(f"{function}: read of undefined register %{missing}")


def _reader(function: str, operand: Operand) -> Callable[[Dict[str, int]], int]:
    """Resolve one operand into ``regs -> value``."""
    if isinstance(operand, Imm):
        value = operand.value
        return lambda regs: value
    if isinstance(operand, Reg):
        name = operand.name
        names = (name,)

        def read(regs: Dict[str, int]) -> int:
            try:
                return regs[name]
            except KeyError:
                raise _undefined(function, regs, names) from None

        return read

    def bad(regs: Dict[str, int]) -> int:
        raise InterpreterError(f"bad operand {operand!r}")  # pragma: no cover

    return bad


def _tuple_reader(
    function: str, operands: Sequence[Operand]
) -> Callable[[Dict[str, int]], Tuple[int, ...]]:
    """Resolve an argument list into ``regs -> tuple of values``, read in order."""
    if len(operands) > 1 and all(isinstance(operand, Reg) for operand in operands):
        names = tuple(operand.name for operand in operands)
        get = itemgetter(*names)

        def read_all(regs: Dict[str, int]) -> Tuple[int, ...]:
            try:
                return get(regs)
            except KeyError:
                raise _undefined(function, regs, names) from None

        return read_all
    readers = tuple(_reader(function, operand) for operand in operands)
    return lambda regs: tuple([read(regs) for read in readers])


def _binary(function: str, dest: str, fn: Callable[[int, int], int], a: Operand, b: Operand) -> _Op:
    """``regs[dest] = fn(a, b)``, specialised on register/immediate operands."""
    if isinstance(a, Reg) and isinstance(b, (Reg, Imm)):
        x = a.name
        if isinstance(b, Reg):
            y = b.name
            names = (x, y)

            def op(regs: Dict[str, int], memory: Memory, trace: ExecutionTrace) -> None:
                try:
                    regs[dest] = fn(regs[x], regs[y])
                except KeyError:
                    raise _undefined(function, regs, names) from None

            return op
        k = b.value
        names = (x,)

        def op_imm(regs: Dict[str, int], memory: Memory, trace: ExecutionTrace) -> None:
            try:
                regs[dest] = fn(regs[x], k)
            except KeyError:
                raise _undefined(function, regs, names) from None

        return op_imm
    read_a, read_b = _reader(function, a), _reader(function, b)

    def op_any(regs: Dict[str, int], memory: Memory, trace: ExecutionTrace) -> None:
        regs[dest] = fn(read_a(regs), read_b(regs))

    return op_any


def _tally(categories: Sequence[str]) -> Tuple[Tuple[str, int], ...]:
    counts: Dict[str, int] = {}
    for category in categories:
        counts[category] = counts.get(category, 0) + 1
    return tuple(counts.items())


class Interpreter:
    """Concrete executor for NFIL modules, doubling as the tracer driver.

    On a function's first run its blocks are decoded once into
    :class:`_Segment` tuples of closures with operands, operator functions
    and instruction categories resolved; every later run only calls them.
    Trace counters, the address stream, extern calls, results and error
    messages are those of executing one instruction at a time — including
    the counts recorded before an error or the step limit interrupts a
    block.
    """

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
        self._decoded: Dict[str, Tuple[Function, Dict[str, _Segment]]] = {}

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
        return self._execute(function, registers, memory, trace), trace

    def _execute(
        self,
        function: Function,
        regs: Dict[str, int],
        memory: Memory,
        trace: ExecutionTrace,
    ) -> Optional[int]:
        max_steps = self.max_steps
        counts = trace.category_counts
        blocks = self._blocks(function)
        label = function.entry
        seg = blocks.get(label)
        # Suspended callers: (function, blocks, resume segment, registers, dest).
        frames: List[Tuple[Function, Dict[str, _Segment], _Segment, Dict[str, int], Optional[str]]]
        frames = []
        steps = 0
        op = None
        try:
            while True:
                if seg is None:
                    if steps >= max_steps:
                        raise StepLimitExceeded(f"exceeded {max_steps} steps")
                    raise InterpreterError(f"{function.name}: unknown block {label!r}")
                ops, size, width, tally, kind, end, resume, _, _ = seg
                steps += width
                if steps > max_steps:
                    self._exhaust(seg, width - (steps - max_steps), regs, memory, trace)
                trace.instructions += size
                for category, n in tally:
                    counts[category] = counts.get(category, 0) + n
                for op in ops:
                    op(regs, memory, trace)
                op = None
                if kind is _CONTROL:
                    label = end(regs)
                    seg = blocks.get(label)
                elif kind is _RETURN:
                    value = end(regs)
                    if not frames:
                        return value
                    callee_name = function.name
                    function, blocks, seg, regs, dest = frames.pop()
                    if dest is not None:
                        if value is None:
                            raise InterpreterError(f"{callee_name} returned void into %{dest}")
                        regs[dest] = value
                elif kind is _CALL:
                    callee, callee_regs, dest = end(regs)
                    frames.append((function, blocks, resume, regs, dest))
                    function, regs = callee, callee_regs
                    blocks = self._blocks(callee)
                    label = callee.entry
                    seg = blocks.get(label)
                else:
                    raise InterpreterError(
                        f"{function.name}:{seg.label} fell through without terminator"
                    )
        except BaseException:
            # Counts went in for the whole segment up front; take back those
            # of the instructions after the one that raised.
            if op is not None:
                for category in seg.categories[seg.ops.index(op) + 1 :]:
                    trace.instructions -= 1
                    counts[category] -= 1
                    if not counts[category]:
                        del counts[category]
            raise

    def _exhaust(
        self,
        seg: _Segment,
        budget: int,
        regs: Dict[str, int],
        memory: Memory,
        trace: ExecutionTrace,
    ) -> None:
        """Run the ``budget`` instructions left before the step limit, then raise."""
        for op, category in zip(seg.ops[:budget], seg.categories):
            trace.record_instruction(category)
            op(regs, memory, trace)
        raise StepLimitExceeded(f"exceeded {self.max_steps} steps")

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def _blocks(self, function: Function) -> Dict[str, _Segment]:
        cached = self._decoded.get(function.name)
        if cached is None or cached[0] is not function:
            cached = (
                function,
                {
                    label: self._decode_block(function.name, block)
                    for label, block in function.blocks.items()
                },
            )
            self._decoded[function.name] = cached
        return cached[1]

    def _decode_block(self, function: str, block: BasicBlock) -> _Segment:
        pieces: List[Tuple[List[_Op], List[str], int, Optional[Callable]]] = []
        ops: List[_Op] = []
        categories: List[str] = []
        for instruction in block.instructions:
            categories.append(instruction.category)
            if isinstance(instruction, (Br, Jmp)):
                pieces.append((ops, categories, _CONTROL, self._control(function, instruction)))
                break
            if isinstance(instruction, Ret):
                ret = (
                    _reader(function, instruction.value)
                    if instruction.value is not None
                    else lambda regs: None
                )
                pieces.append((ops, categories, _RETURN, ret))
                break
            if isinstance(instruction, Call) and not self.module.is_extern(instruction.callee):
                pieces.append((ops, categories, _CALL, self._internal_call(function, instruction)))
                ops, categories = [], []
                continue
            ops.append(self._op(function, instruction))
        else:
            pieces.append((ops, categories, _FALL, None))
        segment: Optional[_Segment] = None
        for ops, categories, kind, end in reversed(pieces):
            segment = _Segment(
                tuple(ops),
                len(categories),
                len(ops) + 1,
                _tally(categories),
                kind,
                end,
                segment,
                tuple(categories),
                block.label,
            )
        return segment  # type: ignore[return-value]  # pieces is never empty

    def _control(self, function: str, instruction: Union[Br, Jmp]) -> Callable:
        if isinstance(instruction, Jmp):
            target = instruction.label
            return lambda regs: target
        then_label, else_label = instruction.then_label, instruction.else_label
        cond = _reader(function, instruction.cond)
        return lambda regs: then_label if cond(regs) != 0 else else_label

    def _internal_call(self, function: str, instruction: Call) -> Callable:
        module, name, dest = self.module, instruction.callee, instruction.dest
        read_args = _tuple_reader(function, instruction.args)

        def call(regs: Dict[str, int]) -> Tuple[Function, Dict[str, int], Optional[str]]:
            args = read_args(regs)
            callee = module.functions.get(name)
            if callee is None:
                raise InterpreterError(f"call to unknown symbol {name!r}")
            if len(args) != len(callee.params):
                raise InterpreterError(
                    f"{callee.name} expects {len(callee.params)} args, got {len(args)}"
                )
            return callee, {param.name: value for param, value in zip(callee.params, args)}, dest

        return call

    def _op(self, function: str, instruction: Instruction) -> _Op:
        """Decode one non-terminator instruction into a body closure."""
        if isinstance(instruction, ConstInstr):
            dest, value = instruction.dest, _truncate(instruction.value)

            def const(regs: Dict[str, int], memory: Memory, trace: ExecutionTrace) -> None:
                regs[dest] = value

            return const
        if isinstance(instruction, (BinOp, Cmp)):
            fn = _OPERATORS[instruction.op]
            return _binary(function, instruction.dest, fn, instruction.a, instruction.b)
        if isinstance(instruction, Select):
            dest = instruction.dest
            cond = _reader(function, instruction.cond)
            read_a, read_b = _reader(function, instruction.a), _reader(function, instruction.b)

            def select(regs: Dict[str, int], memory: Memory, trace: ExecutionTrace) -> None:
                regs[dest] = read_a(regs) if cond(regs) != 0 else read_b(regs)

            return select
        if isinstance(instruction, Load):
            dest, size = instruction.dest, instruction.size
            addr = _reader(function, instruction.addr)

            def load(regs: Dict[str, int], memory: Memory, trace: ExecutionTrace) -> None:
                at = addr(regs)
                trace.record_access(at, size, "load", function)
                regs[dest] = memory.load(at, size)

            return load
        if isinstance(instruction, Store):
            size = instruction.size
            addr = _reader(function, instruction.addr)
            read_value = _reader(function, instruction.value)

            def store(regs: Dict[str, int], memory: Memory, trace: ExecutionTrace) -> None:
                at = addr(regs)
                value = read_value(regs)
                trace.record_access(at, size, "store", function)
                memory.store(at, value, size)

            return store
        if isinstance(instruction, Call):
            return self._extern_call(function, instruction)

        def cannot(regs: Dict[str, int], memory: Memory, trace: ExecutionTrace) -> None:
            raise InterpreterError(f"cannot execute {type(instruction).__name__}")

        return cannot

    def _extern_call(self, function: str, instruction: Call) -> _Op:
        decl = self.module.externs[instruction.callee]
        name, arity, dest = decl.name, decl.arity, instruction.dest
        read_args = _tuple_reader(function, instruction.args)
        interpreter = self

        def call(regs: Dict[str, int], memory: Memory, trace: ExecutionTrace) -> None:
            args = read_args(regs)
            if len(args) != arity:
                raise InterpreterError(f"extern {name} expects {arity} args, got {len(args)}")
            # Resolved per call: a traced run wraps ``handle`` on the handler
            # instance after the blocks were decoded.
            result = interpreter.handler.handle(name, args, memory)
            trace.record_extern(
                name,
                args,
                result.value,
                instructions=result.instructions,
                memory_accesses=result.memory_accesses,
                pcvs=result.pcvs,
                accesses=result.accesses,
            )
            if dest is not None:
                if result.value is None:
                    raise InterpreterError(f"extern {name} returned no value into %{dest}")
                regs[dest] = result.value & WORD_MASK

        return call
