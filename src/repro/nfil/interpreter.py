"""Concrete NFIL interpreter and instrumented memory.

The interpreter executes NFIL functions on concrete 64-bit values and
reports every executed instruction, memory access and extern call to an
:class:`repro.nfil.tracer.ExecutionTrace`.  That makes it the
reproduction's stand-in for the paper's measurement (§3.2), where the NF
runs as compiled code and Intel Pin only counts what it executes.  Here
too each function runs compiled: on its first run, the interpreter emits
one Python ``def`` for it and compiles that.  Like the symbolic engine,
the interpreter takes only modules
:func:`repro.nfil.validate.validate_module` accepts, and checks that when
it is built, so the generated code assumes every invariant the validator
enforces: each block ends in its one terminator, each target and callee
exists and is called with its arity, and each register read is defined on
every path to it.

* Registers become locals; blocks become integer labels dispatched in one
  loop; internal calls become Python calls.
* Each *segment* — a block's instructions up to its terminator or an
  internal call — does one step-limit check and one set of count updates.
* Operators are inlined from :func:`repro.nfil.instructions.operator_source`.
  The symbolic layer builds its constant folding, its ``evaluate`` and
  replay's compiled predicates from the same table, so the concrete and
  the symbolic semantics cannot drift apart.
* Loads and stores inside the packet window of :class:`Memory` index its
  ``bytearray`` directly; the address stream is a list of addresses.

The trace is the one executing one instruction at a time records, and the
success path pays nothing for keeping it so:

* When an instruction raises (a handler's error, a missing handler, a
  void value written to a register), the traceback line of the generated
  code names it, and the counts of the rest of its segment are taken back.
* A segment that would cross the step limit runs a *budgeted copy* of
  itself instead, emitted from the same per-instruction templates, which
  checks and counts each instruction before running it.
* A call chain deeper than Python's recursion limit fails as an
  :class:`InterpreterError`.

Extern calls (the stateful data-structure methods of the Vigor-style
library) are dispatched to an :class:`ExternHandler`; the handler returns
the call's value together with the instrumented cost of serving it and the
PCV values it observed, so the trace carries everything a performance
contract must bound.
"""

from __future__ import annotations

import struct
import traceback
from collections import Counter
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.nfil.instructions import (
    BINARY_OPS,
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
    WORD_BITS,
    WORD_MASK,
    operator_source,
)
from repro.nfil.program import Function, Module
from repro.nfil.tracer import ExecutionTrace
from repro.nfil.validate import validate_module

__all__ = [
    "ExternHandler",
    "ExternResult",
    "Interpreter",
    "InterpreterError",
    "Memory",
    "StepLimitExceeded",
    "function_source",
]


class InterpreterError(RuntimeError):
    """A run of a validated module failed, or a caller asked for a bad run."""


class StepLimitExceeded(InterpreterError):
    """The execution exceeded the configured step budget."""


def _truncate(value: int) -> int:
    return value & WORD_MASK


class Memory:
    """Byte-addressable memory; unwritten bytes read as zero.

    The first non-empty :meth:`write_bytes` — the packet buffer, on replay —
    becomes a ``bytearray`` *window* that owns its address range from then
    on; every other byte lives in a sparse dict.  Compiled loads and stores
    that fall inside the window index it directly.  ``Memory(base, data)``
    behaves as ``Memory()`` after ``write_bytes(base, data)``.
    """

    __slots__ = ("_bytes", "_base", "_window")

    def __init__(self, base: int = 0, data: bytes = b"") -> None:
        self._bytes: Dict[int, int] = {}
        self._base = base
        self._window = bytearray(data)

    def load(self, addr: int, size: int) -> int:
        """Load ``size`` bytes little-endian, zero-extended to 64 bits."""
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def store(self, addr: int, value: int, size: int) -> None:
        """Store the low ``size`` bytes of ``value`` little-endian."""
        self._put(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk-write raw bytes; the first non-empty write becomes the window."""
        if self._window or not data:
            self._put(addr, data)
            return
        for stale in range(addr, addr + len(data)) if self._bytes else ():
            self._bytes.pop(stale, None)
        self._base, self._window = addr, bytearray(data)

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Bulk-read raw bytes."""
        base, window = self._base, self._window
        if 0 <= addr - base <= len(window) - size:
            return bytes(window[addr - base : addr - base + size])
        return bytes(
            window[at - base] if 0 <= at - base < len(window) else self._bytes.get(at, 0)
            for at in range(addr, addr + size)
        )

    def _put(self, addr: int, data: bytes) -> None:
        base, window = self._base, self._window
        if 0 <= addr - base <= len(window) - len(data):
            window[addr - base : addr - base + len(data)] = data
            return
        for at, byte in enumerate(data, addr):
            if 0 <= at - base < len(window):
                window[at - base] = byte
            else:
                self._bytes[at] = byte


#: The ``pcvs`` of a result that observed none: a read-only mapping, so every
#: such result can share it.
_NO_PCVS: Mapping[str, int] = MappingProxyType({})


class ExternResult(NamedTuple):
    """What an extern handler returns for one call.

    ``accesses`` optionally carries the concrete addresses the structure
    touched while serving the call (one per counted memory access, in
    touch order) so cache-simulating hardware models can observe the
    structure's locality; an empty tuple means counts only.  Library
    structures fill it only while their ``record_accesses`` flag is on
    (:meth:`repro.structures.base.Structure.charge`), which an
    ``NFHarness`` keeps in step with its trace's.
    """

    value: Optional[int] = None
    instructions: int = 0
    memory_accesses: int = 0
    pcvs: Mapping[str, int] = _NO_PCVS
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


# --------------------------------------------------------------------------- #
# Code generation
# --------------------------------------------------------------------------- #
#: Globals of the generated code.
_GLOBALS: Dict[str, object] = {
    "InterpreterError": InterpreterError,
    "StepLimitExceeded": StepLimitExceeded,
}
for _size, _format in ((2, "<H"), (4, "<I"), (8, "<Q")):
    _GLOBALS[f"u{_size}"] = struct.Struct(_format).unpack_from
    _GLOBALS[f"p{_size}"] = struct.Struct(_format).pack_into

_LIMIT = 'raise StepLimitExceeded(f"exceeded {limit} steps")'


class _Emitter:
    """Writes the Python ``def`` of one NFIL function.

    The ``def`` takes ``(interp, memory, trace, steps, limit, *params)``
    and returns ``(value, steps)``; ``steps`` counts the run's executed
    instructions across internal calls.
    """

    def __init__(self, module: Module, function: Function) -> None:
        self.module = module
        self.function = function
        self.lines: List[str] = []
        #: Line number -> the categories its segment counted ahead of the
        #: instruction the line runs, where there are any.
        self.sites: Dict[int, Tuple[str, ...]] = {}
        #: Register -> its local.
        self.names: Dict[str, str] = {}
        #: Sizes of the function's loads and stores, which the prologue binds.
        self.sizes = {
            instruction.size
            for block in function.blocks.values()
            for instruction in block.instructions
            if isinstance(instruction, (Load, Store))
        }
        #: Label -> its number.
        self.labels = {label: number for number, label in enumerate(function.blocks)}

    def source(self) -> str:
        params = "".join(f", {self.local(param.name)}" for param in self.function.params)
        self.emit(f"def run(interp, memory, trace, steps, limit{params}):", 0)
        prologue = ["counts = trace.category_counts", "get = counts.get"]
        if self.sizes:
            prologue += ["rec = trace.record_accesses", "acc = trace.accesses.append"]
            prologue += ["base = memory._base", "win = memory._window"]
            prologue += [f"w{size} = len(win) - {size}" for size in sorted(self.sizes)]
        prologue += [f"label = {self.labels[self.function.entry]}", "while True:"]
        for line in prologue:
            self.emit(line, 1)
        self.dispatch(list(self.labels), 2)
        return "\n".join(self.lines) + "\n"

    # -- helpers --------------------------------------------------------- #
    def emit(self, line: str, indent: int, site: Tuple[str, ...] = ()) -> None:
        self.lines.append("    " * indent + line)
        if site:
            self.sites[len(self.lines)] = site

    def local(self, register: str) -> str:
        name = self.names.get(register)
        if name is None:
            name = self.names[register] = f"r{len(self.names)}"
        return name

    def operand(self, operand: Operand) -> str:
        return self.local(operand.name) if isinstance(operand, Reg) else str(operand.value)

    def fail(self, message: str, indent: int, site: Tuple[str, ...] = ()) -> None:
        self.emit(f"raise InterpreterError({message!r})", indent, site)

    # -- control --------------------------------------------------------- #
    def dispatch(self, labels: List[str], indent: int) -> None:
        """A balanced ``if`` tree over label numbers, one block per leaf."""
        if len(labels) == 1:
            self.block(labels[0], indent)
            return
        middle = len(labels) // 2
        self.emit(f"if label < {self.labels[labels[middle]]}:", indent)
        self.dispatch(labels[:middle], indent + 1)
        self.emit("else:", indent)
        self.dispatch(labels[middle:], indent + 1)

    def block(self, label: str, indent: int) -> None:
        """One segment per internal call, and one ending in the block's terminator."""
        self.emit(f"# {label}", indent)
        segment: List[Instruction] = []
        for instruction in self.function.blocks[label].instructions:
            segment.append(instruction)
            if instruction.is_terminator() or (
                isinstance(instruction, Call) and not self.module.is_extern(instruction.callee)
            ):
                self.segment(segment, indent)
                segment = []

    def segment(self, instructions: List[Instruction], indent: int) -> None:
        """Count and run ``instructions``; all but the last run before the limit can hit."""
        self.emit(f"steps += {len(instructions)}", indent)
        self.emit("if steps > limit:", indent)
        self.emit(f"steps -= {len(instructions)}", indent + 1)
        for instruction in instructions[:-1]:
            self.emit(f"if steps >= limit: {_LIMIT}", indent + 1)
            self.emit("steps += 1", indent + 1)
            self.count(instruction.category, 1, indent + 1)
            self.instruction(instruction, indent + 1, ())
        self.emit(_LIMIT, indent + 1)
        categories = [instruction.category for instruction in instructions]
        for category, count in Counter(categories).items():
            self.count(category, count, indent)
        for index, instruction in enumerate(instructions):
            self.instruction(instruction, indent, tuple(categories[index + 1 :]))

    def count(self, category: str, count: int, indent: int) -> None:
        self.emit(f"counts[{category!r}] = get({category!r}, 0) + {count}", indent)

    # -- instructions ---------------------------------------------------- #
    def instruction(self, instruction: Instruction, indent: int, site: Tuple[str, ...]) -> None:
        def emit(line: str, extra: int = 0) -> None:
            self.emit(line, indent + extra, site)

        self.emit(f"# {instruction}", indent)
        if isinstance(instruction, ConstInstr):
            emit(f"{self.local(instruction.dest)} = {_truncate(instruction.value)}")
        elif isinstance(instruction, (BinOp, Cmp)):
            a, b = self.operand(instruction.a), self.operand(instruction.b)
            if isinstance(instruction, BinOp) and isinstance(instruction.a, Reg) and (
                " if " in BINARY_OPS[instruction.op]
            ):
                # The reference reads both operands first; this template
                # reads ``a`` on one side of its condition only.
                emit(a)
            value = operator_source(instruction.op, a, b, WORD_BITS)
            emit(f"{self.local(instruction.dest)} = {value}")
        elif isinstance(instruction, Select):
            cond, a, b = (self.operand(x) for x in instruction.operands())
            emit(f"{self.local(instruction.dest)} = {a} if {cond} else {b}")
        elif isinstance(instruction, Load):
            size, addr = instruction.size, self.operand(instruction.addr)
            emit(f"o = {addr} - base")
            emit(f"if rec: acc({addr})")
            read = "win[o]" if size == 1 else f"u{size}(win, o)[0]"
            dest = self.local(instruction.dest)
            emit(f"{dest} = {read} if 0 <= o <= w{size} else memory.load({addr}, {size})")
        elif isinstance(instruction, Store):
            size, addr = instruction.size, self.operand(instruction.addr)
            emit(f"o = {addr} - base")
            emit(f"v = {self.operand(instruction.value)}")
            emit(f"if rec: acc({addr})")
            emit(f"if 0 <= o <= w{size}:")
            mask = (1 << (8 * size)) - 1
            emit(f"win[o] = v & {mask}" if size == 1 else f"p{size}(win, o, v & {mask})", 1)
            emit("else:")
            emit(f"memory.store({addr}, v, {size})", 1)
        elif isinstance(instruction, Call):
            self.call(instruction, emit, site, indent)
        elif isinstance(instruction, Br):
            then, other = self.labels[instruction.then_label], self.labels[instruction.else_label]
            emit(f"label = {then} if {self.operand(instruction.cond)} else {other}")
        elif isinstance(instruction, Jmp):
            emit(f"label = {self.labels[instruction.label]}")
        elif isinstance(instruction, Ret):
            value = "None" if instruction.value is None else self.operand(instruction.value)
            emit(f"return {value}, steps")
        else:
            self.fail(f"cannot execute {type(instruction).__name__}", indent, site)

    def call(self, instruction: Call, emit: Callable, site: Tuple[str, ...], indent: int) -> None:
        args = "".join(f"{self.operand(arg)}, " for arg in instruction.args)
        dest = instruction.dest
        emit(f"args = ({args})")
        if not self.module.is_extern(instruction.callee):
            call = f"interp._call({instruction.callee!r}, memory, trace, steps, limit, args)"
            emit(f"value, steps = {call}")
            if dest is not None:
                emit("if value is None:")
                self.fail(f"{instruction.callee} returned void into %{dest}", indent + 1, site)
                emit(f"{self.local(dest)} = value")
            return
        decl = self.module.externs[instruction.callee]
        # ``handle`` is looked up per call: a traced run wraps it on the
        # handler instance after the function was compiled.
        emit(f"res = interp.handler.handle({decl.name!r}, args, memory)")
        emit(f"trace.record_extern({decl.name!r}, args, res)")
        if dest is not None:
            emit("if res.value is None:")
            self.fail(f"extern {decl.name} returned no value into %{dest}", indent + 1, site)
            emit(f"{self.local(dest)} = res.value & {WORD_MASK}")


def function_source(module: Module, name: str) -> str:
    """The Python source the interpreter compiles for function ``name``.

    Raises:
        ValidationError: ``module`` is not well-formed.
    """
    return _Emitter(validate_module(module), module.get_function(name)).source()


class _Compiled(NamedTuple):
    name: str
    run: Callable[..., Tuple[Optional[int], int]]
    sites: Dict[int, Tuple[str, ...]]


class Interpreter:
    """Concrete executor for NFIL modules, doubling as the tracer driver.

    The module is validated when the interpreter is built, and each of its
    functions is compiled to Python source once, on its first run (see the
    module docstring).  Trace counters, the address stream, extern calls,
    results and error messages are those of executing one instruction at a
    time — including the counts recorded before an error or the step
    limit interrupts a segment.

    Raises:
        ValidationError: ``module`` is not well-formed.
    """

    def __init__(
        self,
        module: Module,
        *,
        handler: Optional[ExternHandler] = None,
        max_steps: int = 1_000_000,
    ) -> None:
        self.module = validate_module(module)
        self.handler = handler or ExternHandler()
        self.max_steps = max_steps
        self._compiled: Dict[str, _Compiled] = {}

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
        run = self._compile(function_name).run
        registers = [int(value) & WORD_MASK for value in args]
        counts = trace.category_counts
        loads, stores = counts.get("load", 0), counts.get("store", 0)
        try:
            value, steps = run(self, memory, trace, 0, self.max_steps, *registers)
        except BaseException as error:
            steps, replacement = self._unwind(error, counts)
            self._count(trace, steps, loads, stores)
            if replacement is None:
                raise
            raise replacement from None
        self._count(trace, steps, loads, stores)
        return value, trace

    @staticmethod
    def _count(trace: ExecutionTrace, steps: int, loads: int, stores: int) -> None:
        """Add the run's instructions and its loads' and stores' accesses to ``trace``."""
        counts = trace.category_counts
        trace.instructions += steps
        trace.mem_reads += counts.get("load", 0) - loads
        trace.mem_writes += counts.get("store", 0) - stores

    def _unwind(
        self, error: BaseException, counts: Dict[str, int]
    ) -> Tuple[int, Optional[InterpreterError]]:
        """Find where ``error`` left the generated code; take back what did not run.

        Returns the run's steps and the error to raise in place of ``error``.
        """
        compiled = {entry.run.__code__: entry for entry in self._compiled.values()}
        where = None
        for frame, line in traceback.walk_tb(error.__traceback__):
            if frame.f_code in compiled:
                where = (compiled[frame.f_code], frame.f_locals["steps"], line)
        if where is None:
            return 0, None
        entry, steps, line = where
        rest = entry.sites.get(line, ())
        for category in rest:
            counts[category] -= 1
            if not counts[category]:
                del counts[category]
        steps -= len(rest)
        if isinstance(error, RecursionError):
            message = f"{entry.name}: internal calls nest deeper than the Python recursion limit"
            return steps, InterpreterError(message)
        return steps, None

    def _call(
        self, name: str, memory: Memory, trace: ExecutionTrace, steps: int, limit: int, args: tuple
    ) -> Tuple[Optional[int], int]:
        """Run internal function ``name`` for a compiled caller."""
        return self._compile(name).run(self, memory, trace, steps, limit, *args)

    def _compile(self, name: str) -> _Compiled:
        compiled = self._compiled.get(name)
        if compiled is None:
            emitter = _Emitter(self.module, self.module.functions[name])
            namespace = dict(_GLOBALS)
            exec(compile(emitter.source(), f"<nfil {name}>", "exec"), namespace)
            compiled = self._compiled[name] = _Compiled(name, namespace["run"], emitter.sites)
        return compiled
