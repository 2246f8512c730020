"""Tests for the NFIL layer: builder, validator, interpreter, tracer."""

import sys

import pytest

from nfil_reference import ReferenceInterpreter, ReferenceMemory
from repro.nfil import (
    ExternResult,
    FunctionBuilder,
    Interpreter,
    Memory,
    Module,
    StepLimitExceeded,
    ValidationError,
    validate_function,
    validate_module,
)
from repro.nfil.builder import BuilderError
from repro.nfil.instructions import BinOp, Reg
from repro.nfil.interpreter import ExternHandler, InterpreterError
from repro.nfil.tracer import ExecutionTrace


def _max_module():
    b = FunctionBuilder("umax", params=("a", "b"))
    cond = b.ult(b.param("a"), b.param("b"))
    b.br(cond, "lt", "ge")
    b.block("lt")
    b.ret(b.param("b"))
    b.block("ge")
    b.ret(b.param("a"))
    module = Module("t")
    module.add_function(b.build())
    return module


def test_builder_produces_valid_function():
    module = _max_module()
    validate_module(module)
    assert module.get_function("umax").instruction_count() == 4


def test_builder_rejects_append_after_terminator():
    b = FunctionBuilder("f")
    b.ret(0)
    with pytest.raises(BuilderError):
        b.const(1)


def test_validator_rejects_missing_terminator():
    b = FunctionBuilder("f")
    b.const(1)
    with pytest.raises(ValidationError):
        validate_function(b.build())


def test_validator_rejects_use_before_def_across_branches():
    # %v is defined on only one side of a diamond; the join uses it.
    b = FunctionBuilder("f", params=("c",))
    b.br(b.param("c"), "yes", "no")
    b.block("yes")
    b.const(1, name="v")
    b.jmp("join")
    b.block("no")
    b.jmp("join")
    b.block("join")
    b.ret(b.binop("add", b.param("c"), b.param("c")))
    fn = b.build()
    fn.blocks["join"].instructions.insert(0, BinOp("add", "w", Reg("v"), Reg("c")))
    with pytest.raises(ValidationError, match="used before definition"):
        validate_function(fn)


def test_validator_rejects_unknown_branch_target():
    b = FunctionBuilder("f")
    b.jmp("nowhere")
    with pytest.raises(ValidationError, match="unknown block"):
        validate_function(b.build())


def test_validator_checks_extern_arity_and_void():
    module = Module("m")
    module.declare_extern("ext_void", 1, returns_value=False)
    b = FunctionBuilder("f", params=("x",))
    b.call("ext_void", b.param("x"), b.param("x"), void=True)
    b.ret()
    module.add_function(b.build())
    with pytest.raises(ValidationError, match="expects 1 args"):
        validate_module(module)


def test_interpreter_runs_branches_and_counts():
    module = _max_module()
    interp = Interpreter(module)
    result, trace = interp.run("umax", [3, 9])
    assert result == 9
    result2, trace2 = interp.run("umax", [9, 3])
    assert result2 == 9
    # cmp, br, ret on either path
    assert trace.instructions == trace2.instructions == 3
    assert trace.category_counts["cmp"] == 1
    assert trace.category_counts["branch"] == 1


def test_interpreter_memory_and_trace_accesses():
    b = FunctionBuilder("swap16", params=("addr",))
    lo = b.load(b.param("addr"), size=1)
    hi = b.load(b.add(b.param("addr"), 1), size=1)
    b.store(b.param("addr"), hi, size=1)
    b.store(b.add(b.param("addr"), 1), lo, size=1)
    b.ret()
    module = Module("m")
    module.add_function(b.build())

    memory = Memory()
    memory.write_bytes(0x100, bytes([0xAA, 0xBB]))
    result, trace = Interpreter(module).run("swap16", [0x100], memory=memory)
    assert result is None
    assert memory.read_bytes(0x100, 2) == bytes([0xBB, 0xAA])
    assert trace.mem_reads == 2
    assert trace.mem_writes == 2
    assert trace.memory_accesses == 4
    assert trace.accesses == [0x100, 0x101, 0x100, 0x101]


#: A 16-byte window at 0x100 and the bytes around both of its edges.
WINDOW, SPAN = 0x100, range(0xF4, 0x11C)


def _same_bytes(memory, reference):
    assert memory.read_bytes(SPAN.start, len(SPAN)) == reference.read_bytes(SPAN.start, len(SPAN))
    for size in (1, 2, 4, 8):
        for addr in SPAN:
            assert memory.load(addr, size) == reference.load(addr, size), (addr, size)


def test_memory_window_keeps_the_bytes_of_sparse_memory():
    """Window edges, overlapping bulk writes and wide values, against the oracle."""
    memory, reference = Memory(), ReferenceMemory()
    writes = [
        ("store", 0x300, 0xAB, 1),  # sparse before any window exists
        ("write_bytes", WINDOW, bytes(range(1, 17))),  # becomes the window
        ("store", WINDOW - 3, 0x1122334455667788, 8),  # across the low edge
        ("store", WINDOW + 13, 0x99AABBCCDDEEFF00, 8),  # across the high edge
        ("store", WINDOW + 4, (0xDEAD << 64) | 0xBEEF, 2),  # wider than its size
        ("store", WINDOW + 20, (1 << 40) - 1, 4),  # beyond the window, truncated
        ("write_bytes", WINDOW + 10, bytes([0x5A] * 12)),  # overlaps the window's end
        ("write_bytes", WINDOW - 2, b"\xc3\xc4"),  # ends where the window starts
    ]
    for name, *args in writes:
        getattr(memory, name)(*args)
        getattr(reference, name)(*args)
        _same_bytes(memory, reference)
    assert memory.read_bytes(0x2FF, 3) == b"\x00\xab\x00"  # unwritten bytes read 0
    assert memory.load(0x5000, 8) == 0


def test_compiled_loads_and_stores_at_every_window_offset():
    """Each size, from 8 bytes before the window to 8 bytes past it."""
    b = FunctionBuilder("poke", params=("addr", "value"))
    for size in (1, 2, 4, 8):
        b.store(b.param("addr"), b.param("value"), size=size)
        b.load(b.param("addr"), size=size)
    b.ret(b.load(b.param("addr"), size=8))
    module = Module("m")
    module.add_function(b.build())
    compiled, oracle = Interpreter(module), ReferenceInterpreter(module)
    for addr in range(WINDOW - 8, WINDOW + 24):
        runs = []
        for interpreter, memory in ((compiled, Memory()), (oracle, ReferenceMemory())):
            memory.write_bytes(WINDOW, bytes(range(0xE0, 0xF0)))
            value, trace = interpreter.run("poke", [addr, 0x0123456789ABCDEF], memory=memory)
            runs.append((value, trace.accesses, memory.read_bytes(SPAN.start, len(SPAN))))
        assert runs[0] == runs[1], addr


def _countdown():
    """``down(n)``: recurse ``n`` calls deep, then return 0."""
    b = FunctionBuilder("down", params=("n",))
    b.br(b.eq(b.param("n"), 0), "done", "recurse")
    b.block("done")
    b.ret(0)
    b.block("recurse")
    b.ret(b.call("down", b.sub(b.param("n"), 1)))
    module = Module("m")
    module.add_function(b.build())
    return module


def test_deep_recursion_runs_like_the_reference_or_fails_as_interpreter_error():
    module = _countdown()
    value, trace = Interpreter(module).run("down", [200])
    want_value, want_trace = ReferenceInterpreter(module).run("down", [200])
    assert (value, trace.category_counts) == (want_value, want_trace.category_counts)
    trace = ExecutionTrace()
    with pytest.raises(InterpreterError, match="recursion limit") as failure:
        Interpreter(module).run("down", [sys.getrecursionlimit() * 2], trace=trace)
    assert not isinstance(failure.value, RecursionError)
    assert trace.instructions == sum(trace.category_counts.values()) > 0


def test_interpreter_little_endian_loads():
    b = FunctionBuilder("read32", params=("addr",))
    b.ret(b.load(b.param("addr"), size=4))
    module = Module("m")
    module.add_function(b.build())
    memory = Memory()
    memory.store(0x10, 0xDDCCBBAA, 4)
    result, _ = Interpreter(module).run("read32", [0x10], memory=memory)
    assert result == 0xDDCCBBAA
    assert memory.read_bytes(0x10, 4) == bytes([0xAA, 0xBB, 0xCC, 0xDD])


def test_interpreter_internal_calls():
    module = Module("m")
    inner = FunctionBuilder("twice", params=("x",))
    inner.ret(inner.add(inner.param("x"), inner.param("x")))
    module.add_function(inner.build())
    outer = FunctionBuilder("f", params=("x",))
    doubled = outer.call("twice", outer.param("x"))
    outer.ret(outer.add(doubled, 1))
    module.add_function(outer.build())
    validate_module(module)
    result, trace = Interpreter(module).run("f", [20])
    assert result == 41
    # call, (add, ret in callee), add, ret in caller
    assert trace.instructions == 5


def test_interpreter_extern_dispatch_and_costs():
    module = Module("m")
    module.declare_extern("magic", 2, returns_value=True)
    b = FunctionBuilder("f", params=("x",))
    value = b.call("magic", b.param("x"), 10)
    b.ret(value)
    module.add_function(b.build())

    handler = ExternHandler()
    handler.register(
        "magic",
        lambda args, memory: ExternResult(
            args[0] + args[1], instructions=7, memory_accesses=2, pcvs={"k": 3}
        ),
    )
    result, trace = Interpreter(module, handler=handler).run("f", [32])
    assert result == 42
    assert len(trace.extern_calls) == 1
    call = trace.extern_calls[0]
    assert call.index == 0 and call.args == (32, 10) and call.result == 42
    assert trace.total_instructions() == trace.instructions + 7
    assert trace.total_memory_accesses() == 2
    assert trace.pcv_bindings() == {"k": 3}


def test_interpreter_missing_extern_handler_raises():
    module = Module("m")
    module.declare_extern("nope", 0)
    b = FunctionBuilder("f")
    b.call("nope", void=True)
    b.ret()
    module.add_function(b.build())
    with pytest.raises(InterpreterError, match="no handler"):
        Interpreter(module).run("f", [])


def test_interpreter_step_limit():
    b = FunctionBuilder("spin")
    b.jmp("loop")
    b.block("loop")
    b.jmp("loop")
    module = Module("m")
    module.add_function(b.build())
    with pytest.raises(StepLimitExceeded):
        Interpreter(module, max_steps=100).run("spin", [])


def test_trace_pcv_binding_merge_modes():
    trace = ExecutionTrace()
    trace.record_extern("a", (), ExternResult(1, pcvs={"t": 2}))
    trace.record_extern("b", (), ExternResult(None, pcvs={"t": 5, "e": 1}))
    assert trace.pcv_bindings() == {"t": 5, "e": 1}
