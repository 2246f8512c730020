"""The decoded-block interpreter against the per-instruction reference.

Every NF workload runs through both executors from identically seeded
state; results, trace counters, address streams, extern calls and egress
bytes must match execution by execution.  Hand-built ill-formed programs
must fail with the same error, after recording the same trace.
"""

import pytest

from nfil_reference import ReferenceInterpreter
from repro.nf.workloads import (
    bridge_workloads,
    firewall_workloads,
    lb_workloads,
    monitor_workloads,
    nat_workloads,
    router_workloads,
)
from repro.nfil.instructions import (
    BinOp,
    Br,
    Call,
    Cmp,
    ConstInstr,
    Imm,
    Jmp,
    Load,
    Reg,
    Ret,
    Select,
    Store,
)
from repro.nfil.interpreter import (
    ExternHandler,
    ExternResult,
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
)
from repro.nfil.program import BasicBlock, Function, Module, Param
from repro.nfil.tracer import ExecutionTrace

SEED = 2019
PACKETS = 300

WORKLOAD_FACTORIES = {
    "bridge": bridge_workloads,
    "router": router_workloads,
    "nat": nat_workloads,
    "lb": lb_workloads,
    "firewall": firewall_workloads,
    "monitor": monitor_workloads,
}


def _observed(trace: ExecutionTrace):
    return (
        trace.instructions,
        list(trace.category_counts.items()),
        trace.mem_reads,
        trace.mem_writes,
        trace.accesses,
        trace.extern_calls,
    )


@pytest.mark.parametrize("nf", sorted(WORKLOAD_FACTORIES))
def test_every_workload_traces_identically_under_both_interpreters(nf):
    factory = WORKLOAD_FACTORIES[nf]
    compiled = factory(seed=SEED, packets=PACKETS)
    reference = factory(seed=SEED, packets=PACKETS)
    assert len(compiled) == 5
    executions = 0
    for fast, slow in zip(compiled, reference):
        assert fast.name == slow.name
        assert fast.stimuli == slow.stimuli
        for harness in (fast.harness, slow.harness):
            harness.record_accesses = True
            harness.capture_output = True
        slow.harness._interpreter = ReferenceInterpreter(
            slow.harness.module, handler=slow.harness.handler
        )
        for index, stimulus in enumerate(fast.stimuli):
            value, trace = fast.harness.run(stimulus)
            want_value, want_trace = slow.harness.run(stimulus)
            where = (nf, fast.name, index)
            assert value == want_value, where
            assert _observed(trace) == _observed(want_trace), where
            assert fast.harness.last_packet == slow.harness.last_packet, where
            executions += 1
    assert executions >= 5 * 20


# --------------------------------------------------------------------------- #
# Ill-formed programs: same error, same partial trace
# --------------------------------------------------------------------------- #
def _module(blocks, *, functions=(), externs=()):
    """A module whose ``main`` has ``blocks`` (label -> instructions), unvalidated."""
    module = Module("m")
    for name, params, body in (("main", (), blocks), *functions):
        function = Function(name, params=[Param(p) for p in params])
        for label, instructions in body.items():
            function.blocks[label] = BasicBlock(label, list(instructions))
        module.add_function(function)
    for name, arity in externs:
        module.declare_extern(name, arity)
    return module


def _handler(**fns):
    handler = ExternHandler()
    for name, fn in fns.items():
        handler.register(name, fn)
    return handler


def _ext(args, memory):
    return ExternResult(sum(args), instructions=3, memory_accesses=1, accesses=(0x40,))


_PRELUDE = (
    ConstInstr("p", 0x100),
    Store(Reg("p"), Imm(7), 2),
    Load("v", Reg("p"), 2),
    Cmp("ult", "c", Reg("v"), Imm(9)),
)
_VOID_HELPER = ("helper", ("a",), {"entry": [BinOp("mul", "b", Reg("a"), Imm(3)), Ret()]})
_STEP = ("step", ("x",), {"entry": [BinOp("add", "y", Reg("x"), Imm(1)), Ret(Reg("y"))]})

ERROR_CASES = {
    "undefined register": (
        _module({"entry": [*_PRELUDE, BinOp("add", "x", Reg("v"), Reg("nope")), Ret(Reg("x"))]}),
        ExternHandler(),
        "main: read of undefined register %nope",
    ),
    "undefined register in an unpicked select arm is never read": (
        _module(
            {
                "entry": [
                    *_PRELUDE,
                    Select("s", Reg("c"), Reg("v"), Reg("nope")),
                    Select("t", Imm(0), Reg("v"), Reg("gone")),
                ]
            }
        ),
        ExternHandler(),
        "main: read of undefined register %gone",
    ),
    "unknown block": (
        _module({"entry": [*_PRELUDE, Br(Reg("c"), "missing", "entry")]}),
        ExternHandler(),
        "main: unknown block 'missing'",
    ),
    "fall-through without a terminator": (
        _module({"entry": [*_PRELUDE, Jmp("body")], "body": [ConstInstr("z", 1)]}),
        ExternHandler(),
        "main:body fell through without terminator",
    ),
    "missing extern handler": (
        _module(
            {"entry": [*_PRELUDE, Call("r", "ext", (Reg("v"),)), Ret(Reg("r"))]},
            externs=[("ext", 1)],
        ),
        ExternHandler(),
        "no handler registered for extern 'ext'",
    ),
    "wrong extern arity": (
        _module(
            {"entry": [*_PRELUDE, Call("r", "ext", (Reg("v"), Imm(1))), Ret(Reg("r"))]},
            externs=[("ext", 1)],
        ),
        _handler(ext=_ext),
        "extern ext expects 1 args, got 2",
    ),
    "void extern result into a register": (
        _module(
            {"entry": [*_PRELUDE, Call(None, "ext", (Reg("v"),)), Call("r", "void", ()), Ret()]},
            externs=[("ext", 1), ("void", 0)],
        ),
        _handler(ext=_ext, void=lambda args, memory: None),
        "extern void returned no value into %r",
    ),
    "void function result into a register": (
        _module(
            {"entry": [*_PRELUDE, Call("r", "helper", (Reg("v"),)), Ret(Reg("r"))]},
            functions=[_VOID_HELPER],
        ),
        ExternHandler(),
        "helper returned void into %r",
    ),
    "call to an unknown symbol": (
        _module({"entry": [*_PRELUDE, Call("r", "nowhere", ()), Ret(Reg("r"))]}),
        ExternHandler(),
        "call to unknown symbol 'nowhere'",
    ),
    "wrong internal call arity": (
        _module(
            {"entry": [*_PRELUDE, Call("r", "helper", ()), Ret(Reg("r"))]},
            functions=[("helper", ("a",), {"entry": [Ret(Reg("a"))]})],
        ),
        ExternHandler(),
        "helper expects 1 args, got 0",
    ),
}


def _outcome(interpreter_type, module, handler, **kwargs):
    trace = ExecutionTrace()
    try:
        value = interpreter_type(module, handler=handler, **kwargs).run("main", [], trace=trace)[0]
    except Exception as error:  # noqa: BLE001 - the error is the observation
        return (type(error), str(error)), _observed(trace)
    return ("returned", value), _observed(trace)


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_ill_formed_programs_fail_identically(case):
    module, handler, message = ERROR_CASES[case]
    got = _outcome(Interpreter, module, handler)
    assert got == _outcome(ReferenceInterpreter, module, handler)
    assert got[0] == (InterpreterError, message)


def _calls_and_loops():
    """A caller/callee pair with a loop, a fall-through and an extern call."""
    return _module(
        {
            "entry": [ConstInstr("i", 0), Jmp("loop")],
            "loop": [
                Call("j", "step", (Reg("i"),)),
                Call(None, "ext", (Reg("j"),)),
                BinOp("add", "i", Reg("j"), Imm(0)),
                Cmp("ult", "c", Reg("i"), Imm(4)),
                Br(Reg("c"), "loop", "tail"),
            ],
            "tail": [Store(Imm(0x80), Reg("i"), 8), Call("k", "step", (Reg("i"),))],
        },
        functions=[_STEP],
        externs=[("ext", 1)],
    )


def test_step_limit_stops_both_interpreters_at_the_same_instruction():
    module = _calls_and_loops()
    handler = _handler(ext=_ext)
    unlimited = _outcome(Interpreter, module, handler)
    assert unlimited[0] == (InterpreterError, "main:tail fell through without terminator")
    total = unlimited[1][0]
    for max_steps in range(total + 3):
        got = _outcome(Interpreter, module, handler, max_steps=max_steps)
        assert got == _outcome(ReferenceInterpreter, module, handler, max_steps=max_steps)
        if max_steps <= total:
            assert got[0] == (StepLimitExceeded, f"exceeded {max_steps} steps"), max_steps
            assert got[1][0] == max_steps


def test_step_limit_raises_on_an_endless_loop():
    module = _module(
        {
            "entry": [ConstInstr("x", 0), Jmp("loop")],
            "loop": [BinOp("add", "x", Reg("x"), Imm(1)), Jmp("loop")],
        }
    )
    with pytest.raises(StepLimitExceeded, match="exceeded 1000 steps"):
        Interpreter(module, max_steps=1000).run("main", [])
