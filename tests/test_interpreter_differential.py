"""The compiled interpreter against the per-instruction reference.

Every NF workload runs through both executors from identically seeded
state; results, trace counters, address streams, extern calls and egress
bytes must match execution by execution.  Hand-built programs that fail at
run time must fail with the same error, after recording the same trace;
ill-formed ones are rejected with the validator's error before they run.
The NFs use 7 of the 20 operators and no ``Select``, ``Jmp`` or ``Const``,
so a seeded corpus of random programs covers every instruction kind as
well.
"""

import functools
import random

import pytest

from nfil_reference import ReferenceInterpreter, ReferenceMemory, reference_binding
from repro.nf.workloads import (
    bridge_workloads,
    firewall_workloads,
    lb_workloads,
    monitor_workloads,
    nat_workloads,
    router_workloads,
)
from repro.nfil.instructions import (
    ACCESS_SIZES,
    BINARY_OPS,
    CMP_OPS,
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
    Memory,
    StepLimitExceeded,
    function_source,
)
from repro.nfil.program import BasicBlock, Function, Module, Param
from repro.nfil.tracer import ExecutionTrace
from repro.nfil.validate import ValidationError, validate_module
from repro.sym.engine import SymbolicEngine

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
            # Both executors record calls through the trace, which folds the binding.
            for recorded in (trace, want_trace):
                assert list(recorded.binding.items()) == list(
                    reference_binding(recorded).items()
                ), where
            executions += 1
    assert executions >= 5 * 20


# --------------------------------------------------------------------------- #
# Errors: ill-formed programs never run; run-time errors match the reference
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

#: Modules the validator rejects, with its message.
ILL_FORMED = {
    "undefined register": (
        _module({"entry": [*_PRELUDE, BinOp("add", "x", Reg("v"), Reg("nope")), Ret(Reg("x"))]}),
        "main:entry: register %nope used before definition in %x = add %v, %nope",
    ),
    # ``c`` is 1, so a run never reads ``nope``; a select reads all three
    # operands all the same.
    "undefined register in an unpicked select arm": (
        _module({"entry": [*_PRELUDE, Select("s", Reg("c"), Reg("v"), Reg("nope")), Ret()]}),
        "main:entry: register %nope used before definition in %s = select %c, %v, %nope",
    ),
    "unknown block": (
        _module({"entry": [*_PRELUDE, Br(Reg("c"), "missing", "entry")]}),
        "main:entry: branch to unknown block 'missing'",
    ),
    "fall-through without a terminator": (
        _module({"entry": [*_PRELUDE, Jmp("body")], "body": [ConstInstr("z", 1)]}),
        "main:body: block does not end with a terminator",
    ),
    "wrong extern arity": (
        _module(
            {"entry": [*_PRELUDE, Call("r", "ext", (Reg("v"), Imm(1))), Ret(Reg("r"))]},
            externs=[("ext", 1)],
        ),
        "main:entry: extern ext expects 1 args, got 2",
    ),
    "call to an unknown symbol": (
        _module({"entry": [*_PRELUDE, Call("r", "nowhere", ()), Ret(Reg("r"))]}),
        "main:entry: call to unknown symbol 'nowhere'",
    ),
    "wrong internal call arity": (
        _module(
            {"entry": [*_PRELUDE, Call("r", "helper", ()), Ret(Reg("r"))]},
            functions=[("helper", ("a",), {"entry": [Ret(Reg("a"))]})],
        ),
        "main:entry: helper expects 1 args, got 0",
    ),
}


@pytest.mark.parametrize("case", sorted(ILL_FORMED))
def test_ill_formed_programs_fail_identically(case):
    """Each executor, and the compiled listing, refuse the module as the validator does."""
    module, message = ILL_FORMED[case]
    with pytest.raises(ValidationError) as rejected:
        validate_module(module)
    assert str(rejected.value) == message
    for build in (Interpreter, SymbolicEngine, lambda module: function_source(module, "main")):
        with pytest.raises(ValidationError) as rejected:
            build(module)
        assert str(rejected.value) == message


#: Valid modules whose runs fail, with the handler they run under and the error.
RUN_TIME_ERRORS = {
    "missing extern handler": (
        _module(
            {"entry": [*_PRELUDE, Call("r", "ext", (Reg("v"),)), Ret(Reg("r"))]},
            externs=[("ext", 1)],
        ),
        ExternHandler(),
        "no handler registered for extern 'ext'",
    ),
    "void extern result": (
        _module(
            {"entry": [*_PRELUDE, Call(None, "ext", (Reg("v"),)), Call("r", "void", ()), Ret()]},
            externs=[("ext", 1), ("void", 0)],
        ),
        _handler(ext=_ext, void=lambda args, memory: None),
        "extern void returned no value into %r",
    ),
    "void function result": (
        _module(
            {"entry": [*_PRELUDE, Call("r", "helper", (Reg("v"),)), Ret(Reg("r"))]},
            functions=[_VOID_HELPER],
        ),
        ExternHandler(),
        "helper returned void into %r",
    ),
}


def _outcome(interpreter_type, module, handler, **kwargs):
    trace = ExecutionTrace()
    try:
        value = interpreter_type(module, handler=handler, **kwargs).run("main", [], trace=trace)[0]
    except Exception as error:  # noqa: BLE001 - the error is the observation
        return (type(error), str(error)), _observed(trace)
    return ("returned", value), _observed(trace)


@pytest.mark.parametrize("case", sorted(RUN_TIME_ERRORS))
def test_run_time_errors_fail_identically(case):
    module, handler, message = RUN_TIME_ERRORS[case]
    got = _outcome(Interpreter, module, handler)
    assert got == _outcome(ReferenceInterpreter, module, handler)
    assert got[0] == (InterpreterError, message)


def _calls_and_loops():
    """A caller/callee pair with a loop and an extern call."""
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
            "tail": [Store(Imm(0x80), Reg("i"), 8), Call("k", "step", (Reg("i"),)), Ret(Reg("k"))],
        },
        functions=[_STEP],
        externs=[("ext", 1)],
    )


def test_step_limit_stops_both_interpreters_at_the_same_instruction():
    module = _calls_and_loops()
    handler = _handler(ext=_ext)
    unlimited = _outcome(Interpreter, module, handler)
    assert unlimited[0] == ("returned", 5)
    total = unlimited[1][0]
    for max_steps in range(total + 3):
        got = _outcome(Interpreter, module, handler, max_steps=max_steps)
        assert got == _outcome(ReferenceInterpreter, module, handler, max_steps=max_steps)
        if max_steps < total:
            assert got[0] == (StepLimitExceeded, f"exceeded {max_steps} steps"), max_steps
            assert got[1][0] == max_steps
        else:
            assert got == unlimited, max_steps


def test_step_limit_raises_on_an_endless_loop():
    module = _module(
        {
            "entry": [ConstInstr("x", 0), Jmp("loop")],
            "loop": [BinOp("add", "x", Reg("x"), Imm(1)), Jmp("loop")],
        }
    )
    with pytest.raises(StepLimitExceeded, match="exceeded 1000 steps"):
        Interpreter(module, max_steps=1000).run("main", [])


# --------------------------------------------------------------------------- #
# Random programs: every instruction kind, against the reference
# --------------------------------------------------------------------------- #
WINDOW, HEAP = 0x400, 0x1000
#: Where loads and stores go: inside, across both edges of and beyond the
#: 24-byte window each run writes at ``WINDOW``, and in sparse memory.
ADDRESSES = (*range(WINDOW - 9, WINDOW + 33), *range(HEAP - 4, HEAP + 20))
EDGES = (0, 1, 2, 7, 63, 64, 65, 255, 1 << 31, (1 << 32) - 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)


def _mix(args, memory):
    value = (sum(args) * 0x9E3779B97F4A7C15 + len(args)) % (1 << 64)
    return ExternResult(
        value,
        instructions=2 + len(args),
        memory_accesses=1 + args[0] % 3,
        pcvs={"k": args[0] % 7},
        accesses=(HEAP + 8 * (args[0] % 4),),
    )


class _RandomProgram:
    """A seeded generator of small, valid NFIL modules.

    ``main`` runs forward branches and jumps, one bounded loop, loads and
    stores of every size, extern calls (one void) and internal calls to
    ``helper`` (a value) and ``vhelper`` (void).  Every operand is an
    immediate or a register defined on every path to it: a parameter, or
    defined earlier in its block or in the entry block.  A few of
    ``helper``'s returns are void, so some runs end in the error the
    reference raises for that.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.registers = 0

    def module(self) -> Module:
        module = Module("fuzz")
        module.declare_extern("mix", 2)
        module.declare_extern("note", 1)
        module.add_function(self.function("main", ("p", "q"), ("helper", "vhelper"), loop=True))
        module.add_function(self.function("helper", ("x", "y"), ("vhelper",)))
        module.add_function(self.function("vhelper", ("x",), (), void=True))
        return module

    def function(self, name, params, callees, *, loop=False, void=False) -> Function:
        rng = self.rng
        labels = [f"b{n}" for n in range(rng.randrange(1, 5))] + ["loop"] * loop + ["exit"]
        function = Function(name, params=[Param(p) for p in params], entry="b0")
        always = [*params, "i", "a0", "a1"]
        for index, label in enumerate(labels):
            body = []
            if index == 0:
                body += [ConstInstr("i", 0)]
                body += [ConstInstr(f"a{n}", rng.choice(ADDRESSES)) for n in range(2)]
            if label == "loop":
                body.append(BinOp("add", "i", Reg("i"), Imm(1)))
            scope = list(always)
            for _ in range(rng.randrange(1, 6)):
                instruction = self.straight(scope, callees)
                body.append(instruction)
                if instruction.defines() is not None:
                    scope.append(instruction.defines())
            later = labels[index + 1 :]
            if label == "loop":
                body.append(Cmp("ult", "more", Reg("i"), Imm(rng.randrange(1, 4))))
                body.append(Br(Reg("more"), "loop", "exit"))
            elif label == "exit" or rng.random() < 0.1:
                value = None if void or rng.random() < 0.03 else self.operand(scope)
                body.append(Ret(value))
            elif rng.random() < 0.6:
                body.append(Br(self.operand(scope), rng.choice(later), rng.choice(later)))
            else:
                body.append(Jmp(rng.choice(later)))
            function.blocks[label] = BasicBlock(label, body)
            if index == 0:
                always = scope
        return function

    def operand(self, scope):
        rng = self.rng
        if rng.random() < 0.2:
            return Imm(rng.choice(EDGES) if rng.random() < 0.7 else rng.getrandbits(64))
        return Reg(rng.choice(scope))

    def straight(self, scope, callees):
        rng = self.rng
        self.registers += 1
        dest = f"v{self.registers}"
        operand = functools.partial(self.operand, scope)
        kinds = ["const", "binop", "cmp", "select", "load", "store", "extern", "call"]
        kind = rng.choices(kinds, weights=(1, 4, 3, 2, 3, 2, 1, 1 if callees else 0))[0]
        if kind == "const":
            return ConstInstr(dest, rng.choice(EDGES))
        if kind == "binop":
            return BinOp(rng.choice(list(BINARY_OPS)), dest, operand(), operand())
        if kind == "cmp":
            return Cmp(rng.choice(list(CMP_OPS)), dest, operand(), operand())
        if kind == "select":
            return Select(dest, operand(), operand(), operand())
        if rng.random() < 0.3:
            address = Reg(rng.choice(("a0", "a1")))
        else:
            address = Imm(rng.choice(ADDRESSES))
        if kind == "load":
            return Load(dest, address, rng.choice(ACCESS_SIZES))
        if kind == "store":
            return Store(address, operand(), rng.choice(ACCESS_SIZES))
        if kind == "extern":
            if rng.random() < 0.3:
                return Call(None, "note", (operand(),))
            return Call(dest, "mix", (operand(), operand()))
        callee = rng.choice(callees)
        if callee == "vhelper":
            return Call(None, callee, (operand(),))
        return Call(dest, callee, (operand(), operand()))


def _fuzz_outcome(interpreter, memory, args, window):
    memory.write_bytes(WINDOW, window)
    trace = ExecutionTrace()
    try:
        outcome = ("returned", interpreter.run("main", args, memory=memory, trace=trace)[0])
    except Exception as error:  # noqa: BLE001 - the error is the observation
        outcome = (type(error), str(error))
    touched = memory.read_bytes(WINDOW - 16, 64) + memory.read_bytes(HEAP - 8, 40)
    return outcome, _observed(trace), touched


def _listing(module):
    return "\n".join(
        f"{function}\n--- compiled ---\n{function_source(module, name)}"
        for name, function in module.functions.items()
    )


def test_random_programs_run_identically_under_both_interpreters():
    rng = random.Random(2019)
    handler = _handler(mix=_mix, note=lambda args, memory: None)
    kinds = set()
    for case in range(500):
        module = _RandomProgram(rng).module()
        compiled = Interpreter(module, handler=handler)
        reference = ReferenceInterpreter(module, handler=handler)
        args = [rng.choice(EDGES), rng.getrandbits(64)]
        window = rng.randbytes(24)
        budgets = [1_000_000]
        for limit in budgets:
            compiled.max_steps = reference.max_steps = limit
            got = _fuzz_outcome(compiled, Memory(), args, window)
            want = _fuzz_outcome(reference, ReferenceMemory(), args, window)
            assert got == want, f"case {case}, max_steps {limit}\n{_listing(module)}"
            if limit == 1_000_000:
                budgets += [rng.randrange(want[1][0] + 2) for _ in range(2)]
        for function in module.functions.values():
            for block in function.blocks.values():
                for instruction in block.instructions:
                    kinds.add(getattr(instruction, "op", None) or type(instruction).__name__)
                    kinds.add((type(instruction).__name__, getattr(instruction, "size", None)))
    assert kinds >= {*BINARY_OPS, *CMP_OPS, "ConstInstr", "Select", "Jmp", "Br", "Call", "Ret"}
    assert kinds >= {(kind, size) for kind in ("Load", "Store") for size in ACCESS_SIZES}
