"""One-call NFIL drivers for library structures, shared by the structure tests.

A driver is the smallest NF that exercises a structure operation: one
function whose parameters are the operation's arguments, which calls the
operation once and returns its result.  Running it through the
interpreter with the structure as the extern handler charges the call
exactly as an NF replay would; :func:`assert_calls_bounded` then checks
each traced call against the structure's hand contract.
"""

from typing import Tuple

from repro.core import Metric
from repro.nfil import ExecutionTrace
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.nfil.validate import validate_module
from repro.structures import Structure


def operation_module(structure: Structure, method: str) -> Tuple[Module, str]:
    """Synthesise a minimal NFIL driver calling one operation once."""
    op = structure.op(method)
    module = Module(f"{structure.name}_{method}_driver")
    structure.declare(module)
    function_name = f"drive_{method}"
    b = FunctionBuilder(function_name, params=tuple(f"a{i}" for i in range(op.arity)))
    args = [b.param(f"a{i}") for i in range(op.arity)]
    if op.returns_value:
        result = b.call(structure.extern_name(method), *args, name="result")
        b.ret(result)
    else:
        b.call(structure.extern_name(method), *args, void=True)
        b.ret(0)
    module.add_function(b.build())
    return validate_module(module), function_name


def assert_calls_bounded(structure: Structure, trace: ExecutionTrace, *, min_ops: int) -> None:
    """Every traced call of ``structure`` costs at most its hand-contract entry.

    Each call's entry is evaluated at the call's observed PCVs (every other
    PCV of the contract at zero).  At least one call must cost strictly
    fewer instructions than its entry: fast paths make the bound strict
    somewhere, or the check is a tautology of "the handler charges the
    formula".
    """
    contract = structure.operation_contract()
    zeros = {name: 0 for name in contract.registry.names()}
    assert len(trace.extern_calls) >= min_ops
    strict = 0
    for call in trace.extern_calls:
        method = call.name[len(structure.name) + 1 :]
        entry = contract.entry_for(method)
        bindings = {**zeros, **call.pcvs}
        instructions = entry.evaluate(Metric.INSTRUCTIONS, bindings)
        accesses = entry.evaluate(Metric.MEMORY_ACCESSES, bindings)
        where = f"{structure.name}.{method} at {dict(call.pcvs)}"
        assert instructions >= call.instructions, (
            f"{where}: {call.instructions} instructions above the bound {instructions}"
        )
        assert accesses >= call.memory_accesses, (
            f"{where}: {call.memory_accesses} accesses above the bound {accesses}"
        )
        strict += instructions > call.instructions
    assert strict > 0, f"{structure.name}: no call cost less than its contract entry"
