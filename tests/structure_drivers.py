"""One-call NFIL drivers for library structures, shared by the structure tests.

A driver is the smallest NF that exercises a structure operation: one
function whose parameters are the operation's arguments, which calls the
operation once and returns its result.  Running it through the
interpreter with the structure as the extern handler charges the call
exactly as an NF replay would.
"""

from typing import Tuple

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
