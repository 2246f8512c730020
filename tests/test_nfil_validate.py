"""Dedicated coverage for the NFIL verifier (`repro.nfil.validate`).

The bridge/router tests exercise the verifier only on well-formed modules;
these tests hit every structural invariant it enforces, in both the
accepting and the rejecting direction, and check that the executors run
it once, when they are built, and the NF module builders do not.
"""

from dataclasses import replace

import pytest

from repro.nf import BRIDGE, NF_MATRIX
from repro.nfil.instructions import Br, Call, Cmp, ConstInstr, Imm, Jmp, Reg, Ret
from repro.nfil.interpreter import Interpreter
from repro.nfil.program import Function, Module, Param
from repro.nfil.validate import ValidationError, validate_function, validate_module
from repro.sym.engine import SymbolicEngine


def _fn(name="f", params=(), entry="entry"):
    return Function(name=name, params=[Param(p) for p in params], entry=entry)


def _ret0():
    return Ret(Imm(0))


# --------------------------------------------------------------------------- #
# Structural checks
# --------------------------------------------------------------------------- #
def test_function_without_blocks_is_rejected():
    with pytest.raises(ValidationError, match="no blocks"):
        validate_function(_fn())


def test_missing_entry_block_is_rejected():
    fn = _fn(entry="start")
    fn.block("other").append(_ret0())
    with pytest.raises(ValidationError, match="entry block"):
        validate_function(fn)


def test_empty_block_is_rejected():
    fn = _fn()
    fn.block("entry")
    with pytest.raises(ValidationError, match="empty basic block"):
        validate_function(fn)


def test_block_must_end_with_terminator():
    fn = _fn()
    fn.block("entry").append(ConstInstr("x", 1))
    with pytest.raises(ValidationError, match="does not end with a terminator"):
        validate_function(fn)


def test_terminator_in_the_middle_is_rejected():
    fn = _fn()
    block = fn.block("entry")
    block.append(_ret0())
    block.append(_ret0())
    with pytest.raises(ValidationError, match="not at block end"):
        validate_function(fn)


def test_branch_to_unknown_block_is_rejected():
    fn = _fn()
    block = fn.block("entry")
    block.append(ConstInstr("c", 1))
    block.append(Br(Imm(1), "nowhere", "entry"))
    with pytest.raises(ValidationError, match="unknown block 'nowhere'"):
        validate_function(fn)


def test_duplicate_parameter_names_are_rejected_before_any_executor_runs():
    # Unchecked, the compiled interpreter's ``def`` would not compile and
    # the engine would bind the last argument to both names.
    fn = _fn(params=("x", "y", "x"))
    fn.block("entry").append(Ret(Reg("x")))
    module = _module_with(fn)
    for check, arg in ((validate_function, fn), (Interpreter, module), (SymbolicEngine, module)):
        with pytest.raises(ValidationError) as rejected:
            check(arg)
        assert str(rejected.value) == "f: parameter %x is declared twice"


def test_mislabelled_block_registration_is_rejected():
    fn = _fn()
    fn.block("entry").append(_ret0())
    fn.blocks["alias"] = fn.blocks["entry"]
    with pytest.raises(ValidationError, match="registered as 'alias'"):
        validate_function(fn)


# --------------------------------------------------------------------------- #
# Must-defined dataflow
# --------------------------------------------------------------------------- #
def test_use_before_definition_is_rejected():
    fn = _fn()
    fn.block("entry").append(Jmp("use"))
    fn.block("use").append(Ret(Reg("x")))
    with pytest.raises(ValidationError, match="used before definition"):
        validate_function(fn)


def test_definition_on_only_one_branch_is_rejected():
    fn = _fn(params=("p",))
    entry = fn.block("entry")
    entry.append(Br(Reg("p"), "define", "skip"))
    fn.block("define").append(ConstInstr("x", 1))
    fn.blocks["define"].append(Jmp("join"))
    fn.block("skip").append(Jmp("join"))
    fn.block("join").append(Ret(Reg("x")))
    with pytest.raises(ValidationError, match="used before definition"):
        validate_function(fn)


def test_definition_on_both_branches_is_accepted():
    fn = _fn(params=("p",))
    fn.block("entry").append(Br(Reg("p"), "a", "b"))
    fn.block("a").append(ConstInstr("x", 1))
    fn.blocks["a"].append(Jmp("join"))
    fn.block("b").append(ConstInstr("x", 2))
    fn.blocks["b"].append(Jmp("join"))
    fn.block("join").append(Ret(Reg("x")))
    assert validate_function(fn) is fn


def test_unreachable_block_is_not_dataflow_checked():
    fn = _fn()
    fn.block("entry").append(_ret0())
    # Dead code using an undefined register: structurally checked, but the
    # must-defined analysis never reaches it.
    fn.block("dead").append(Ret(Reg("ghost")))
    assert validate_function(fn) is fn


def test_loop_keeps_entry_definitions():
    fn = _fn(params=("n",))
    entry = fn.block("entry")
    entry.append(ConstInstr("i", 0))
    entry.append(Jmp("head"))
    head = fn.block("head")
    head.append(Cmp("ult", "more", Reg("i"), Reg("n")))
    head.append(Br(Reg("more"), "head", "done"))
    fn.block("done").append(Ret(Reg("i")))
    assert validate_function(fn) is fn


# --------------------------------------------------------------------------- #
# Call checks (module level)
# --------------------------------------------------------------------------- #
def _module_with(fn):
    module = Module("m")
    module.add_function(fn)
    return module


def test_call_to_unknown_symbol_is_rejected():
    fn = _fn()
    block = fn.block("entry")
    block.append(Call(None, "mystery", ()))
    block.append(_ret0())
    with pytest.raises(ValidationError, match="unknown symbol 'mystery'"):
        validate_module(_module_with(fn))


def test_extern_arity_mismatch_is_rejected():
    fn = _fn()
    block = fn.block("entry")
    block.append(Call(None, "ext", (Imm(1), Imm(2))))
    block.append(_ret0())
    module = _module_with(fn)
    module.declare_extern("ext", 1, returns_value=False)
    with pytest.raises(ValidationError, match="expects 1 args, got 2"):
        validate_module(module)


def test_void_extern_with_destination_is_rejected():
    fn = _fn()
    block = fn.block("entry")
    block.append(Call("dst", "ext", (Imm(1),)))
    block.append(_ret0())
    module = _module_with(fn)
    module.declare_extern("ext", 1, returns_value=False)
    with pytest.raises(ValidationError, match="void extern"):
        validate_module(module)


def test_internal_call_arity_mismatch_is_rejected():
    callee = _fn(name="callee", params=("a", "b"))
    callee.block("entry").append(_ret0())
    caller = _fn(name="caller")
    block = caller.block("entry")
    block.append(Call("r", "callee", (Imm(1),)))
    block.append(_ret0())
    module = Module("m")
    module.add_function(callee)
    module.add_function(caller)
    with pytest.raises(ValidationError, match="expects 2 args, got 1"):
        validate_module(module)


def test_valid_module_roundtrips():
    callee = _fn(name="callee", params=("a",))
    callee.block("entry").append(_ret0())
    caller = _fn(name="caller")
    block = caller.block("entry")
    block.append(Call("r", "callee", (Imm(1),)))
    block.append(Call(None, "ext", (Imm(2),)))
    block.append(_ret0())
    module = Module("m")
    module.declare_extern("ext", 1, returns_value=False)
    module.add_function(callee)
    module.add_function(caller)
    assert validate_module(module) is module


# --------------------------------------------------------------------------- #
# The executors' precondition
# --------------------------------------------------------------------------- #
def _unterminated_bridge():
    """The bridge module with its entry block's terminator dropped."""
    module = BRIDGE.build_module()
    function = module.get_function(BRIDGE.function)
    function.blocks[function.entry].instructions.pop()
    return module


def test_an_ill_formed_nf_module_builds_no_harness_and_no_contract():
    spec = replace(BRIDGE, build_module=_unterminated_bridge)
    with pytest.raises(ValidationError) as rejected:
        validate_module(_unterminated_bridge())
    for build in (spec.harness, spec.contract):
        with pytest.raises(ValidationError) as failure:
            build(**spec.bench)
        assert str(failure.value) == str(rejected.value)


@pytest.mark.parametrize("spec", [spec for spec, _ in NF_MATRIX], ids=lambda spec: spec.name)
def test_a_harness_and_a_contract_each_validate_every_function_once(spec, monkeypatch):
    checked = []

    def counted(function, module=None):
        checked.append(function.name)
        return validate_function(function, module)

    monkeypatch.setattr("repro.nfil.validate.validate_function", counted)
    # Where a function builder would call it.
    monkeypatch.setattr("repro.nfil.builder.validate_function", counted, raising=False)
    functions = list(spec.harness(**spec.bench).module.functions)
    assert checked == functions
    checked.clear()
    spec.contract(**spec.bench)
    assert checked == functions
