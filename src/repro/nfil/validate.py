"""Static checks for NFIL programs.

The verifier enforces the structural invariants the interpreter and the
symbolic engine rely on.  It is their one well-formedness check: both
call :func:`validate_module` when they are built and check none of these
invariants again while they run.

* parameter names are distinct;
* the entry block exists, every block is non-empty, ends with exactly one
  terminator, and has no terminator in the middle;
* every branch/jump target names an existing block;
* every register read is *must-defined*: on every CFG path from entry to
  the use, the register was written first (computed by a forward
  intersection dataflow over the CFG).  A ``select`` reads all three of
  its operands, the arm it does not pick included;
* calls name a known function or extern, with matching arity, and only
  value-returning externs may write a destination register (a void
  internal function called into a register fails when it returns).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.nfil.instructions import (
    Br,
    Call,
    Imm,
    Instruction,
    Jmp,
    Reg,
)
from repro.nfil.program import BasicBlock, Function, Module

__all__ = ["ValidationError", "validate_function", "validate_module"]


class ValidationError(ValueError):
    """An NFIL program violates a structural invariant."""


def _successors(block: BasicBlock) -> Tuple[str, ...]:
    terminator = block.instructions[-1]
    if isinstance(terminator, Br):
        return (terminator.then_label, terminator.else_label)
    if isinstance(terminator, Jmp):
        return (terminator.label,)
    return ()


def _check_structure(function: Function) -> None:
    params = function.param_names()
    for index, name in enumerate(params):
        if name in params[:index]:
            raise ValidationError(f"{function.name}: parameter %{name} is declared twice")
    if not function.blocks:
        raise ValidationError(f"{function.name}: function has no blocks")
    if function.entry not in function.blocks:
        raise ValidationError(f"{function.name}: entry block {function.entry!r} does not exist")
    for label, block in function.blocks.items():
        if label != block.label:
            raise ValidationError(
                f"{function.name}: block registered as {label!r} is labelled {block.label!r}"
            )
        if not block.instructions:
            raise ValidationError(f"{function.name}:{label}: empty basic block")
        for instruction in block.instructions[:-1]:
            if instruction.is_terminator():
                raise ValidationError(
                    f"{function.name}:{label}: terminator {instruction} not at block end"
                )
        if not block.instructions[-1].is_terminator():
            raise ValidationError(f"{function.name}:{label}: block does not end with a terminator")
        for target in _successors(block):
            if target not in function.blocks:
                raise ValidationError(
                    f"{function.name}:{label}: branch to unknown block {target!r}"
                )


def _check_calls(function: Function, module: Optional[Module]) -> None:
    if module is None:
        return
    for block in function.blocks.values():
        for instruction in block.instructions:
            if not isinstance(instruction, Call):
                continue
            where = f"{function.name}:{block.label}"
            if module.is_extern(instruction.callee):
                decl = module.externs[instruction.callee]
                if len(instruction.args) != decl.arity:
                    raise ValidationError(
                        f"{where}: extern {decl.name} expects {decl.arity} args, "
                        f"got {len(instruction.args)}"
                    )
                if instruction.dest is not None and not decl.returns_value:
                    raise ValidationError(
                        f"{where}: void extern {decl.name} used with destination "
                        f"%{instruction.dest}"
                    )
            elif instruction.callee in module.functions:
                callee = module.functions[instruction.callee]
                if len(instruction.args) != len(callee.params):
                    raise ValidationError(
                        f"{where}: {callee.name} expects {len(callee.params)} args, "
                        f"got {len(instruction.args)}"
                    )
            else:
                raise ValidationError(f"{where}: call to unknown symbol {instruction.callee!r}")


def _uses(instruction: Instruction) -> List[str]:
    names: List[str] = []
    for operand in instruction.operands():
        if isinstance(operand, Reg):
            names.append(operand.name)
        elif not isinstance(operand, Imm):  # pragma: no cover - defensive
            raise ValidationError(f"bad operand {operand!r} in {instruction}")
    return names


def _check_definitions(function: Function) -> None:
    """Forward must-defined dataflow: every use is dominated by a def."""
    params = set(function.param_names())
    labels = list(function.blocks)
    # block label -> set of registers defined on every path to block entry
    defined_in: Dict[str, Optional[Set[str]]] = {label: None for label in labels}
    defined_in[function.entry] = set(params)
    preds: Dict[str, List[str]] = {label: [] for label in labels}
    for label, block in function.blocks.items():
        for successor in _successors(block):
            preds[successor].append(label)

    def block_out(label: str, incoming: Set[str]) -> Set[str]:
        out = set(incoming)
        for instruction in function.blocks[label].instructions:
            dest = instruction.defines()
            if dest is not None:
                out.add(dest)
        return out

    changed = True
    while changed:
        changed = False
        for label in labels:
            if label == function.entry:
                incoming: Optional[Set[str]] = set(params)
            else:
                incoming = None
                for pred in preds[label]:
                    pred_in = defined_in[pred]
                    if pred_in is None:
                        continue  # predecessor not yet reached
                    pred_out = block_out(pred, pred_in)
                    incoming = pred_out if incoming is None else incoming & pred_out
            if incoming is not None and incoming != defined_in[label]:
                defined_in[label] = incoming
                changed = True

    for label in labels:
        incoming = defined_in[label]
        if incoming is None:
            continue  # unreachable block: nothing to check
        available = set(incoming)
        for instruction in function.blocks[label].instructions:
            for name in _uses(instruction):
                if name not in available:
                    raise ValidationError(
                        f"{function.name}:{label}: register %{name} used before "
                        f"definition in {instruction}"
                    )
            dest = instruction.defines()
            if dest is not None:
                available.add(dest)


def validate_function(function: Function, module: Optional[Module] = None) -> Function:
    """Validate one function; returns it unchanged on success.

    Raises:
        ValidationError: a structural invariant is violated.
    """
    _check_structure(function)
    _check_definitions(function)
    _check_calls(function, module)
    return function


def validate_module(module: Module) -> Module:
    """Validate every function of a module; returns it unchanged on success."""
    for function in module.functions.values():
        validate_function(function, module)
    return module
