"""Symbolic-execution substrate.

BOLT explores all feasible execution paths through the stateless NF code by
symbolic execution (§3.1 of the paper).  The original prototype builds on a
KLEE-derived engine and an SMT solver; this reproduction implements the
pieces it actually needs from scratch:

* :mod:`repro.sym.expr` — a bit-vector expression language with concrete
  evaluation and constant folding,
* :mod:`repro.sym.simplify` — algebraic simplification,
* :mod:`repro.sym.solver` — a small constraint solver (unit propagation,
  interval reasoning, bounded search) that is *conservative*: when it cannot
  decide satisfiability it answers "unknown" and BOLT keeps the path,
* :mod:`repro.sym.state` / :mod:`repro.sym.engine` — the symbolic machine
  state (registers, byte-addressable memory, path condition) and the path
  explorer for NFIL programs,
* :mod:`repro.sym.paths` — the per-path artefacts BOLT consumes (path
  constraints, stateful call records, concrete input assignments).
"""

from repro.sym.expr import (
    BV,
    Const,
    Sym,
    add,
    band,
    bool_and,
    bool_or,
    bnot,
    bor,
    bxor,
    concat,
    eq,
    evaluate,
    extract,
    ite,
    mul,
    ne,
    shl,
    lshr,
    sub,
    udiv,
    uge,
    ugt,
    ule,
    ult,
    urem,
    zext,
)
from repro.sym.solver import CheckResult, Solver
from repro.sym.paths import CallRecord, Path
from repro.sym.state import SymbolicAddressError, SymbolicMemory, SymbolicState
from repro.sym.engine import (
    EngineError,
    ExplorationLimit,
    ModelOutcome,
    SymbolicEngine,
    SymbolicModel,
)

__all__ = [
    "BV",
    "CallRecord",
    "CheckResult",
    "Const",
    "EngineError",
    "ExplorationLimit",
    "ModelOutcome",
    "Path",
    "Solver",
    "Sym",
    "SymbolicAddressError",
    "SymbolicEngine",
    "SymbolicMemory",
    "SymbolicModel",
    "SymbolicState",
    "add",
    "band",
    "bnot",
    "bool_and",
    "bool_or",
    "bor",
    "bxor",
    "concat",
    "eq",
    "evaluate",
    "extract",
    "ite",
    "mul",
    "ne",
    "shl",
    "lshr",
    "sub",
    "udiv",
    "uge",
    "ugt",
    "ule",
    "ult",
    "urem",
    "zext",
]
