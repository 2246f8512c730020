"""Per-path artefacts produced by the symbolic engine and consumed by BOLT.

A :class:`Path` is one feasible (or not-provably-infeasible) execution of
the stateless NF code: its path condition, the sequence of stateful calls it
made (:class:`CallRecord`), its exact stateless instruction/memory counts,
and a concrete input assignment that exercises it — which is what lets BOLT
replay the path through the concrete interpreter (§3.2–3.3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.sym.expr import BV, bool_and, evaluate, render

__all__ = ["CallRecord", "Path"]


@dataclass(frozen=True)
class CallRecord:
    """One extern (stateful library) call made along a path.

    Attributes:
        index: 0-based position of the call among all extern calls of the
            path (void calls included).  The concrete tracer numbers extern
            calls identically, which is how a concrete execution is matched
            back to its symbolic path.
        name: extern symbol called.
        args: symbolic argument expressions at the call site.
        result: the symbolic value the model produced, or None for void
            externs.  For the default model this is a fresh symbol named
            ``"{name}#{index}"``.
        cost: per-metric symbolic cost charged by the extern's contract —
            an opaque mapping (metric -> PerfExpr) that the symbolic layer
            carries through to BOLT without interpreting it.
        pcvs: names of the PCVs the cost expressions are written over.
        structure: data structure the extern belongs to (from its decl).
        method: method name within the structure (from its decl).
    """

    index: int
    name: str
    args: Tuple[BV, ...] = ()
    result: Optional[BV] = None
    cost: Mapping[Any, Any] = field(default_factory=dict)
    pcvs: Tuple[str, ...] = ()
    structure: str = ""
    method: str = ""

    @property
    def result_name(self) -> Optional[str]:
        """Canonical name of the model output symbol, if the call has one."""
        if self.result is None:
            return None
        return f"{self.name}#{self.index}"


@dataclass(frozen=True)
class Path:
    """One explored execution path through the stateless NF code.

    Attributes:
        pid: 0-based path id, in discovery order (deterministic).
        function: name of the analysed NFIL function.
        constraints: the path condition as a tuple of width-1 expressions
            (conjunction).
        calls: extern calls made along the path, in program order.
        returned: symbolic return value of the function, or None.
        instructions: exact dynamic NFIL instruction count of the stateless
            code along this path (a constant — PCV-dependent work lives
            behind the extern calls).
        memory_accesses: exact stateless load+store count along this path.
        model: a concrete assignment (symbol name -> value) satisfying the
            path condition, or None when the solver could not produce one
            (the path is still kept: the solver is conservative).
    """

    pid: int
    function: str
    constraints: Tuple[BV, ...] = ()
    calls: Tuple[CallRecord, ...] = ()
    returned: Optional[BV] = None
    instructions: int = 0
    memory_accesses: int = 0
    model: Optional[Dict[str, int]] = None

    @property
    def feasibility(self) -> str:
        """``"sat"`` when the path has a solver-verified model, else
        ``"unknown"``: not proven feasible, but not refuted either."""
        return "unknown" if self.model is None else "sat"

    def condition(self) -> BV:
        """Return the path condition as a single conjunction."""
        return bool_and(*self.constraints)

    def covers(self, env: Mapping[str, int]) -> bool:
        """Return True when the concrete assignment satisfies the path.

        ``env`` maps symbol names (input bytes, parameters and extern
        results named ``"{extern}#{index}"``) to concrete values; missing
        symbols default to 0, matching
        :func:`repro.sym.expr.evaluate`.
        """
        return all(evaluate(constraint, env) == 1 for constraint in self.constraints)

    def concrete_inputs(self, defaults: Mapping[str, int] | None = None) -> Dict[str, int]:
        """Return the solver model completed with defaults for free symbols.

        Raises:
            ValueError: the path has no model (feasibility unknown).
        """
        if self.model is None:
            raise ValueError(f"path {self.pid} has no concrete model")
        inputs = dict(defaults or {})
        inputs.update(self.model)
        return inputs

    def describe(self) -> str:
        """Render a human-readable multi-line description of the path."""
        lines = [
            f"path {self.pid} of {self.function} "
            f"[{self.feasibility}] instructions={self.instructions} "
            f"memory={self.memory_accesses}"
        ]
        for constraint in self.constraints:
            lines.append(f"  assume {render(constraint)}")
        for call in self.calls:
            result = f" -> {render(call.result)}" if call.result is not None else ""
            args = ", ".join(render(arg) for arg in call.args)
            lines.append(f"  call {call.name}({args}){result}")
        if self.returned is not None:
            lines.append(f"  return {render(self.returned)}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()
