"""Execution traces: the reproduction's stand-in for Intel Pin.

The paper replays concrete inputs under binary instrumentation to count the
dynamic instructions and memory accesses of each execution (§3.2).  Here the
concrete :class:`repro.nfil.interpreter.Interpreter` plays that role and
fills in an :class:`ExecutionTrace`: it adds each segment's instruction
counts in bulk, appends the address of every memory access to
:attr:`ExecutionTrace.accesses` when the address stream is recorded, and
records each extern call — one :meth:`ExecutionTrace.record_extern` of the
handler's :class:`~repro.nfil.interpreter.ExternResult`, kept as an
:class:`ExternCall` (both are named tuples, cheap to build per call) —
folding the PCVs the call observed into the trace's binding as it goes.

Costs split into two layers, mirroring the Vigor-style separation the paper
relies on:

* *stateless* costs — NFIL instructions executed by the interpreter itself
  (one dynamic instruction per executed NFIL instruction, one memory access
  per load or store), and
* *extern* costs — the instruction/memory-access cost reported by the
  instrumented stateful data structure backing each extern call, together
  with the PCV values (collisions, traversals, expired entries, ...) the
  structure observed while serving the call.

``total_instructions()`` / ``total_memory_accesses()`` add both layers and
are what performance contracts must upper-bound.  The extern layer's totals
are running counters, kept as each call is recorded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Tuple

if TYPE_CHECKING:
    from repro.nfil.interpreter import ExternResult

__all__ = ["ExecutionTrace", "ExternCall"]


class ExternCall(NamedTuple):
    """One call into the stateful library, with its instrumented cost.

    Attributes:
        index: position of the call in the execution (0-based, counting
            every extern call, including ones that return no value).  The
            symbolic engine numbers its model outputs the same way, which is
            what lets a concrete trace be matched back to a symbolic path.
        name: extern symbol called.
        args: concrete argument values.
        result: concrete return value, or None for void externs.
        instructions: dynamic instructions the structure spent on the call.
        memory_accesses: memory accesses the structure spent on the call.
        pcvs: PCV values observed while serving the call (e.g. ``{"t": 3}``).
    """

    index: int
    name: str
    args: Tuple[int, ...]
    result: Optional[int]
    instructions: int
    memory_accesses: int
    pcvs: Mapping[str, int]


class ExecutionTrace:
    """Dynamic instruction/memory counts for one concrete execution."""

    def __init__(self, *, record_accesses: bool = True) -> None:
        self.instructions: int = 0
        self.category_counts: Dict[str, int] = {}
        self.mem_reads: int = 0
        self.mem_writes: int = 0
        #: The address of every memory access, stateless and extern, in
        #: execution order; empty unless ``record_accesses``.
        self.accesses: List[int] = []
        self.extern_calls: List[ExternCall] = []
        #: Each PCV's largest observation so far (a zero kept), in first-observed
        #: order, folded by :meth:`record_extern`; read-only (see :meth:`pcv_bindings`).
        self.binding: Dict[str, int] = {}
        self.record_accesses = record_accesses
        self._extern_instructions = 0
        self._extern_memory_accesses = 0

    # ------------------------------------------------------------------ #
    # Recording, one event at a time
    # ------------------------------------------------------------------ #
    def record_instruction(self, category: str) -> None:
        """Count one executed stateless NFIL instruction."""
        self.instructions += 1
        self.category_counts[category] = self.category_counts.get(category, 0) + 1

    def record_access(self, addr: int, kind: str) -> None:
        """Count one stateless memory access; ``kind`` is ``"load"`` or ``"store"``."""
        if kind == "store":
            self.mem_writes += 1
        else:
            self.mem_reads += 1
        if self.record_accesses:
            self.accesses.append(addr)

    def record_extern(self, name: str, args: Tuple[int, ...], result: "ExternResult") -> ExternCall:
        """Record one extern call: what its handler returned for ``args``.

        The call keeps the handler's ``pcvs`` mapping as it is, and each
        observation folds into :attr:`binding`.  When address recording
        is on, the structure's touched addresses (``result.accesses``)
        join :attr:`accesses` in execution order alongside the stateless
        stream, so a cache simulator replays the packet's full
        interleaved address trace.
        """
        value, instructions, memory_accesses, pcvs, accesses = result
        calls = self.extern_calls
        # tuple.__new__ skips the named tuple's Python-level __new__.
        call = tuple.__new__(
            ExternCall, (len(calls), name, args, value, instructions, memory_accesses, pcvs)
        )
        calls.append(call)
        self._extern_instructions += instructions
        self._extern_memory_accesses += memory_accesses
        if pcvs:
            binding = self.binding
            for pcv, observed in pcvs.items():
                binding[pcv] = max(binding.get(pcv, 0), int(observed))
        if self.record_accesses:
            self.accesses += accesses
        return call

    # ------------------------------------------------------------------ #
    # Aggregation (consumed by tests and the contract cross-check)
    # ------------------------------------------------------------------ #
    @property
    def memory_accesses(self) -> int:
        """Stateless memory accesses (loads + stores)."""
        return self.mem_reads + self.mem_writes

    def extern_instructions(self) -> int:
        """Instructions spent inside the stateful library."""
        return self._extern_instructions

    def extern_memory_accesses(self) -> int:
        """Memory accesses spent inside the stateful library."""
        return self._extern_memory_accesses

    def total_instructions(self) -> int:
        """Stateless + extern dynamic instruction count."""
        return self.instructions + self._extern_instructions

    def total_memory_accesses(self) -> int:
        """Stateless + extern memory access count."""
        return self.mem_reads + self.mem_writes + self._extern_memory_accesses

    def pcv_bindings(self) -> Dict[str, int]:
        """A copy of :attr:`binding`: one value per PCV the calls observed.

        Each PCV keeps its largest observation, which is the sound choice
        when a contract charges a shared PCV at every call site.
        """
        return dict(self.binding)

    def summary(self) -> str:
        """Render a one-line human-readable summary."""
        return (
            f"instructions={self.total_instructions()} "
            f"(stateless {self.instructions} + extern {self.extern_instructions()}), "
            f"memory={self.total_memory_accesses()} "
            f"(stateless {self.memory_accesses} + extern {self.extern_memory_accesses()}), "
            f"extern_calls={len(self.extern_calls)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ExecutionTrace {self.summary()}>"
