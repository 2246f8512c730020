"""Symbolic machine state: registers, byte-addressable memory, path condition.

One :class:`SymbolicState` is one partial execution of the stateless NF
code during BOLT's path exploration (§3.1 of the paper).

The state mirrors the concrete interpreter's machine model exactly — 64-bit
registers, little-endian byte-addressable memory, a frame stack for internal
calls — except that every value is a :class:`repro.sym.expr.BV` expression
and the state additionally accumulates a path condition and the records of
extern calls made so far.

Addresses must be concrete: the NF code the paper analyses indexes packet
buffers with constant offsets, so load/store addresses constant-fold during
execution.  A genuinely symbolic address raises
:class:`SymbolicAddressError`, keeping the engine honest instead of
silently unsound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.nfil.program import Function
from repro.sym.expr import BV, Const, Sym, concat, extract, zext
from repro.sym.paths import CallRecord
from repro.sym.simplify import simplify

__all__ = ["Frame", "SymbolicAddressError", "SymbolicMemory", "SymbolicState", "UNCHECKED"]

WORD_BITS = 64

#: :attr:`SymbolicState.witness` while no feasibility check has answered
#: the current path condition.
UNCHECKED = object()


class SymbolicAddressError(RuntimeError):
    """A load/store address did not constant-fold to a concrete value."""


class SymbolicMemory:
    """Byte-addressable memory holding 8-bit symbolic expressions.

    Unwritten bytes read as the constant 0, matching the concrete
    :class:`repro.nfil.interpreter.Memory`.
    """

    def __init__(self) -> None:
        self._bytes: Dict[int, BV] = {}

    def read(self, addr: int, size: int) -> BV:
        """Read ``size`` bytes little-endian, zero-extended to 64 bits."""
        parts = [self._bytes.get(addr + offset, Const(0, 8)) for offset in range(size)]
        return zext(concat(parts), WORD_BITS)

    def write(self, addr: int, value: BV, size: int) -> None:
        """Write the low ``size`` bytes of ``value`` little-endian."""
        for offset in range(size):
            self._bytes[addr + offset] = extract(value, offset * 8, 8)

    def write_symbolic(self, addr: int, size: int, prefix: str) -> List[Sym]:
        """Fill ``[addr, addr+size)`` with fresh byte symbols.

        Bytes are named ``f"{prefix}[{i}]"`` so a concrete byte buffer maps
        directly onto an evaluation environment.
        """
        symbols: List[Sym] = []
        for offset in range(size):
            symbol = Sym(f"{prefix}[{offset}]", 8)
            self._bytes[addr + offset] = symbol
            symbols.append(symbol)
        return symbols

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write concrete bytes (e.g. a fixed header template)."""
        for offset, byte in enumerate(data):
            self._bytes[addr + offset] = Const(byte, 8)

    def clone(self) -> "SymbolicMemory":
        """Return an independent copy (cheap: expressions are immutable)."""
        copy = SymbolicMemory()
        copy._bytes = dict(self._bytes)
        return copy


@dataclass
class Frame:
    """One activation record of the symbolic machine."""

    function: Function
    block: str
    index: int
    registers: Dict[str, BV]
    ret_dest: Optional[str] = None

    def clone(self) -> "Frame":
        return Frame(
            function=self.function,
            block=self.block,
            index=self.index,
            registers=dict(self.registers),
            ret_dest=self.ret_dest,
        )


@dataclass
class SymbolicState:
    """The full symbolic machine state of one in-flight path."""

    memory: SymbolicMemory = field(default_factory=SymbolicMemory)
    frames: List[Frame] = field(default_factory=list)
    path_condition: List[BV] = field(default_factory=list)
    calls: List[CallRecord] = field(default_factory=list)
    instructions: int = 0
    memory_accesses: int = 0
    steps: int = 0
    returned: Optional[BV] = None
    finished: bool = False
    #: The model the solver gave for exactly :attr:`path_condition` (None
    #: when it answered UNKNOWN), or :data:`UNCHECKED`.
    witness: object = UNCHECKED

    # ------------------------------------------------------------------ #
    # Register file (top frame)
    # ------------------------------------------------------------------ #
    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    def get_reg(self, name: str) -> BV:
        return self.frame.registers[name]

    def set_reg(self, name: str, value: BV) -> None:
        self.frame.registers[name] = value

    # ------------------------------------------------------------------ #
    # Path condition and memory
    # ------------------------------------------------------------------ #
    def assume(self, constraint: BV) -> None:
        """Conjoin ``constraint`` to the path condition (tautologies dropped).

        A grown path condition has no witness until it is checked again.
        """
        if isinstance(constraint, Const):
            if constraint.value == 1:
                return
        self.path_condition.append(constraint)
        self.witness = UNCHECKED

    def concrete_addr(self, addr: BV) -> int:
        """Fold an address expression to a concrete value, or raise."""
        folded = simplify(addr)
        if isinstance(folded, Const):
            return folded.value
        raise SymbolicAddressError(f"address did not fold to a constant: {folded!r}")

    def load(self, addr: BV, size: int) -> BV:
        self.memory_accesses += 1
        return self.memory.read(self.concrete_addr(addr), size)

    def store(self, addr: BV, value: BV, size: int) -> None:
        self.memory_accesses += 1
        self.memory.write(self.concrete_addr(addr), value, size)

    # ------------------------------------------------------------------ #
    # Forking
    # ------------------------------------------------------------------ #
    def clone(self) -> "SymbolicState":
        """Return an independent copy for path forking."""
        return SymbolicState(
            memory=self.memory.clone(),
            frames=[frame.clone() for frame in self.frames],
            path_condition=list(self.path_condition),
            calls=list(self.calls),
            instructions=self.instructions,
            memory_accesses=self.memory_accesses,
            steps=self.steps,
            returned=self.returned,
            finished=self.finished,
            witness=self.witness,
        )
