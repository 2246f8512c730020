"""Common machinery of the Vigor-style stateful structure library.

The paper's NFs are all assembled from a small library of verified stateful
data structures whose performance the analysis takes on contract rather
than re-deriving (§3.2); every structure in :mod:`repro.structures` ships
the three artefacts the BOLT pipeline needs:

1. a **concrete instrumented implementation** — the structure is an
   :class:`repro.nfil.interpreter.ExternHandler` whose handlers report the
   instruction/memory cost of each call through the
   :mod:`repro.nfil.tracer` conventions, together with the PCV values the
   call actually incurred;
2. a **symbolic model** — :class:`StructureModel` plugs any set of
   structures into :class:`repro.sym.engine.SymbolicEngine`: extern outputs
   become fresh symbols (optionally constrained) and every call charges the
   PCV-parameterised cost its operation contract promises;
3. a **hand-derived per-operation contract** — one
   :class:`~repro.core.contract.PerformanceContract` entry per method
   (:meth:`Structure.operation_contract`), checked against 100+ traced
   concrete operations in the test suite.

The cost formulas live in each structure's :class:`OpSpec` table and are the
*single source of truth*: the symbolic model charges them verbatim, the
concrete handlers charge at most them (some fast paths charge slightly
less), and the hand contract is assembled from them.

**Per-instance PCV namespacing.**  A structure *kind* documents its cost
formulas over local PCV symbols (``t``, ``w``, ``e``); a structure
*instance* emits them under instance-qualified names
(``{instance}.{symbol}``, e.g. ``fwd.t`` vs ``rev.t`` for a NAT's two flow
tables).  The base class performs the qualification in one place
(:meth:`Structure.qualify_spec` / :meth:`Structure.pcv_name`), so the
symbolic model's charges, the concrete handlers' reported PCV
observations, the hand contract and the PCV registry all agree on the
qualified form — and two instances of the same kind inside one NF can
never alias each other's PCVs, contract columns or adversarial bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import re
import zlib

from repro.core.contract import ContractEntry, Metric, PerformanceContract
from repro.core.input_class import InputClass
from repro.core.pcv import PCV, PCVRegistry, qualify_name
from repro.core.perfexpr import PerfExpr
from repro.nfil.interpreter import ExternHandler, ExternResult
from repro.nfil.program import ExternDecl, Module
from repro.sym import expr as E
from repro.sym.engine import ModelOutcome, SymbolicModel
from repro.sym.expr import BV, Const, Sym
from repro.sym.state import SymbolicState

__all__ = [
    "NOT_FOUND",
    "OpSpec",
    "Structure",
    "StructureModel",
    "bounded_value_constraint",
    "check_extern_collisions",
    "linear_cost",
]

#: Sentinel returned by lookup-style operations for absent keys.
NOT_FOUND = (1 << 64) - 1

#: Allowed shape of a structure instance name (also the rule quoted by the
#: validation error, so users learn it from the message).  Matches the PCV
#: name-part rule in :mod:`repro.core.pcv` exactly — a looser rule here
#: would let a structure construct and then crash on its first PCV use.
#: Dots are reserved as the PCV namespace separator.
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
NAME_CHARSET = "letters, digits and underscores, not starting with a digit"


@dataclass(frozen=True)
class OpSpec:
    """The contract-facing specification of one structure operation.

    Attributes:
        method: method name; the extern is named ``"{instance}_{method}"``.
        arity: number of arguments the extern takes.
        returns_value: whether the extern produces a value.
        cost: hand-derived per-metric worst-case cost of one call, written
            over the structure's PCVs.  The symbolic model charges exactly
            this; the concrete handlers never charge more.
        pcvs: names of the PCVs the cost is written over.
        description: human-readable meaning, rendered in contract tables.
    """

    method: str
    arity: int
    returns_value: bool
    cost: Mapping[Metric, PerfExpr] = field(default_factory=dict)
    pcvs: Tuple[str, ...] = ()
    description: str = ""


def linear_cost(
    pcv: str, *, instr: Tuple[int, int], mem: Tuple[int, int]
) -> Dict[Metric, PerfExpr]:
    """Build the ``base + slope*pcv`` cost shape most operations use."""
    base_i, per_i = instr
    base_m, per_m = mem
    return {
        Metric.INSTRUCTIONS: PerfExpr.from_terms(**{pcv: per_i, "const": base_i}),
        Metric.MEMORY_ACCESSES: PerfExpr.from_terms(**{pcv: per_m, "const": base_m}),
    }


class Structure(ExternHandler):
    """Base class of every stateful structure in the library.

    A subclass defines its operation table via :meth:`ops`, implements one
    ``_op_{method}(args, memory)`` handler per operation, and declares its
    PCVs (as *local* symbols) through :meth:`pcvs`.  The base class derives
    extern declarations, the per-operation contract, the instance-qualified
    PCV registry, and the handler registrations from those tables.
    """

    #: What kind of structure this is (e.g. ``"chaining_hash_map"``).
    kind: str = "structure"

    def __init__(self, name: str) -> None:
        super().__init__()
        if not name or not _NAME_RE.match(name):
            raise ValueError(
                f"invalid structure instance name: {name!r} (allowed characters: {NAME_CHARSET})"
            )
        self.name = name
        # A deterministic per-instance heap region for the simulated cache
        # model: derived purely from the instance name (no global counter,
        # no allocation order), so recorded address streams — and therefore
        # simulated cycles and their measured tails — are bit-identical
        # across workers and runs.  256 KiB-aligned regions spread instances
        # across cache sets; a rare name-hash collision merely shares lines.
        self.heap_base = 0x1000_0000 + (zlib.crc32(name.encode("utf-8")) & 0x3FFF) * 0x4_0000
        #: Whether calls report the addresses they touched (``accesses``).
        #: Handlers build their address lists only while this is on; an
        #: :class:`~repro.nf.replay.NFHarness` switches it off for the
        #: structures it owns unless a cache-simulating model will read
        #: the address stream.
        self.record_accesses = True
        # Snapshot the op table once; op() answers from it.
        self._ops_by_method: Dict[str, OpSpec] = {op.method: op for op in self.ops()}
        # charge() programs, compiled on each method's first charge: most
        # instances built for a replay serve only a few of their methods.
        self._charges: Dict[str, Tuple[frozenset, Callable[..., ExternResult]]] = {}
        for op in self._ops_by_method.values():
            handler = getattr(self, f"_op_{op.method}", None)
            if handler is None:
                raise TypeError(
                    f"{type(self).__name__} declares op {op.method!r} "
                    f"but implements no _op_{op.method}"
                )
            self.register(self.extern_name(op.method), handler)

    # -- the operation table (overridden by subclasses) ------------------ #
    def ops(self) -> Sequence[OpSpec]:
        """Return the operation table of the structure (local PCV symbols)."""
        raise NotImplementedError

    def pcvs(self) -> Sequence[PCV]:
        """Return the structure's PCVs as *local* symbols with instance bounds."""
        raise NotImplementedError

    def registry(self) -> PCVRegistry:
        """Return the instance-qualified PCV registry of the structure.

        Every PCV of :meth:`pcvs` is namespaced as
        ``{instance}.{symbol}``, so two instances of the same kind expose
        disjoint registries.
        """
        return PCVRegistry(pcv.qualify(self.name) for pcv in self.pcvs())

    def result_constraints(self, method: str, result: BV, args: Tuple[BV, ...]) -> Tuple[BV, ...]:
        """Symbolic assumptions about the output of a value-returning op.

        The default constrains nothing; subclasses with a known value range
        (e.g. a map storing switch ports) narrow the havoced output here.
        """
        return ()

    # -- derived plumbing ------------------------------------------------ #
    def extern_name(self, method: str) -> str:
        """Return the extern symbol of one method of this instance."""
        return f"{self.name}_{method}"

    def slot_addr(self, slot: int) -> int:
        """Model address of logical 8-byte slot ``slot`` in this instance's heap.

        Handlers use this to report *which* addresses an operation touched
        (``charge(..., touched=[...])``, built only while
        :attr:`record_accesses` is on): slots that model the same storage
        (a bucket head, a trie node, a counter cell) map to the same
        address every call, which is what gives the cache simulator real
        re-use to observe.  The layout is a model, not an allocator — only
        identity and adjacency of slots matter, not their absolute values.
        """
        return self.heap_base + 8 * slot

    def pcv_name(self, symbol: str) -> str:
        """Return the instance-qualified name of a local PCV symbol."""
        return qualify_name(self.name, symbol)

    def qualify_spec(self, op: OpSpec) -> OpSpec:
        """Return ``op`` rewritten over this instance's qualified PCVs.

        The cost formulas' variables and the spec's PCV tuple are renamed
        from local symbols (``t``) to instance-qualified names
        (``{instance}.t``); everything else is kept verbatim.
        """
        mapping = {symbol: self.pcv_name(symbol) for symbol in op.pcvs}
        return OpSpec(
            method=op.method,
            arity=op.arity,
            returns_value=op.returns_value,
            cost={metric: expr.rename(mapping) for metric, expr in op.cost.items()},
            pcvs=tuple(mapping[symbol] for symbol in op.pcvs),
            description=op.description,
        )

    def op(self, method: str) -> OpSpec:
        """Return the spec of the named operation (as snapshot at init).

        The returned spec is in *local* form; :meth:`qualify_spec` turns it
        into the instance-qualified form the contract surface emits.
        """
        try:
            return self._ops_by_method[method]
        except KeyError:
            raise KeyError(f"{self.name}: unknown operation {method!r}") from None

    def declare(self, module: Module) -> None:
        """Declare this instance's externs on ``module``."""
        for op in self.ops():
            module.declare_extern(
                self.extern_name(op.method),
                op.arity,
                returns_value=op.returns_value,
                structure=self.name,
                method=op.method,
            )

    def operation_contract(self) -> PerformanceContract:
        """The hand-derived contract: one entry per operation.

        Emitted in instance-qualified PCV form, matching what the symbolic
        model charges and what the concrete handlers report.
        """
        contract = PerformanceContract(f"{self.name}({self.kind})", registry=self.registry())
        for op in self.ops():
            qualified = self.qualify_spec(op)
            contract.add_entry(
                ContractEntry(
                    input_class=InputClass(op.method, description=op.description),
                    exprs=dict(qualified.cost),
                )
            )
        return contract

    def charge(
        self,
        method: str,
        value: Optional[int] = None,
        *,
        discount_instructions: int = 0,
        touched: Sequence[int] = (),
        **pcvs: int,
    ) -> ExternResult:
        """Build the :class:`ExternResult` of one concrete call.

        Evaluates the operation's cost formulas at the observed PCV values
        (callers pass exactly the operation's *local* symbols, e.g.
        ``t=3``; a missing or unexpected one raises ``TypeError`` rather
        than be charged at 0 or dropped); the reported PCV observations
        are instance-qualified (``{"fwd.t": 3}``) so traces line up with
        the contract's namespaced variables.  The method's first charge
        compiles its program (:meth:`_charge_program`); handlers call
        ``charge``, which a traced bench pass wraps per instance.
        ``discount_instructions`` lets a fast path report fewer instructions
        than the worst-case formula (never more), keeping the hand contract
        a genuine upper bound rather than a tautology.

        ``touched`` optionally names the addresses the call accessed (in
        touch order, usually built with :meth:`slot_addr`) for the cache
        simulator: a sequence, never ``None``, which handlers build only
        while :attr:`record_accesses` is on.  Then the reported tuple is
        exactly the formula's access count: the remainder past ``touched``
        is padded with :attr:`heap_base` (the instance's header word — a
        realistic stand-in for the bookkeeping accesses the cost formula
        charges but the handler does not enumerate), and more addresses
        than the count raise ``ValueError``, since the formula would then
        undercharge the call.  While it is off, ``accesses`` is ``()``:
        counts only.
        """
        compiled = self._charges.get(method)
        if compiled is None:
            compiled = self._charges[method] = self._charge_program(method)
        symbols, program = compiled
        if pcvs.keys() != symbols:
            raise self._pcv_mismatch(method, symbols, pcvs)
        return program(value, discount_instructions, touched, pcvs, self.record_accesses)

    def _charge_program(self, method: str) -> Tuple[frozenset, Callable[..., ExternResult]]:
        """``(PCV symbols, program(value, discount, touched, pcvs, record))`` of one op.

        The program evaluates the formulas' ceilings, checks the discount,
        checks and pads ``touched`` when ``record`` is on, and builds the result
        with the qualified PCV mapping written as a literal.
        """
        op = self.op(method)
        local = {symbol: f"p{k}" for k, symbol in enumerate(op.pcvs)}
        binding = ", ".join(f"{self.pcv_name(symbol)!r}: {name}" for symbol, name in local.items())
        where = f"{self.name}.charge({method!r}) recorded "
        lines = [
            "def program(value, discount, touched, pcvs, record):",
            *(f"    {name} = pcvs[{symbol!r}]" for symbol, name in local.items()),
            f"    instructions = {op.cost[Metric.INSTRUCTIONS].ceil_source(local.__getitem__)}",
            "    if discount < 0 or discount >= instructions:",
            "        raise ValueError(f'bad instruction discount {discount}')",
            f"    count = {op.cost[Metric.MEMORY_ACCESSES].ceil_source(local.__getitem__)}",
            "    accesses = ()",
            "    if record:",
            "        accesses = tuple(touched)",
            "        if len(accesses) > count:",
            f"            raise ValueError({where!r} f'{{len(accesses)}} addresses "
            "but its formula charges {count}')",
            "        if len(accesses) < count:",
            f"            accesses += ({self.heap_base},) * (count - len(accesses))",
            "    return new(ExternResult, (value, instructions - discount, count, "
            f"{{{binding}}}, accesses))",
        ]
        namespace = {"new": tuple.__new__, "ExternResult": ExternResult}
        exec("\n".join(lines), namespace)  # noqa: S102 - generated from the op's cost formulas
        return frozenset(op.pcvs), namespace["program"]

    def _pcv_mismatch(self, method: str, symbols: frozenset, pcvs: Mapping[str, int]) -> TypeError:
        """The error for a charge whose PCV keywords differ from its operation's."""
        missing = sorted(symbols - pcvs.keys())
        if missing:
            problem = f"missing PCV {missing[0]!r}"
        else:
            problem = f"unexpected PCV {sorted(pcvs.keys() - symbols)[0]!r}"
        return TypeError(
            f"{self.name}.charge({method!r}): {problem}; "
            f"the operation charges exactly {sorted(symbols)}"
        )


def check_extern_collisions(structures: Sequence[Structure]) -> None:
    """Reject structure sets whose mangled extern names collide.

    Externs are mangled ``{instance}_{method}``, which is ambiguous when
    underscores straddle the boundary: instance ``a_b`` with method ``c``
    and instance ``a`` with method ``b_c`` both mangle to ``a_b_c``.  A
    collision would silently cross-wire dispatch, cost attribution and
    trace matching, so every aggregation point (the symbolic model, the
    harness handler merge, the module's extern declarations) must refuse
    it loudly.

    Two *distinct* instances sharing one name are rejected for the same
    reason: their externs mangle identically, so the symbolic model would
    silently rebind dispatch to whichever instance came last (while the
    concrete handler merge errors), splitting the two pipelines.  The same
    instance object appearing twice is fine.

    Raises:
        ValueError: two distinct (instance, method) claims — from
            different names or different objects under one name — produce
            the same extern symbol.
    """
    owners: Dict[str, Tuple[int, str, str]] = {}
    for structure in structures:
        for op in structure.ops():
            extern = structure.extern_name(op.method)
            claim = (id(structure), structure.name, op.method)
            existing = owners.get(extern)
            if existing is not None and existing != claim:
                if existing[1:] == claim[1:]:
                    raise ValueError(
                        f"two distinct structure instances both named "
                        f"{structure.name!r} claim extern {extern!r}; "
                        f"instance names must be unique"
                    )
                raise ValueError(
                    f"extern name {extern!r} is ambiguous after mangling: "
                    f"instance {existing[1]!r} method {existing[2]!r} vs "
                    f"instance {claim[1]!r} method {claim[2]!r}"
                )
            owners[extern] = claim


class StructureModel(SymbolicModel):
    """Symbolic model over any set of library structures.

    Dispatches each extern call to the owning structure's operation table:
    value-returning operations havoc their output (constrained by the
    structure's :meth:`~Structure.result_constraints`) and every call
    charges the PCV-parameterised cost its operation contract promises —
    byte-for-byte the formulas the concrete handlers charge, in the
    instance-qualified PCV form (``fwd.t``, never bare ``t``).
    """

    def __init__(self, *structures: Structure) -> None:
        check_extern_collisions(structures)
        self._by_extern: Dict[str, Tuple[Structure, OpSpec]] = {}
        for structure in structures:
            for op in structure.ops():
                self._by_extern[structure.extern_name(op.method)] = (
                    structure,
                    structure.qualify_spec(op),
                )

    def registry(self) -> PCVRegistry:
        """Return the union of every modelled structure's PCV registry.

        Instance qualification makes the registries of differently named
        instances disjoint (``fwd.t`` vs ``rev.t``), and
        :func:`check_extern_collisions` rejects two distinct instances
        under one name, so the union registers no name twice.
        """
        structures = {id(structure): structure for structure, _ in self._by_extern.values()}
        return PCVRegistry(pcv for structure in structures.values() for pcv in structure.registry())

    def apply(
        self,
        decl: ExternDecl,
        args: Tuple[BV, ...],
        state: SymbolicState,
        index: int,
    ) -> ModelOutcome:
        entry = self._by_extern.get(decl.name)
        if entry is None:
            return super().apply(decl, args, state, index)
        structure, op = entry
        value: Optional[Sym] = None
        constraints: Tuple[BV, ...] = ()
        if op.returns_value:
            value = self.fresh(decl, index)
            constraints = structure.result_constraints(op.method, value, args)
        return ModelOutcome(value=value, constraints=constraints, cost=op.cost, pcvs=op.pcvs)


def bounded_value_constraint(result: BV, bound: Optional[int]) -> Tuple[BV, ...]:
    """The usual lookup-output constraint: NOT_FOUND or below ``bound``."""
    if bound is None:
        return ()
    return (
        E.bool_or(
            E.eq(result, Const(NOT_FOUND, 64)),
            E.ult(result, Const(bound, 64)),
        ),
    )
