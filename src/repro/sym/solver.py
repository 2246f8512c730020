"""A small constraint solver for path feasibility and input generation.

BOLT needs two things from a solver (§3.3):

1. decide whether a path condition is feasible, and
2. produce a concrete model (packet bytes, model outputs) that exercises a
   feasible path, so the path can be replayed through the instruction tracer.

The NF stateless code produced by the Vigor-style split branches on packet
header fields and on the outputs of data-structure models, so its path
conditions are conjunctions of (in)equalities over bit-vectors — a fragment
that the following combination handles well:

* constant folding / flattening,
* unit propagation of equalities ``sym == const``,
* interval propagation for comparisons against constants,
* a bounded DFS over candidate values mined from the constraints, with
  partial-evaluation pruning, followed by a seeded random phase.

The solver is **conservative**: it answers UNSAT only with a proof (a folded
contradiction or an empty interval), and SAT only with a verified model.
Everything else is UNKNOWN, which BOLT treats as "possibly feasible", so the
resulting contracts never silently drop a path.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.nfil.instructions import CMP_OPS
from repro.sym import expr as E
from repro.sym.expr import BV, BinOp, BoolOp, Cmp, Const, Sym, evaluate, free_symbols
from repro.sym.simplify import simplify, substitute

__all__ = ["CheckResult", "Solver"]


class CheckResult(enum.Enum):
    """Outcome of a satisfiability check."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class _Interval:
    """A closed unsigned interval with excluded points."""

    lo: int
    hi: int
    excluded: set[int] = field(default_factory=set)

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        # Only treat the interval as empty when exclusions provably cover it
        # (cheap check for small intervals).
        size = self.hi - self.lo + 1
        if size <= len(self.excluded) + 1 and size <= 4096:
            return all(value in self.excluded for value in range(self.lo, self.hi + 1))
        return False

    def clamp(self, value: int) -> int:
        return min(max(value, self.lo), self.hi)


class Solver:
    """Constraint solver over the :mod:`repro.sym.expr` language.

    :meth:`solve` is the whole interface: one conjunction in, a verdict and
    (for SAT) a verified model out.  A solver remembers no query; the only
    state it carries between calls is the seeded stream its random phase
    draws from, so a fixed sequence of queries gets fixed answers.
    """

    #: Search budgets: DFS nodes per query, candidate values per symbol,
    #: and random assignments tried after the DFS (from a fixed seed).
    MAX_SEARCH_NODES = 50_000
    MAX_CANDIDATES_PER_SYMBOL = 16
    RANDOM_TRIES = 2_000

    def __init__(self) -> None:
        self._rng = random.Random(0)

    def solve(self, constraints: Iterable[BV]) -> Tuple[CheckResult, Optional[Dict[str, int]]]:
        """Decide the conjunction of ``constraints``.

        Returns ``(result, model)``; a model comes only with SAT, and it
        satisfies ``constraints`` themselves, not just their simplified form.
        """
        constraints = list(constraints)
        flat = self._flatten(constraints)
        if flat is None:
            return CheckResult.UNSAT, None
        if not flat:
            return CheckResult.SAT, {}

        assignment: Dict[str, int] = {}
        flat = self._unit_propagate(flat, assignment)
        if flat is None:
            return CheckResult.UNSAT, None

        symbols = self._collect_symbols(flat)
        if not symbols:
            # All constraints reduced to constants during propagation.
            if all(isinstance(c, Const) and c.value == 1 for c in flat):
                return CheckResult.SAT, assignment
            return CheckResult.UNSAT, None

        intervals = self._intervals(flat, symbols)
        if intervals is None:
            return CheckResult.UNSAT, None

        model = self._search(flat, symbols, intervals, assignment, constraints)
        if model is not None:
            return CheckResult.SAT, model
        model = self._random_phase(symbols, intervals, assignment, constraints)
        if model is not None:
            return CheckResult.SAT, model
        return CheckResult.UNKNOWN, None

    @staticmethod
    def _flatten(constraints: Sequence[BV]) -> Optional[List[BV]]:
        """Simplify, flatten conjunctions, drop tautologies; None on contradiction."""
        flat: List[BV] = []
        queue = list(constraints)
        while queue:
            constraint = simplify(queue.pop())
            if isinstance(constraint, Const):
                if constraint.value == 0:
                    return None
                continue
            if isinstance(constraint, BoolOp) and constraint.op == "and":
                queue.extend(constraint.parts)
                continue
            flat.append(constraint)
        return flat

    def _unit_propagate(
        self, constraints: List[BV], assignment: Dict[str, int]
    ) -> Optional[List[BV]]:
        """Repeatedly apply ``sym == const`` facts; None on contradiction.

        Each fact on a symbol ``assignment`` does not bind yet is recorded
        there and substituted into every constraint.
        """
        while True:
            units: Dict[str, int] = {}
            for constraint in constraints:
                if isinstance(constraint, Cmp) and constraint.op == "eq":
                    sym, value = self._as_sym_const(constraint)
                    if sym is not None and sym.name not in units:
                        units[sym.name] = value
            units = {name: value for name, value in units.items() if name not in assignment}
            if not units:
                return constraints
            assignment.update(units)
            flat = self._flatten([substitute(constraint, units) for constraint in constraints])
            if flat is None:
                return None
            constraints = flat

    @staticmethod
    def _as_sym_const(constraint: Cmp) -> Tuple[Optional[Sym], int]:
        if isinstance(constraint.a, Sym) and isinstance(constraint.b, Const):
            return constraint.a, constraint.b.value
        if isinstance(constraint.b, Sym) and isinstance(constraint.a, Const):
            return constraint.b, constraint.a.value
        return None, 0

    @staticmethod
    def _collect_symbols(constraints: Sequence[BV]) -> Dict[str, int]:
        symbols: Dict[str, int] = {}
        for constraint in constraints:
            symbols.update(free_symbols(constraint))
        return symbols

    def _intervals(
        self, constraints: Sequence[BV], symbols: Mapping[str, int]
    ) -> Optional[Dict[str, _Interval]]:
        """Derive per-symbol intervals from comparisons against constants.

        None when they leave a symbol no value, or when a term is compared
        with a constant it can never reach (see :meth:`_out_of_reach`).
        """
        intervals = {name: _Interval(0, E.mask(width)) for name, width in symbols.items()}
        for constraint in constraints:
            if isinstance(constraint, Cmp):
                if self._out_of_reach(constraint):
                    return None
                self._narrow(intervals, constraint)
        for interval in intervals.values():
            if interval.is_empty():
                return None
        return intervals

    @staticmethod
    def _upper_bound(term: BV) -> int:
        """The largest unsigned value ``term`` can take, as far as ``and`` shows it.

        ``t and C`` is at most ``C``, also through nested ``and``; any
        other term is bounded by its width.
        """
        if isinstance(term, Const):
            return term.value
        if isinstance(term, BinOp) and term.op == "and":
            return min(Solver._upper_bound(term.a), Solver._upper_bound(term.b))
        return E.mask(term.width)

    @staticmethod
    def _out_of_reach(constraint: Cmp) -> bool:
        """Whether ``constraint`` asks a term to reach a constant above its upper bound."""
        term, bound, op = constraint.a, constraint.b, constraint.op
        if isinstance(term, Const):
            term, bound, op = bound, term, CMP_OPS[op].swapped
        if isinstance(term, Const) or not isinstance(bound, Const):
            return False
        most = Solver._upper_bound(term)
        return (op == "ugt" and most <= bound.value) or (
            op in ("uge", "eq") and most < bound.value
        )

    @staticmethod
    def _narrow(intervals: Dict[str, _Interval], constraint: Cmp) -> None:
        sym: Optional[Sym] = None
        value = 0
        flipped = False
        if isinstance(constraint.a, Sym) and isinstance(constraint.b, Const):
            sym, value = constraint.a, constraint.b.value
        elif isinstance(constraint.b, Sym) and isinstance(constraint.a, Const):
            sym, value = constraint.b, constraint.a.value
            flipped = True
        if sym is None or sym.name not in intervals:
            return
        interval = intervals[sym.name]
        op = CMP_OPS[constraint.op].swapped if flipped else constraint.op
        if op == "eq":
            interval.lo = max(interval.lo, value)
            interval.hi = min(interval.hi, value)
        elif op == "ne":
            interval.excluded.add(value)
        elif op == "ult":
            interval.hi = min(interval.hi, value - 1)
        elif op == "ule":
            interval.hi = min(interval.hi, value)
        elif op == "ugt":
            interval.lo = max(interval.lo, value + 1)
        elif op == "uge":
            interval.lo = max(interval.lo, value)

    def _candidate_values(
        self,
        name: str,
        width: int,
        interval: _Interval,
        mentioned: Sequence[int],
    ) -> List[int]:
        """Turn mined constants into candidate values for one symbol."""
        candidates: List[int] = []
        seeds = [interval.lo, interval.hi, 0, 1]
        for value in mentioned:
            seeds.extend((value, value + 1, value - 1))
        seen: set[int] = set()
        for value in seeds:
            value = interval.clamp(value)
            if value in interval.excluded:
                for bumped in (value + 1, value - 1, value + 2):
                    bumped = interval.clamp(bumped)
                    if bumped not in interval.excluded:
                        value = bumped
                        break
            if 0 <= value <= E.mask(width) and value not in seen:
                seen.add(value)
                candidates.append(value)
            if len(candidates) >= self.MAX_CANDIDATES_PER_SYMBOL:
                break
        if not candidates:
            candidates.append(interval.clamp(0))
        return candidates

    @staticmethod
    def _mine_constants(constraints: Sequence[BV]) -> Dict[str, List[int]]:
        """Collect, per symbol, the constants compared/combined with it.

        One pass over all constraints with per-node symbol-set memoisation,
        so mining stays linear in the constraint size instead of quadratic
        per symbol.
        """
        found: Dict[str, List[int]] = {}
        memo: Dict[int, frozenset] = {}

        def names(node: BV) -> frozenset:
            key = id(node)
            cached = memo.get(key)
            if cached is not None:
                return cached
            if isinstance(node, Sym):
                result = frozenset((node.name,))
            else:
                result = frozenset()
                for child in node.children():
                    result |= names(child)
            memo[key] = result
            return result

        for constraint in constraints:
            stack = [constraint]
            while stack:
                node = stack.pop()
                if isinstance(node, (Cmp, BinOp)):
                    a, b = node.a, node.b
                    if isinstance(b, Const):
                        for symbol in names(a):
                            found.setdefault(symbol, []).append(b.value)
                    if isinstance(a, Const):
                        for symbol in names(b):
                            found.setdefault(symbol, []).append(a.value)
                stack.extend(node.children())
        return found

    def _verify(
        self, original: Sequence[BV], model: Mapping[str, int]
    ) -> bool:
        return all(evaluate(constraint, model) == 1 for constraint in original)

    def _search(
        self,
        constraints: List[BV],
        symbols: Dict[str, int],
        intervals: Dict[str, _Interval],
        assignment: Dict[str, int],
        original: Sequence[BV],
    ) -> Optional[Dict[str, int]]:
        """Bounded DFS over mined candidate values with pruning.

        Two refinements make the search effective on the equality-heavy
        path conditions BOLT produces: symbols with narrow intervals are
        assigned first, and after every assignment the newly exposed
        ``sym == const`` units are propagated, so derived symbols (e.g.
        ``y == x + 1``) never need to be guessed at all.
        """
        names = sorted(symbols)
        mined = self._mine_constants(constraints)
        candidates = {
            name: self._candidate_values(name, symbols[name], intervals[name], mined.get(name, ()))
            for name in names
        }
        names.sort(
            key=lambda name: (intervals[name].hi - intervals[name].lo, len(candidates[name]))
        )
        budget = [self.MAX_SEARCH_NODES]

        def recurse(remaining: List[BV], partial: Dict[str, int]) -> Optional[Dict[str, int]]:
            if budget[0] <= 0:
                return None
            propagated = self._unit_propagate(remaining, partial)
            if propagated is None:
                return None
            remaining = propagated
            name = next((n for n in names if n not in partial), None)
            if name is None:
                model = dict(assignment)
                model.update(partial)
                if self._verify(original, model):
                    return model
                return None
            for value in candidates[name]:
                budget[0] -= 1
                if budget[0] <= 0:
                    return None
                substituted = [substitute(constraint, {name: value}) for constraint in remaining]
                flat = self._flatten(substituted)
                if flat is None:
                    continue
                found = recurse(flat, {**partial, name: value})
                if found is not None:
                    return found
            return None

        return recurse(constraints, {})

    def _random_phase(
        self,
        symbols: Dict[str, int],
        intervals: Dict[str, _Interval],
        assignment: Dict[str, int],
        original: Sequence[BV],
    ) -> Optional[Dict[str, int]]:
        """Last-resort randomized assignment within the derived intervals."""
        names = sorted(symbols)
        for _ in range(self.RANDOM_TRIES):
            model = dict(assignment)
            for name in names:
                interval = intervals[name]
                span = interval.hi - interval.lo
                if span <= 0:
                    value = interval.lo
                else:
                    value = interval.lo + self._rng.randrange(span + 1)
                model[name] = value
            if self._verify(original, model):
                return model
        return None
