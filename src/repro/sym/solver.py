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
from typing import ClassVar, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.nfil.instructions import CMP_OPS
from repro.sym import expr as E
from repro.sym.expr import BV, BinOp, BoolOp, Cmp, Const, Sym, evaluate, free_symbols, render
from repro.sym.simplify import simplify, substitute

__all__ = ["CheckResult", "Solver", "SolverStats"]


class CheckResult(enum.Enum):
    """Outcome of a satisfiability check."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Counters describing the work a solver instance has performed.

    The memoisation counters make the caching layer observable:

    * ``cache_hits`` — conjunctions answered from the verdict cache,
    * ``cache_misses`` — conjunctions the solving pipeline actually ran on,
    * ``dedup_dropped`` — duplicate conjuncts dropped before solving,
    * ``simplify_reused`` — constraints whose normal form was reused by
      node identity instead of re-running :func:`simplify`.
    """

    checks: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    search_nodes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dedup_dropped: int = 0
    simplify_reused: int = 0

    def record(self, result: CheckResult) -> None:
        self.checks += 1
        if result is CheckResult.SAT:
            self.sat += 1
        elif result is CheckResult.UNSAT:
            self.unsat += 1
        else:
            self.unknown += 1


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

    Repeated queries dominate symbolic exploration: every branch checks
    ``pc + [cond]`` and ``pc + [¬cond]`` where ``pc`` is a shared prefix,
    and finalisation re-solves the exact conjunction of the last branch.
    The solver therefore memoises (after DiSCo's ``PathChecker`` pattern —
    its ``infeasible_path_pres`` / ``pushed_exp`` sets):

    * constraints are canonicalised once per node identity (the engine
      shares nodes along path conditions) and duplicates are dropped,
    * verdicts (and verified SAT models) are cached per exact constraint
      keyset.

    Set ``cache=False`` (or flip :attr:`CACHE_DEFAULT`) to disable the
    verdict cache — contracts generated either way must be identical,
    which the test suite asserts.
    """

    #: Default for the ``cache`` argument; tests flip this to compare
    #: memoised against from-scratch contract generation.
    CACHE_DEFAULT: bool = True

    #: Process-wide aggregate of every instance's check and cache counters
    #: (``search_nodes`` stays per-instance).  Contract generators build
    #: their solvers internally, so callers like the CLI smoke run report
    #: cache effectiveness from before/after snapshots of this aggregate.
    TOTALS: ClassVar[SolverStats] = SolverStats()

    def __init__(
        self,
        *,
        max_search_nodes: int = 50_000,
        max_candidates_per_symbol: int = 16,
        random_tries: int = 2_000,
        seed: int = 0,
        cache: Optional[bool] = None,
    ) -> None:
        self.max_search_nodes = max_search_nodes
        self.max_candidates_per_symbol = max_candidates_per_symbol
        self.random_tries = random_tries
        self._rng = random.Random(seed)
        self.stats = SolverStats()
        self.cache_enabled = self.CACHE_DEFAULT if cache is None else cache
        # id(node) -> (node, normal form); nodes are immutable and shared
        # along path conditions, so identity is a sound (and cheap) key.
        # The node reference keeps the id from being recycled.
        self._norm: Dict[int, Tuple[BV, BV]] = {}
        # id(normal form) -> (node, canonical key string).
        self._canon: Dict[int, Tuple[BV, str]] = {}
        # keyset -> (verdict, verified model or None).
        self._verdicts: Dict[frozenset, Tuple[CheckResult, Optional[Dict[str, int]]]] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def check(self, constraints: Iterable[BV]) -> CheckResult:
        """Return SAT/UNSAT/UNKNOWN for the conjunction of ``constraints``."""
        result, _ = self._cached_solve(list(constraints))
        self._record(result)
        return result

    def model(self, constraints: Iterable[BV]) -> Optional[Dict[str, int]]:
        """Return a satisfying assignment, or None if none was found.

        A returned model is always verified against the original constraints.
        """
        result, model = self._cached_solve(list(constraints))
        self._record(result)
        if result is CheckResult.SAT:
            return model
        return None

    def is_feasible(self, constraints: Iterable[BV]) -> bool:
        """Return True unless the constraints are provably unsatisfiable.

        This is the conservative interpretation BOLT uses when exploring
        paths: UNKNOWN counts as feasible.
        """
        return self.check(constraints) is not CheckResult.UNSAT

    def implied(self, constraints: Sequence[BV], hypothesis: BV) -> bool:
        """Return True when ``constraints`` provably imply ``hypothesis``.

        Implemented as "constraints AND NOT hypothesis is UNSAT"; UNKNOWN
        means "not proven", hence False.
        """
        negated = E.bnot(hypothesis)
        result, _ = self._cached_solve(list(constraints) + [negated])
        self._record(result)
        return result is CheckResult.UNSAT

    # ------------------------------------------------------------------ #
    # Memoisation layer
    # ------------------------------------------------------------------ #
    def _record(self, result: CheckResult) -> None:
        self.stats.record(result)
        Solver.TOTALS.record(result)

    def _count(self, counter: str, amount: int = 1) -> None:
        """Bump one cache counter on the instance and the class aggregate."""
        setattr(self.stats, counter, getattr(self.stats, counter) + amount)
        setattr(Solver.TOTALS, counter, getattr(Solver.TOTALS, counter) + amount)

    def _normalise(self, node: BV) -> BV:
        """Return ``simplify(node)``, reusing the normal form by identity."""
        entry = self._norm.get(id(node))
        if entry is not None:
            self._count("simplify_reused")
            return entry[1]
        simplified = simplify(node)
        if id(simplified) not in self._norm:
            # Register the normal form as its own fixed point so flattening
            # the same conjunction never simplifies it a second time.
            self._norm[id(simplified)] = (simplified, simplified)
        self._norm[id(node)] = (node, simplified)
        return simplified

    def _canonical_key(self, node: BV) -> str:
        """Render a normal-form node once; reuse the string by identity."""
        entry = self._canon.get(id(node))
        if entry is None:
            entry = (node, render(node))
            self._canon[id(node)] = entry
        return entry[1]

    def _cached_solve(
        self, constraints: List[BV]
    ) -> Tuple[CheckResult, Optional[Dict[str, int]]]:
        if not self.cache_enabled:
            return self._solve(constraints)
        deduped: List[BV] = []
        keys: set[str] = set()
        for constraint in constraints:
            normal = self._normalise(constraint)
            key = self._canonical_key(normal)
            if key in keys:
                self._count("dedup_dropped")
                continue
            keys.add(key)
            deduped.append(normal)
        keyset = frozenset(keys)
        cached = self._verdicts.get(keyset)
        if cached is not None:
            self._count("cache_hits")
            result, model = cached
            return result, dict(model) if model is not None else None
        self._count("cache_misses")
        result, model = self._solve(deduped)
        self._verdicts[keyset] = (result, dict(model) if model is not None else None)
        return result, model

    # ------------------------------------------------------------------ #
    # Core solving pipeline
    # ------------------------------------------------------------------ #
    def _solve(self, constraints: List[BV]) -> Tuple[CheckResult, Optional[Dict[str, int]]]:
        # The top-level flatten reuses cached normal forms (public callers
        # re-check shared path-condition nodes constantly); the flattens on
        # freshly substituted nodes inside propagation/search do not, so the
        # identity cache only ever holds long-lived constraint nodes.
        flat = self._flatten(constraints, use_cache=True)
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

    def _flatten(
        self, constraints: Sequence[BV], *, use_cache: bool = False
    ) -> Optional[List[BV]]:
        """Simplify, flatten conjunctions, drop tautologies; None on contradiction."""
        flat: List[BV] = []
        queue = list(constraints)
        while queue:
            node = queue.pop()
            constraint = self._normalise(node) if use_cache else simplify(node)
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
        """Repeatedly apply ``sym == const`` facts; None on contradiction."""
        changed = True
        current = constraints
        while changed:
            changed = False
            units: Dict[str, int] = {}
            for constraint in current:
                if isinstance(constraint, Cmp) and constraint.op == "eq":
                    sym, value = self._as_sym_const(constraint)
                    if sym is not None and sym.name not in units:
                        units[sym.name] = value
            new_units = {name: value for name, value in units.items() if name not in assignment}
            if not new_units:
                break
            assignment.update(new_units)
            substituted = [substitute(constraint, new_units) for constraint in current]
            current = self._flatten(substituted)
            if current is None:
                return None
            changed = True
        return current

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
        """Derive per-symbol intervals from comparisons against constants."""
        intervals = {name: _Interval(0, E.mask(width)) for name, width in symbols.items()}
        for constraint in constraints:
            if isinstance(constraint, Cmp):
                self._narrow(intervals, constraint)
        for interval in intervals.values():
            if interval.is_empty():
                return None
        return intervals

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
            if len(candidates) >= self.max_candidates_per_symbol:
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
        budget = [self.max_search_nodes]

        def propagate(
            remaining: List[BV], partial: Dict[str, int]
        ) -> Optional[List[BV]]:
            """Apply exposed sym == const units; None on contradiction."""
            while True:
                units: Dict[str, int] = {}
                for constraint in remaining:
                    if isinstance(constraint, Cmp) and constraint.op == "eq":
                        sym, value = self._as_sym_const(constraint)
                        if sym is not None and sym.name not in partial and sym.name not in units:
                            units[sym.name] = value
                if not units:
                    return remaining
                partial.update(units)
                flat = self._flatten([substitute(constraint, units) for constraint in remaining])
                if flat is None:
                    return None
                remaining = flat

        def recurse(remaining: List[BV], partial: Dict[str, int]) -> Optional[Dict[str, int]]:
            if budget[0] <= 0:
                return None
            partial = dict(partial)
            propagated = propagate(remaining, partial)
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
                self.stats.search_nodes += 1
                if budget[0] <= 0:
                    return None
                substituted = [substitute(constraint, {name: value}) for constraint in remaining]
                flat = self._flatten(substituted)
                if flat is None:
                    continue
                next_partial = dict(partial)
                next_partial[name] = value
                found = recurse(flat, next_partial)
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
        for _ in range(self.random_tries):
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
