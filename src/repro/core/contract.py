"""The performance-contract construct (§2.2 of the paper).

A :class:`PerformanceContract` maps input classes to per-metric
:class:`~repro.core.perfexpr.PerfExpr` expressions over PCVs.  Each
:class:`ContractEntry` optionally keeps the symbolic paths it was merged
from, which is what lets a concrete execution be classified (find the entry
whose path condition the execution satisfies) and cross-checked against the
contract's prediction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.input_class import InputClass
from repro.core.pcv import PCVRegistry
from repro.core.perfexpr import Number, PerfExpr
from repro.sym.paths import Path

__all__ = [
    "ContractEntry",
    "Metric",
    "PerformanceContract",
    "effective_bounds",
    "upper_envelope",
]


class Metric(enum.Enum):
    """Performance metrics a contract bounds.

    The paper's BOLT emits contracts for the two metrics binary
    instrumentation can count exactly: dynamic instructions and memory
    accesses (loads + stores).  ``CYCLES`` is never emitted by BOLT
    directly: a :mod:`repro.hw` cycle model derives it from the other two
    (via :meth:`~repro.hw.CycleModel.derive`), mirroring how the paper maps
    counted costs to hardware-level predictions for its x86 testbed (§5).
    """

    INSTRUCTIONS = "instructions"
    MEMORY_ACCESSES = "memory_accesses"
    CYCLES = "cycles"

    def __str__(self) -> str:
        return self.value


def upper_envelope(exprs: Iterable[PerfExpr]) -> PerfExpr:
    """Merge expressions by taking the monomial-wise maximum coefficient.

    For non-negative PCV values and non-negative coefficients (the only
    kind BOLT produces) the result upper-bounds every input expression,
    which is how per-path costs are merged into one per-class entry.
    """
    merged: Dict[Tuple[str, ...], Fraction] = {}
    for expr in exprs:
        for monomial, coeff in expr.terms.items():
            if coeff < 0:
                raise ValueError(
                    f"upper_envelope requires non-negative coefficients; "
                    f"term {monomial} has {coeff}"
                )
            current = merged.get(monomial)
            if current is None or coeff > current:
                merged[monomial] = coeff
    return PerfExpr(merged)


@dataclass(frozen=True)
class ContractEntry:
    """One row of a performance contract.

    Attributes:
        input_class: the class of inputs this entry covers.
        exprs: per-metric performance expression over PCVs.
        paths: the symbolic paths merged into this entry (possibly empty,
            e.g. for hand-written or composed contracts).
    """

    input_class: InputClass
    exprs: Mapping[Metric, PerfExpr] = field(default_factory=dict)
    paths: Tuple[Path, ...] = ()

    def expr(self, metric: Metric) -> PerfExpr:
        """Return the expression for ``metric`` (zero if absent)."""
        return self.exprs.get(metric, PerfExpr.zero())

    def evaluate(self, metric: Metric, bindings: Mapping[str, Number]) -> int:
        """Evaluate the entry at concrete PCV bindings (ceil to int)."""
        return self.expr(metric).evaluate_int(bindings)

    def upper_bound(self, metric: Metric, bounds: Mapping[str, Number]) -> Fraction:
        """Evaluate the entry at PCV upper bounds."""
        return self.expr(metric).upper_bound(bounds)

    def covers(self, env: Mapping[str, int]) -> bool:
        """Return True when the concrete assignment falls in this entry.

        Per-path conditions take precedence (they are exact); entries
        without paths fall back to the input-class predicate.
        """
        if self.paths:
            return any(path.covers(env) for path in self.paths)
        return self.input_class.matches(env)

    def matching_path(self, env: Mapping[str, int]) -> Optional[Path]:
        """Return the merged path the concrete assignment follows, if any."""
        for path in self.paths:
            if path.covers(env):
                return path
        return None

    def variables(self) -> set[str]:
        """Return every PCV name used by any metric expression."""
        names: set[str] = set()
        for expr in self.exprs.values():
            names.update(expr.variables())
        return names


class PerformanceContract:
    """A performance contract: input classes mapped to PCV expressions."""

    def __init__(
        self,
        nf_name: str,
        *,
        registry: Optional[PCVRegistry] = None,
        entries: Iterable[ContractEntry] = (),
    ) -> None:
        self.nf_name = nf_name
        self.registry = registry or PCVRegistry()
        self.entries: List[ContractEntry] = list(entries)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_entry(self, entry: ContractEntry) -> ContractEntry:
        """Append an entry; entry names must be unique."""
        if any(e.input_class.name == entry.input_class.name for e in self.entries):
            raise ValueError(f"duplicate contract entry for class {entry.input_class.name!r}")
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------------ #
    # Lookup and classification
    # ------------------------------------------------------------------ #
    def entry_for(self, class_name: str) -> ContractEntry:
        """Return the entry for the named input class."""
        for entry in self.entries:
            if entry.input_class.name == class_name:
                return entry
        raise KeyError(f"no contract entry for class {class_name!r}")

    def class_names(self) -> List[str]:
        """Return the input class names in entry order."""
        return [entry.input_class.name for entry in self.entries]

    def classify(self, env: Mapping[str, int]) -> Optional[ContractEntry]:
        """Return the entry covering a concrete input assignment, if any."""
        for entry in self.entries:
            if entry.covers(env):
                return entry
        return None

    # ------------------------------------------------------------------ #
    # Bounding
    # ------------------------------------------------------------------ #
    def upper_bound(
        self, metric: Metric, bounds: Optional[Mapping[str, Number]] = None
    ) -> Fraction:
        """Worst case over all entries at PCV upper bounds.

        Args:
            metric: which metric to bound.
            bounds: per-PCV maxima; defaults to the bounds declared in the
                contract's PCV registry.

        Raises:
            KeyError: a PCV used by the contract has no bound.
        """
        if bounds is None:
            bounds = self.registry.default_bounds()
        worst = Fraction(0)
        for entry in self.entries:
            worst = max(worst, entry.upper_bound(metric, bounds))
        return worst

    def variables(self) -> set[str]:
        """Return every PCV name used anywhere in the contract."""
        names: set[str] = set()
        for entry in self.entries:
            names.update(entry.variables())
        return names

    # ------------------------------------------------------------------ #
    # Rendering and container protocol
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """Render the contract as a human-readable table."""
        from repro.core.report import format_contract

        return format_contract(self)

    def __iter__(self) -> Iterator[ContractEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PerformanceContract {self.nf_name!r} "
            f"classes={self.class_names()!r}>"
        )


def effective_bounds(
    *contracts: PerformanceContract, bounds: Optional[Mapping[str, Number]] = None
) -> Dict[str, Number]:
    """PCV maxima for judging ``contracts``' worst cases.

    1 for every variable the contracts use (so an unbounded term counts by
    its coefficient), then each registry's declared bounds in order, then
    the caller's ``bounds``.
    """
    effective: Dict[str, Number] = {
        name: 1 for contract in contracts for name in contract.variables()
    }
    for contract in contracts:
        effective.update(contract.registry.default_bounds())
    if bounds:
        effective.update(bounds)
    return effective
