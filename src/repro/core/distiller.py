"""The BOLT Distiller (§4 of the paper).

Raw contracts are exact but noisy: dozens of terms, many contributing a
negligible share of the total.  The Distiller turns a contract into the
human-readable form the paper's tables use by

* dropping terms whose worst-case contribution falls below a relative
  threshold of the entry's worst-case total,
* naming the dominant PCV of each entry — the paper's §5.3 developer
  use-case, where a dominant ``e`` term in VigNAT's contract pointed
  straight at the expiry-batching bug, and
* resolving PCVs into **human-level terms** (:func:`resolve_pcv` /
  :meth:`Distiller.explain`): ``fwd.t`` is rendered not as an opaque
  symbol but as "hash-chain links traversed (collision-driven)", the
  way the paper's tables talk about occupancy, collision probability
  and fill iterations rather than raw variable names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.contract import Metric, PerformanceContract, effective_bounds
from repro.core.pcv import PCVRegistry, split_name
from repro.core.perfexpr import Number, PerfExpr

__all__ = [
    "HUMAN_TERMS",
    "DistilledEntry",
    "Distiller",
    "DistillerReport",
    "explain_term",
    "resolve_pcv",
]

#: Human-level reading of the paper's conventional PCV symbols, used when
#: a registry carries no (or an empty) description for a PCV.  Keyed by
#: *local* symbol: ``fwd.t`` and ``rev.t`` both resolve through ``t``.
HUMAN_TERMS: Dict[str, str] = {
    "t": "hash-chain links traversed (collision-driven)",
    "c": "hash collisions encountered",
    "o": "hash-table occupancy (stored entries)",
    "e": "entries expired by one sweep",
    "w": "time-wheel slots advanced by one sweep",
    "d": "trie nodes visited (matched-prefix depth)",
    "f": "Maglev fill iterations of one table repopulation",
    "l": "matched IP prefix length",
    "n": "IP options carried by the packet",
    "r": "hash-ring bucket traversals",
}


def resolve_pcv(name: str, registry: Optional[PCVRegistry] = None) -> str:
    """Resolve one PCV name into its human-level meaning.

    Resolution order: the registry's description for the exact name, then
    the conventional :data:`HUMAN_TERMS` meaning of its local symbol, then
    the name itself.  Instance-qualified names keep their instance as a
    prefix so ``fwd.t`` and ``rev.t`` stay distinguishable in prose.
    """
    instance, symbol = split_name(name)
    description = ""
    if registry is not None:
        pcv = registry.maybe_get(name)
        if pcv is not None:
            description = pcv.description
    if not description:
        description = HUMAN_TERMS.get(symbol, "")
    if not description:
        return name
    if instance is None:
        return description
    return f"{instance}: {description}"


def explain_term(
    monomial: Tuple[str, ...],
    coeff: Fraction,
    registry: Optional[PCVRegistry] = None,
) -> str:
    """Render one contract term in human-level language.

    ``((), 882)`` becomes ``"882 (constant)"``; ``(("fwd.t",), 12)``
    becomes ``"12 × fwd.t — fwd: chain links inspected …"``.
    """
    coeff_text = str(coeff.numerator) if coeff.denominator == 1 else f"{float(coeff):.2f}"
    if not monomial:
        return f"{coeff_text} (constant)"
    names = " × ".join(monomial)
    meanings = "; ".join(resolve_pcv(name, registry) for name in dict.fromkeys(monomial))
    return f"{coeff_text} × {names} — {meanings}"


@dataclass(frozen=True)
class DistilledEntry:
    """The distilled form of one contract entry."""

    class_name: str
    original: PerfExpr
    simplified: PerfExpr
    dropped_share: Fraction
    dominant_pcv: Optional[str]

    def render(self) -> str:
        parts = [f"{self.class_name}: {self.simplified.render()}"]
        if self.dropped_share > 0:
            parts.append(f"(+ <{float(self.dropped_share) * 100:.1f}% dropped)")
        if self.dominant_pcv is not None:
            parts.append(f"[dominant: {self.dominant_pcv}]")
        return " ".join(parts)


@dataclass(frozen=True)
class DistillerReport:
    """Distilled view of one contract for one metric."""

    nf_name: str
    metric: Metric
    entries: Tuple[DistilledEntry, ...]

    def entry_for(self, class_name: str) -> DistilledEntry:
        for entry in self.entries:
            if entry.class_name == class_name:
                return entry
        raise KeyError(f"no distilled entry for class {class_name!r}")

    def render(self) -> str:
        lines = [f"distilled contract for {self.nf_name} ({self.metric})"]
        lines.extend(f"  {entry.render()}" for entry in self.entries)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class Distiller:
    """Distils a performance contract into its human-readable form."""

    def __init__(self, contract: PerformanceContract) -> None:
        self.contract = contract

    def distill(
        self,
        metric: Metric = Metric.INSTRUCTIONS,
        *,
        relative_threshold: float = 0.05,
        bounds: Optional[Mapping[str, Number]] = None,
    ) -> DistillerReport:
        """Produce the distilled report for one metric.

        Args:
            metric: which metric column to distil.
            relative_threshold: a term is kept iff its worst-case
                contribution is at least this share of the entry's
                worst-case total.
            bounds: per-PCV maxima used to judge worst-case contributions;
                defaults to the registry bounds, with 1 for unbounded PCVs
                (so unbounded terms are judged by their coefficient).
        """
        if not 0 <= relative_threshold < 1:
            raise ValueError("relative_threshold must be in [0, 1)")
        effective = effective_bounds(self.contract, bounds=bounds)
        entries: List[DistilledEntry] = []
        for entry in self.contract.entries:
            expr = entry.expr(metric)
            simplified, dropped_share = self._simplify(expr, relative_threshold, effective)
            entries.append(
                DistilledEntry(
                    class_name=entry.input_class.name,
                    original=expr,
                    simplified=simplified,
                    dropped_share=dropped_share,
                    dominant_pcv=expr.dominant_pcv(),
                )
            )
        return DistillerReport(nf_name=self.contract.nf_name, metric=metric, entries=tuple(entries))

    def distill_cycles(
        self,
        model,
        *,
        structures=(),
        relative_threshold: float = 0.05,
        bounds: Optional[Mapping[str, Number]] = None,
    ) -> DistillerReport:
        """Distil the cycle expressions a hardware model derives (§5).

        ``model`` is a :class:`repro.hw.CycleModel` (typed loosely to keep
        ``repro.core`` import-free of the higher :mod:`repro.hw` layer):
        the contract is first run through ``model.derive`` and the
        resulting ``cycles`` column distilled like any counted metric.
        """
        derived = model.derive(self.contract, structures=structures)  # type: ignore[attr-defined]
        return Distiller(derived).distill(
            Metric.CYCLES, relative_threshold=relative_threshold, bounds=bounds
        )

    def explain(
        self,
        metric: Metric = Metric.INSTRUCTIONS,
        *,
        relative_threshold: float = 0.05,
        bounds: Optional[Mapping[str, Number]] = None,
    ) -> str:
        """Distil, then resolve every surviving term into human-level prose.

        The deepened §4 story: instead of the symbol soup of the raw
        polynomial, each kept term is rendered through
        :func:`explain_term` with its worst-case share of the entry's
        total, so a developer reads "84% of the worst case is chain
        links traversed (collision-driven) in ``fwd``" straight off the
        report.
        """
        report = self.distill(metric, relative_threshold=relative_threshold, bounds=bounds)
        effective = effective_bounds(self.contract, bounds=bounds)
        registry = self.contract.registry
        lines = [f"distilled terms for {self.contract.nf_name} ({metric}):"]
        for entry in report.entries:
            lines.append(f"  {entry.class_name}:")
            contributions = {
                monomial: PerfExpr({monomial: coeff}).upper_bound(effective)
                for monomial, coeff in entry.original.terms.items()
            }
            total = sum(contributions.values(), Fraction(0))
            for monomial, coeff in sorted(
                entry.simplified.terms.items(),
                key=lambda item: -contributions[item[0]],
            ):
                share = (
                    f" ({float(contributions[monomial] / total) * 100:.0f}% of worst case)"
                    if total > 0
                    else ""
                )
                lines.append(f"    {explain_term(monomial, coeff, registry)}{share}")
            if entry.dropped_share > 0:
                lines.append(f"    (+ <{float(entry.dropped_share) * 100:.1f}% dropped as noise)")
            if entry.dominant_pcv is not None:
                lines.append(
                    f"    dominant: {entry.dominant_pcv} — "
                    f"{resolve_pcv(entry.dominant_pcv, registry)}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _simplify(
        expr: PerfExpr,
        relative_threshold: float,
        bounds: Mapping[str, Number],
    ) -> Tuple[PerfExpr, Fraction]:
        terms = expr.terms
        if not terms:
            return expr, Fraction(0)
        contributions: Dict[Tuple[str, ...], Fraction] = {}
        for monomial, coeff in terms.items():
            contributions[monomial] = PerfExpr({monomial: coeff}).upper_bound(bounds)
        total = sum(contributions.values(), Fraction(0))
        if total <= 0:
            return expr, Fraction(0)
        threshold = total * Fraction(relative_threshold).limit_denominator(10**6)
        kept = {
            monomial: coeff
            for monomial, coeff in terms.items()
            if contributions[monomial] >= threshold
        }
        if not kept:  # keep at least the largest term
            largest = max(contributions, key=lambda m: contributions[m])
            kept = {largest: terms[largest]}
        dropped = sum((contributions[m] for m in terms if m not in kept), Fraction(0))
        return PerfExpr(kept), dropped / total
