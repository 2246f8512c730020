"""Contract serialization and contract-vs-contract diffing.

Contracts are generated artifacts; this module is what turns them into
*gates*.  Two halves:

* **Serialization** — :func:`contract_to_json` / :func:`contract_from_json`
  write a :class:`~repro.core.contract.PerformanceContract` to a stable
  JSON schema (:data:`SCHEMA`) and read it back **exactly**: every
  coefficient round-trips as a :class:`~fractions.Fraction` string
  (``"82"``, ``"9/2"``), never a float, so ``deserialize(serialize(c))``
  compares term-for-term equal to ``c``.  What is deliberately *not*
  serialized: entry path conditions and input-class predicates.  A golden
  snapshot exists to be *diffed by class name*, not to classify packets —
  deserialized contracts carry entries with bare
  :class:`~repro.core.input_class.InputClass` names and empty paths.

* **Diffing** — :func:`diff_contracts` aligns two contracts by input-class
  name and reports drift three ways: classes added or removed, per-class
  per-metric *term-level* drift (a monomial whose coefficient changed,
  missing coefficients counting as zero), and the derived-*cycle*
  consequence of the count drift under each supplied hardware model
  (evaluated at the PCV upper bounds, so "the NAT miss path got 3 memory
  accesses worse" is also reported as "+306 conservative cycles").
  Rendering resolves drifted PCVs into the human-level terms of
  :func:`repro.core.distiller.resolve_pcv` (occupancy, collision-driven
  traversals, fill iterations), the paper's §5.3 developer story applied
  to regressions.

The CLI's ``contract-diff`` subcommand (and the CI ``contract-gate`` job)
wrap this module: regenerate the current contracts, diff against the
checked-in goldens under ``tests/golden/``, exit non-zero on any drift.
An *intentional* bound change is acknowledged by regenerating the goldens
(``contract-diff --update``) and committing them with the change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.contract import ContractEntry, Metric, PerformanceContract, effective_bounds
from repro.core.distiller import resolve_pcv
from repro.core.input_class import InputClass
from repro.core.pcv import PCV, PCVRegistry
from repro.core.perfexpr import Monomial, PerfExpr

__all__ = [
    "SCHEMA",
    "ClassDrift",
    "ContractDiff",
    "TermDrift",
    "contract_from_json",
    "contract_to_json",
    "diff_contracts",
    "dump_contract",
    "load_contract",
]

#: Schema identifier stamped into every serialized contract, and the only
#: one :func:`contract_from_json` accepts.
SCHEMA = "repro-contract/1"


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #
def _expr_to_json(expr: PerfExpr) -> List[List[object]]:
    """Serialize one expression as ``[[monomial names...], "coeff"], ...``.

    Terms are sorted (degree, then names) for byte-stable output; the
    coefficient is ``str(Fraction)`` so rationals survive exactly.
    """
    return [
        [list(monomial), str(coeff)]
        for monomial, coeff in sorted(
            expr.terms.items(), key=lambda item: (len(item[0]), item[0])
        )
    ]


def _expr_from_json(payload: Sequence[Sequence[object]]) -> PerfExpr:
    terms: Dict[Monomial, Fraction] = {}
    for monomial, coeff in payload:
        terms[tuple(monomial)] = Fraction(str(coeff))  # type: ignore[arg-type]
    return PerfExpr(terms)


def contract_to_json(contract: PerformanceContract) -> Dict[str, object]:
    """Serialize a contract (entries, per-metric expressions, PCV registry).

    Entry order is preserved; PCVs are sorted by name.  Path conditions
    and class predicates are dropped (see the module docstring).
    """
    pcvs = [
        {
            "name": pcv.name,
            "description": pcv.description,
            "structure": pcv.structure,
            "min_value": pcv.min_value,
            "max_value": pcv.max_value,
            "unit": pcv.unit,
        }
        for pcv in sorted(contract.registry, key=lambda pcv: pcv.name)
    ]
    entries = [
        {
            "class": entry.input_class.name,
            "description": entry.input_class.description,
            "exprs": {
                str(metric): _expr_to_json(expr)
                for metric, expr in sorted(entry.exprs.items(), key=lambda item: item[0].value)
            },
        }
        for entry in contract.entries
    ]
    return {
        "schema": SCHEMA,
        "nf_name": contract.nf_name,
        "pcvs": pcvs,
        "entries": entries,
    }


def contract_from_json(payload: Mapping[str, object]) -> PerformanceContract:
    """Reconstruct a contract from :func:`contract_to_json` output.

    Raises:
        ValueError: the payload does not carry the expected schema tag.
    """
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported contract schema {payload.get('schema')!r} (expected {SCHEMA!r})"
        )
    pcvs = []
    for item in payload["pcvs"]:  # type: ignore[union-attr]
        raw_max = item["max_value"]
        pcvs.append(
            PCV(
                name=str(item["name"]),
                description=str(item["description"]),
                structure=item["structure"],  # type: ignore[arg-type]
                min_value=int(item["min_value"]),  # type: ignore[arg-type]
                max_value=None if raw_max is None else int(raw_max),  # type: ignore[arg-type]
                unit=str(item["unit"]),
            )
        )
    registry = PCVRegistry(pcvs)
    contract = PerformanceContract(str(payload["nf_name"]), registry=registry)
    for item in payload["entries"]:  # type: ignore[union-attr]
        exprs = {
            Metric(metric_name): _expr_from_json(terms)
            for metric_name, terms in item["exprs"].items()
        }
        contract.add_entry(
            ContractEntry(
                input_class=InputClass(str(item["class"]), str(item["description"])),
                exprs=exprs,
            )
        )
    return contract


def dump_contract(contract: PerformanceContract, path: str) -> None:
    """Write a contract to ``path`` as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(contract_to_json(contract), handle, indent=2)
        handle.write("\n")


def load_contract(path: str) -> PerformanceContract:
    """Read a contract previously written by :func:`dump_contract`."""
    with open(path, "r", encoding="utf-8") as handle:
        return contract_from_json(json.load(handle))


# --------------------------------------------------------------------------- #
# Diffing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TermDrift:
    """One monomial whose coefficient differs between golden and current."""

    metric: Metric
    monomial: Tuple[str, ...]
    golden: Fraction
    current: Fraction

    @property
    def worsened(self) -> bool:
        """True when the current bound grew (a silent regression)."""
        return self.current > self.golden

    def render(self, registry: Optional[PCVRegistry] = None) -> str:
        names = " × ".join(self.monomial) if self.monomial else "constant term"
        direction = "WORSENED" if self.worsened else "improved"
        line = (
            f"{self.metric}: {names} {self.golden} -> {self.current} ({direction})"
        )
        human = [resolve_pcv(name, registry) for name in self.monomial]
        if any(text != name for text, name in zip(human, self.monomial)):
            line += f"  [{'; '.join(human)}]"
        return line


@dataclass(frozen=True)
class ClassDrift:
    """All the drift of one input class shared by both contracts."""

    class_name: str
    terms: Tuple[TermDrift, ...]
    #: Per hardware model: derived-cycle bound delta (current − golden) at
    #: the PCV upper bounds — the hardware-level consequence of ``terms``.
    cycle_deltas: Mapping[str, Fraction] = field(default_factory=dict)

    @property
    def worsened(self) -> bool:
        return any(term.worsened for term in self.terms)

    def render(self, registry: Optional[PCVRegistry] = None) -> List[str]:
        lines = [f"class {self.class_name!r}:"]
        lines.extend(f"  {term.render(registry)}" for term in self.terms)
        for model, delta in sorted(self.cycle_deltas.items()):
            sign = "+" if delta > 0 else ""
            lines.append(f"  cycles@{model}: {sign}{delta} at PCV bounds")
        return lines


@dataclass(frozen=True)
class ContractDiff:
    """The full alignment of two contracts by input-class name."""

    golden_name: str
    current_name: str
    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    drifted: Tuple[ClassDrift, ...]
    registry: Optional[PCVRegistry] = None

    @property
    def ok(self) -> bool:
        """True when the contracts are term-for-term identical by class."""
        return not (self.added or self.removed or self.drifted)

    @property
    def worsened_classes(self) -> List[str]:
        """Classes whose bound grew (plus any added/removed class)."""
        worse = [drift.class_name for drift in self.drifted if drift.worsened]
        return sorted(set(worse) | set(self.added) | set(self.removed))

    def render(self) -> str:
        if self.ok:
            return f"{self.current_name}: no drift against {self.golden_name}"
        lines = [f"{self.current_name} drifted against golden {self.golden_name}:"]
        if self.added:
            lines.append(f"classes added (absent from golden): {sorted(self.added)}")
        if self.removed:
            lines.append(f"classes removed (golden still has them): {sorted(self.removed)}")
        for drift in self.drifted:
            lines.extend(drift.render(self.registry))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def diff_contracts(
    golden: PerformanceContract,
    current: PerformanceContract,
    *,
    models: Sequence[object] = (),
    structures: Sequence[object] = (),
) -> ContractDiff:
    """Align ``current`` against ``golden`` by class name and report drift.

    Args:
        golden: the checked-in snapshot (usually :func:`load_contract`).
        current: the freshly generated contract.
        models: :class:`repro.hw.CycleModel` instances (typed loosely to
            keep ``repro.core`` import-free of :mod:`repro.hw`); for each,
            drifted classes also report the derived-cycle bound delta.
        structures: the structure instances behind the contract's PCVs —
            what the models need to price memory monomials per owner.

    Any coefficient difference is drift — improvements too: a golden
    snapshot is an acknowledgement artifact, and a *better* bound still
    needs acknowledging (regenerate the goldens) or CI would pass on a
    tree whose goldens no longer describe it.
    """
    golden_classes = set(golden.class_names())
    current_classes = set(current.class_names())
    added = tuple(sorted(current_classes - golden_classes))
    removed = tuple(sorted(golden_classes - current_classes))

    effective = effective_bounds(golden, current)
    drifted: List[ClassDrift] = []
    for class_name in current.class_names():
        if class_name not in golden_classes:
            continue
        golden_entry = golden.entry_for(class_name)
        current_entry = current.entry_for(class_name)
        terms: List[TermDrift] = []
        for metric in Metric:
            golden_terms = golden_entry.expr(metric).terms
            current_terms = current_entry.expr(metric).terms
            for monomial in sorted(
                set(golden_terms) | set(current_terms), key=lambda m: (len(m), m)
            ):
                before = golden_terms.get(monomial, Fraction(0))
                after = current_terms.get(monomial, Fraction(0))
                if before != after:
                    terms.append(TermDrift(metric, monomial, before, after))
        if not terms:
            continue
        cycle_deltas: Dict[str, Fraction] = {}
        for model in models:
            derive = model.cycles_expr  # type: ignore[attr-defined]
            golden_cycles = derive(golden_entry, structures=structures)
            current_cycles = derive(current_entry, structures=structures)
            delta = current_cycles.upper_bound(effective) - golden_cycles.upper_bound(effective)
            cycle_deltas[model.name] = delta  # type: ignore[attr-defined]
        drifted.append(ClassDrift(class_name, tuple(terms), cycle_deltas))

    return ContractDiff(
        golden_name=golden.nf_name,
        current_name=current.nf_name,
        added=added,
        removed=removed,
        drifted=tuple(drifted),
        registry=current.registry,
    )
