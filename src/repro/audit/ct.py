"""Constant-time audit: prove or refute per-class cycle-indistinguishability.

The threat model is the classic remote timing side channel (Pacer's
concern, reframed as a contract property): an observer who cannot read an
NF's state can still *time* its packets.  If two input classes — whose
distinction encodes a secret, e.g. "this external port is NATed" vs "it
is not" — have different cycle costs, timing leaks the secret.

Contracts make the question decidable.  Two classes are constant-time
**iff their instruction polynomials are identical and their memory
polynomials are identical** — equality of exact rational coefficients is
a proof over *every* PCV valuation, not a sample.  A hardware model
prices the two counts into one cycle polynomial
(:meth:`repro.hw.CycleModel.cycles_expr`), so equal counts give equal
cycles under every model, and one comparison decides the pair for all of
them.  (The converse holds for the CLI's models: the conservative and
simulated predictions both price every access at DRAM, at CPI 1 and ½, so
their cycle polynomials both match only when the counts do.)  A
difference is refutation: the audit reports the offending class pair
and, per hardware model, the symbolic cycle delta, its maximum at the PCV
bounds, and a concrete witness valuation.  A model whose prices cancel a
count difference reports a zero delta; the pair is still a leak, since
another machine's prices need not cancel.

Each NF declares its secret-dependent class sets in its descriptor
(``NFSpec.secret_sets``, see :mod:`repro.nf`), each together with an
**expectation**: ``"leak"`` for channels the NF knowingly exposes (the
VigNAT-style NAT *is* a port scan oracle — its miss path walks two flow
tables the hit path never touches), ``"constant_time"`` for pairs the
implementation claims are indistinguishable (the bridge charges its
``hit`` and ``hairpin`` classes identically, so the forwarding decision
is timing-invisible).
The CLI's ``ct-audit`` exits non-zero when the *computed* verdict
contradicts the *declared* expectation — a silently appearing leak (or a
silently vanished one) fails CI, while known leaks stay documented
rather than red.  ``--strict`` additionally fails on any leak at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.contract import COUNT_METRICS, PerformanceContract, effective_bounds
from repro.core.distiller import resolve_pcv
from repro.core.perfexpr import Number, PerfExpr

__all__ = [
    "AuditFinding",
    "CycleDelta",
    "PairVerdict",
    "SecretClassSet",
    "audit_contract",
]

#: Expectation values a secret class set may declare.
LEAK = "leak"
CONSTANT_TIME = "constant_time"


@dataclass(frozen=True)
class SecretClassSet:
    """A set of input classes whose distinction encodes a secret.

    Attributes:
        name: short label for audit reports ("external port scan").
        classes: the input-class names to compare pairwise; every class
            must exist in the audited contract.
        secret: what an observer learns by telling the classes apart.
        expectation: :data:`LEAK` when the channel is known and accepted,
            :data:`CONSTANT_TIME` when the NF claims indistinguishability.
    """

    name: str
    classes: Tuple[str, ...]
    secret: str
    expectation: str

    def __post_init__(self) -> None:
        if len(self.classes) < 2:
            raise ValueError(f"secret class set {self.name!r} needs at least two classes")
        if self.expectation not in (LEAK, CONSTANT_TIME):
            raise ValueError(
                f"secret class set {self.name!r}: expectation must be "
                f"{LEAK!r} or {CONSTANT_TIME!r}, got {self.expectation!r}"
            )


@dataclass(frozen=True)
class CycleDelta:
    """One hardware model's pricing of a leaking pair, for the report."""

    model: str
    #: ``cycles(class_a) − cycles(class_b)`` symbolically.
    delta: PerfExpr
    #: Largest |delta| found over the witness corners.
    max_delta: Fraction
    #: PCV valuation attaining ``max_delta``.
    witness: Mapping[str, int]


@dataclass(frozen=True)
class PairVerdict:
    """Indistinguishability verdict for one class pair."""

    class_a: str
    class_b: str
    #: True iff the two classes' instruction and memory polynomials are identical.
    indistinguishable: bool
    #: Each model's cycle delta of a leak (empty on proof).
    cycle_deltas: Tuple[CycleDelta, ...] = ()

    def render(self, registry=None) -> List[str]:
        pair = f"{self.class_a} vs {self.class_b}"
        if self.indistinguishable:
            return [f"{pair}: constant time (instruction and memory polynomials identical)"]
        lines = []
        for cycle in self.cycle_deltas:
            terms = sorted(cycle.delta.variables())
            human = "; ".join(resolve_pcv(name, registry) for name in terms)
            line = (
                f"{pair} @{cycle.model}: LEAK — delta {cycle.delta.render()} cycles, "
                f"up to {cycle.max_delta} at witness {dict(cycle.witness)}"
            )
            if human:
                line += f"  [{human}]"
            lines.append(line)
        return lines


@dataclass(frozen=True)
class AuditFinding:
    """The audit result for one secret class set of one NF."""

    nf_name: str
    secret_set: SecretClassSet
    verdicts: Tuple[PairVerdict, ...]

    @property
    def leaks(self) -> bool:
        """True when any pair's instruction or memory polynomials differ."""
        return any(not verdict.indistinguishable for verdict in self.verdicts)

    @property
    def verdict(self) -> str:
        return LEAK if self.leaks else CONSTANT_TIME

    @property
    def matches_expectation(self) -> bool:
        return self.verdict == self.secret_set.expectation

    def render(self, registry=None) -> List[str]:
        status = self.verdict
        marker = "" if self.matches_expectation else "  ** UNEXPECTED **"
        lines = [
            f"{self.nf_name} / {self.secret_set.name} "
            f"(secret: {self.secret_set.secret}): {status} "
            f"[declared: {self.secret_set.expectation}]{marker}"
        ]
        lines.extend(f"  {line}" for verdict in self.verdicts for line in verdict.render(registry))
        return lines


def _witness(
    delta: PerfExpr,
    contract: PerformanceContract,
    maxima: Mapping[str, Number],
) -> Tuple[Fraction, Dict[str, int]]:
    """Search corner valuations for the largest |delta|.

    Corners: every PCV at its minimum, every PCV at its maximum, and each
    PCV one-hot at its maximum.  A nonzero polynomial difference always
    shows at one of these for the affine-in-each-variable expressions
    contracts produce (every monomial is a product of distinct PCVs with
    a nonzero coefficient, and the all-minima corner pins the constant
    term); the verdict is the count comparison, and this search only
    reports.
    """
    variables = sorted(delta.variables())
    minima = {
        name: (pcv.min_value if (pcv := contract.registry.maybe_get(name)) else 0)
        for name in variables
    }
    corners: List[Dict[str, int]] = [dict(minima)]
    corners.append({name: int(maxima.get(name, 1)) for name in variables})
    for name in variables:
        corner = dict(minima)
        corner[name] = int(maxima.get(name, 1))
        corners.append(corner)
    best_value = Fraction(0)
    best_corner = corners[0]
    for corner in corners:
        value = delta.evaluate(corner)
        if abs(value) > abs(best_value):
            best_value, best_corner = value, corner
    return best_value, best_corner


def audit_contract(
    contract: PerformanceContract,
    secret_sets: Sequence[SecretClassSet],
    *,
    models: Sequence[object],
    structures: Sequence[object] = (),
) -> List[AuditFinding]:
    """Audit one contract against its declared secret class sets.

    Each pair is decided once, on its instruction and memory polynomials;
    only a leak is priced, under every model, for the report.

    Args:
        contract: the NF's generated contract (counts, not cycles — a
            leak's cycle deltas are derived here per model).
        secret_sets: the class sets to compare (an NF declares its own as
            ``NFSpec.secret_sets``).
        models: :class:`repro.hw.CycleModel` instances pricing each leak
            (typed loosely to keep this layer import-free of
            :mod:`repro.hw`).
        structures: structure instances behind the contract's PCVs, for
            per-owner memory pricing.

    Raises:
        KeyError: a secret set names a class the contract does not have.
    """
    maxima = effective_bounds(contract)
    findings: List[AuditFinding] = []
    for secret_set in secret_sets:
        entries = {name: contract.entry_for(name) for name in secret_set.classes}
        verdicts: List[PairVerdict] = []
        for index, class_a in enumerate(secret_set.classes):
            for class_b in secret_set.classes[index + 1 :]:
                a, b = entries[class_a], entries[class_b]
                if all(a.expr(metric) == b.expr(metric) for metric in COUNT_METRICS):
                    verdicts.append(PairVerdict(class_a, class_b, True))
                    continue
                deltas: List[CycleDelta] = []
                for model in models:
                    price = model.cycles_expr  # type: ignore[attr-defined]
                    delta = price(a, structures=structures) - price(b, structures=structures)
                    value, corner = _witness(delta, contract, maxima)
                    deltas.append(CycleDelta(model.name, delta, abs(value), corner))  # type: ignore[attr-defined]
                verdicts.append(PairVerdict(class_a, class_b, False, tuple(deltas)))
        findings.append(AuditFinding(contract.nf_name, secret_set, tuple(verdicts)))
    return findings
