"""Direct coverage for the Distiller (previously only exercised end-to-end)."""

from fractions import Fraction

import pytest

from repro.core import (
    ContractEntry,
    Distiller,
    InputClass,
    Metric,
    PerfExpr,
    PerformanceContract,
)
from repro.core.pcv import PCV, PCVRegistry
from repro.hw import ConservativeModel, HwSpec
from repro.nf.bridge import generate_bridge_contract


def _contract(exprs_by_class):
    registry = PCVRegistry(
        [
            PCV("t", "traversals", max_value=10),
            PCV("e", "expired entries", max_value=4),
        ]
    )
    contract = PerformanceContract("toy_nf", registry=registry)
    for name, expr in exprs_by_class.items():
        contract.add_entry(
            ContractEntry(input_class=InputClass(name), exprs={Metric.INSTRUCTIONS: expr})
        )
    return contract


def test_threshold_validation():
    contract = _contract({"all": PerfExpr.from_terms(t=1)})
    with pytest.raises(ValueError):
        Distiller(contract).distill(relative_threshold=1.0)
    with pytest.raises(ValueError):
        Distiller(contract).distill(relative_threshold=-0.1)


def test_small_terms_are_dropped():
    # Worst case: 1000·10 from t, 1 from the constant -> const is noise.
    contract = _contract({"all": PerfExpr.from_terms(t=1000, const=1)})
    report = Distiller(contract).distill(relative_threshold=0.05)
    entry = report.entry_for("all")
    assert entry.simplified == PerfExpr.from_terms(t=1000)
    assert entry.original == PerfExpr.from_terms(t=1000, const=1)
    assert 0 < entry.dropped_share < Fraction(1, 100)
    assert "% dropped" in entry.render()


def test_at_least_the_largest_term_survives():
    contract = _contract({"all": PerfExpr.from_terms(t=1, e=30)})
    # e's worst case (120) dominates t's (10); an extreme threshold keeps
    # only the single largest contribution.
    report = Distiller(contract).distill(relative_threshold=0.99)
    entry = report.entry_for("all")
    assert entry.simplified == PerfExpr.from_terms(e=30)
    assert entry.dropped_share == Fraction(10, 130)


def test_zero_expression_distils_to_itself():
    contract = _contract({"all": PerfExpr.zero()})
    entry = Distiller(contract).distill().entry_for("all")
    assert entry.simplified == PerfExpr.zero()
    assert entry.dropped_share == 0
    assert entry.dominant_pcv is None


def test_dominant_pcv_and_report_rendering():
    contract = _contract(
        {
            "fast": PerfExpr.from_terms(t=2, const=9),
            "slow": PerfExpr.from_terms(t=2, e=50, const=9),
        }
    )
    report = Distiller(contract).distill()
    assert report.entry_for("fast").dominant_pcv == "t"
    assert report.entry_for("slow").dominant_pcv == "e"
    text = report.render()
    assert "toy_nf" in text and "fast:" in text and "[dominant: e]" in text
    with pytest.raises(KeyError):
        report.entry_for("missing")


def test_explicit_bounds_override_registry_bounds():
    contract = _contract({"all": PerfExpr.from_terms(t=1, e=1)})
    # The registry's bounds are the ones judged: declare e's bound tiny
    # and the e term becomes droppable noise.
    contract.registry = PCVRegistry(
        [PCV("t", "traversals", max_value=100), PCV("e", "expired entries", max_value=1)]
    )
    report = Distiller(contract).distill(relative_threshold=0.2)
    assert report.entry_for("all").simplified == PerfExpr.from_terms(t=1)


def test_distill_cycles_through_a_hardware_model():
    contract = generate_bridge_contract(16, 50)
    model = ConservativeModel(HwSpec())
    report = Distiller(contract).distill_cycles(model)
    assert report.metric is Metric.CYCLES
    assert set(e.class_name for e in report.entries) == {"short", "miss", "hairpin", "hit"}
    # Cycle expressions dominate the instruction expressions they derive from.
    for entry in report.entries:
        source = contract.entry_for(entry.class_name).expr(Metric.INSTRUCTIONS)
        for monomial, coeff in source.terms.items():
            assert entry.original.terms[monomial] >= coeff


# --------------------------------------------------------------------------- #
# Human-level term resolution (the §4 deepening behind the diff reports)
# --------------------------------------------------------------------------- #
def test_resolve_pcv_prefers_registry_descriptions():
    from repro.core import resolve_pcv

    registry = PCVRegistry([PCV("fwd.t", "chain links inspected", structure="fwd")])
    assert resolve_pcv("fwd.t", registry) == "fwd: chain links inspected"


def test_resolve_pcv_falls_back_to_conventional_symbols():
    from repro.core import resolve_pcv

    # No registry: the local symbol's conventional meaning, instance-prefixed.
    assert resolve_pcv("rev.t") == "rev: hash-chain links traversed (collision-driven)"
    assert resolve_pcv("f") == "Maglev fill iterations of one table repopulation"
    # Unknown symbols resolve to themselves rather than inventing prose.
    assert resolve_pcv("zz") == "zz"


def test_explain_term_renders_constants_and_monomials():
    from repro.core import explain_term

    assert explain_term((), Fraction(882)) == "882 (constant)"
    line = explain_term(("fwd.t",), Fraction(12))
    assert line.startswith("12 × fwd.t — ")
    assert "hash-chain links traversed" in line
    assert explain_term(("t",), Fraction(9, 2)).startswith("4.50 × t")


def test_distiller_explain_reports_shares_and_dominants():
    contract = _contract(
        {"slow": PerfExpr.from_terms(t=2, e=50, const=9)}
    )
    text = Distiller(contract).explain(Metric.INSTRUCTIONS)
    assert "toy_nf" in text and "slow:" in text
    assert "% of worst case)" in text
    assert "dominant: e — expired entries" in text
    # Terms come out largest-share first: e (200) before t (20).
    assert text.index("50 × e") < text.index("2 × t")
