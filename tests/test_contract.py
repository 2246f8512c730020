"""Tests for contracts, PerfExpr/PCV helpers, composition and the Distiller."""

from fractions import Fraction

import pytest

from repro.core import (
    ContractEntry,
    Distiller,
    InputClass,
    Metric,
    PCV,
    PCVRegistry,
    PerfExpr,
    PerformanceContract,
    upper_envelope,
)


def test_perfexpr_arithmetic_and_render():
    e = 245 * PerfExpr.var("e") + 144 * PerfExpr.var("c") + 882
    assert e.coefficient("e") == 245
    assert e.constant_term() == 882
    assert e.evaluate({"e": 2, "c": 1}) == 245 * 2 + 144 + 882
    assert "245·e" in e.render()
    cross = PerfExpr.var("e") * PerfExpr.var("c")
    assert cross.coefficient("e", "c") == 1
    assert cross.degree() == 2


def test_perfexpr_substitute_and_upper_bound():
    e = PerfExpr.from_terms(e=3, t=2, **{"e*t": 1}, const=5)
    partial = e.substitute({"e": 4})
    assert partial == PerfExpr.from_terms(t=6, const=17)
    assert e.upper_bound({"e": 10, "t": 10}) == 30 + 20 + 100 + 5


def test_upper_envelope_is_monomial_wise_max():
    a = PerfExpr.from_terms(t=12, const=36)
    b = PerfExpr.from_terms(t=8, e=7, const=38)
    merged = upper_envelope([a, b])
    assert merged == PerfExpr.from_terms(t=12, e=7, const=38)
    for expr in (a, b):
        for bindings in ({"t": 0, "e": 0}, {"t": 5, "e": 3}):
            assert merged.evaluate(bindings) >= expr.evaluate(bindings)


def test_contract_entries_and_bounds():
    registry = PCVRegistry([PCV("t", "traversals", max_value=8)])
    contract = PerformanceContract("nf", registry=registry)
    contract.add_entry(
        ContractEntry(
            InputClass("fast"),
            {Metric.INSTRUCTIONS: PerfExpr.from_terms(const=10)},
        )
    )
    contract.add_entry(
        ContractEntry(
            InputClass("slow"),
            {Metric.INSTRUCTIONS: PerfExpr.from_terms(t=6, const=5)},
        )
    )
    assert contract.class_names() == ["fast", "slow"]
    assert contract.entry_for("slow").evaluate(Metric.INSTRUCTIONS, {"t": 2}) == 17
    # worst case at registry bounds: 6*8 + 5 = 53 > 10
    assert contract.upper_bound(Metric.INSTRUCTIONS) == 53
    with pytest.raises(ValueError):
        contract.add_entry(ContractEntry(InputClass("fast")))


def test_contract_render_mentions_classes_and_pcvs():
    registry = PCVRegistry([PCV("t", "bucket traversals")])
    contract = PerformanceContract("bridge", registry=registry)
    contract.add_entry(
        ContractEntry(
            InputClass("hit"),
            {Metric.INSTRUCTIONS: PerfExpr.from_terms(t=6, const=36)},
        )
    )
    text = contract.render()
    assert "bridge" in text and "hit" in text
    assert "6·t + 36" in text
    assert "bucket traversals" in text


def test_distiller_drops_negligible_terms_and_names_dominant():
    registry = PCVRegistry(
        [PCV("e", "expired", max_value=100), PCV("t", "traversals", max_value=100)]
    )
    contract = PerformanceContract("nf", registry=registry)
    contract.add_entry(
        ContractEntry(
            InputClass("all"),
            {
                Metric.INSTRUCTIONS: PerfExpr.from_terms(e=500, t=1, const=3),
            },
        )
    )
    report = Distiller(contract).distill(Metric.INSTRUCTIONS, relative_threshold=0.05)
    entry = report.entry_for("all")
    # e dominates at the bounds: t and the constant fall below 5%.
    assert entry.simplified == PerfExpr.from_terms(e=500)
    assert entry.dominant_pcv == "e"
    assert 0 < entry.dropped_share < Fraction(1, 10)
    assert "e" in report.render()


def test_pcv_registry_conflicts_and_bounds():
    registry = PCVRegistry()
    registry.register(PCV("t", "traversals", max_value=8))
    registry.register(PCV("t", "traversals", max_value=8))  # identical: fine
    with pytest.raises(ValueError):
        registry.register(PCV("t", "something else", max_value=9))
    assert registry.default_bounds() == {"t": 8}
