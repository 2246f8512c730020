"""Constant-time audit: leaks refuted by witness, proofs by identity.

A pair is decided once, on its instruction and memory polynomials: the
NAT's ``external_hit`` vs ``external_miss`` pair must be reported as a
leak with its cycle delta under every hardware model, while the bridge's
hit/hairpin pair and the router's routed/no_route pair stay provably
constant-time.  The count verdict must agree with the per-model rule it
replaced: "cycle polynomials identical under every model".
"""

import itertools
from fractions import Fraction

import pytest

from repro import cli
from repro.audit import SecretClassSet, audit_contract
from repro.audit.ct import CONSTANT_TIME, LEAK
from repro.core import ContractEntry, InputClass, Metric, PerfExpr, PerformanceContract
from repro.nf import NF_MATRIX

#: NF name -> the secret class sets its descriptor declares.
SECRET_SETS = {spec.name: spec.secret_sets for spec, _ in NF_MATRIX}

_COUNTS = (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES)


def _audit(nf_name, gate_targets, secret_sets=None):
    contract, structures = gate_targets[nf_name]
    return audit_contract(
        contract,
        secret_sets if secret_sets is not None else SECRET_SETS[nf_name],
        models=cli._bench_models(),
        structures=structures,
    )


def _cycle_rule(contract, structures, class_a, class_b):
    """The per-model rule: cycle polynomials identical under every model."""
    a, b = contract.entry_for(class_a), contract.entry_for(class_b)
    return all(
        model.cycles_expr(a, structures=structures) == model.cycles_expr(b, structures=structures)
        for model in cli._bench_models()
    )


def test_nat_external_scan_leaks_under_both_models(gate_targets):
    findings = _audit("nat", gate_targets)
    [finding] = [f for f in findings if f.secret_set.name == "external port scan"]
    assert finding.leaks and finding.verdict == LEAK
    assert finding.matches_expectation  # the channel is declared, not silent
    [verdict] = finding.verdicts
    assert not verdict.indistinguishable
    assert {verdict.class_a, verdict.class_b} == {"external_hit", "external_miss"}
    by_model = {cycle.model: cycle for cycle in verdict.cycle_deltas}
    assert set(by_model) == {"conservative", "realistic", "simulated"}
    for cycle in by_model.values():
        assert cycle.max_delta > 0
        # The symbolic delta evaluated at the witness attains the reported max.
        assert abs(cycle.delta.evaluate(dict(cycle.witness))) == cycle.max_delta
    # The miss path walks both flow tables the hit path never touches, so
    # the delta grows with the chain-traversal PCVs of both maps.
    conservative = by_model["conservative"]
    assert {"fwd.t", "rev.t"} <= conservative.delta.variables()
    assert conservative.max_delta >= Fraction(924)


def test_bridge_forwarding_decision_is_proven_constant_time(gate_targets):
    contract, _ = gate_targets["bridge"]
    findings = _audit("bridge", gate_targets)
    [finding] = [f for f in findings if f.secret_set.name == "forwarding decision"]
    assert not finding.leaks and finding.verdict == CONSTANT_TIME
    assert finding.matches_expectation
    [verdict] = finding.verdicts
    assert verdict.indistinguishable and verdict.cycle_deltas == ()
    # Identical polynomials, not "small" differences.
    hit, hairpin = contract.entry_for("hit"), contract.entry_for("hairpin")
    for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
        assert hit.expr(metric) == hairpin.expr(metric)
    # A proven pair renders as one line under the finding's header.
    lines = finding.render(contract.registry)
    assert lines[1:] == [
        "  hit vs hairpin: constant time (instruction and memory polynomials identical)"
    ]


def test_router_membership_is_constant_time_at_equal_depth(gate_targets):
    [finding] = _audit("router", gate_targets)
    assert finding.verdict == CONSTANT_TIME and finding.matches_expectation
    assert all(v.indistinguishable for v in finding.verdicts)


def test_firewall_leaks_are_declared_and_its_default_deny_is_proven(gate_targets):
    """The firewall knowingly leaks its policy and tracking state on the
    LAN side, while the WAN-facing default-deny is proven constant-time."""
    findings = _audit("firewall", gate_targets)
    by_name = {f.secret_set.name: f for f in findings}
    # The denied path skips the table work the admission path does.
    egress = by_name["egress rule verdict"]
    assert egress.verdict == LEAK and egress.matches_expectation
    # Admission allocates a slot the refresh path never touches.
    tracking = by_name["connection tracking"]
    assert tracking.verdict == LEAK and tracking.matches_expectation
    for verdict in tracking.verdicts:
        assert not verdict.indistinguishable
        assert all(cycle.max_delta > 0 for cycle in verdict.cycle_deltas)
    # Both inbound paths do one read-only lookup and return a constant: a
    # WAN prober cannot time-scan the connection table.
    probe = by_name["inbound probe response"]
    assert probe.verdict == CONSTANT_TIME and probe.matches_expectation
    for verdict in probe.verdicts:
        assert verdict.indistinguishable and verdict.cycle_deltas == ()


def test_monitor_heavy_hitter_proof_is_a_zero_polynomial(gate_targets):
    """The hot/cold cycle delta is the literal zero polynomial under every
    model — a proof over all PCV valuations, not a sampled near-zero."""
    contract, structures = gate_targets["monitor"]
    [finding] = _audit("monitor", gate_targets)
    assert finding.secret_set.name == "heavy-hitter status"
    assert finding.verdict == CONSTANT_TIME and finding.matches_expectation
    [verdict] = finding.verdicts
    assert verdict.indistinguishable and verdict.cycle_deltas == ()
    hot, cold = contract.entry_for("hot_flow"), contract.entry_for("cold_flow")
    for model in cli._bench_models():
        price = model.cycles_expr
        delta = price(hot, structures=structures) - price(cold, structures=structures)
        assert not delta and delta.variables() == set()


def test_count_verdict_equals_the_per_model_cycle_rule(gate_targets):
    """Every declared pair of every NF gets the verdict the per-model rule
    gave: identical counts iff identical cycles under each bench model."""
    pairs = 0
    for nf_name, secret_sets in SECRET_SETS.items():
        contract, structures = gate_targets[nf_name]
        for finding in _audit(nf_name, gate_targets, secret_sets):
            for verdict in finding.verdicts:
                pairs += 1
                expected = _cycle_rule(contract, structures, verdict.class_a, verdict.class_b)
                assert verdict.indistinguishable == expected, (
                    f"{nf_name}/{finding.secret_set.name}: {verdict.class_a} vs {verdict.class_b}"
                )
    assert pairs == 10  # ten declared secret sets, two classes each


@pytest.mark.parametrize(
    "target", [spec.name for spec, _ in NF_MATRIX] + [spec.name for spec in cli.GRAPH_MATRIX]
)
def test_counts_decide_every_entry_pair_as_the_cycle_rule_does(target, gate_targets):
    """Not only the declared pairs: over every pair of entries of every
    gated contract, equal counts iff equal cycles under each bench model —
    so a secret set declared later cannot get a different verdict."""
    contract, structures = gate_targets[target]
    models = cli._bench_models()
    cycles = {
        entry.input_class.name: [
            model.cycles_expr(entry, structures=structures) for model in models
        ]
        for entry in contract.entries
    }
    for a, b in itertools.combinations(contract.entries, 2):
        counts_equal = all(a.expr(metric) == b.expr(metric) for metric in _COUNTS)
        cycles_equal = cycles[a.input_class.name] == cycles[b.input_class.name]
        assert counts_equal == cycles_equal, f"{a.input_class.name} vs {b.input_class.name}"


def test_counts_that_one_model_prices_equal_are_still_a_leak(gate_targets):
    """+100 instructions against +1 memory access: the conservative model
    (CPI 1, 100-cycle DRAM) prices both classes the same, but the counts
    differ, so the pair is a leak — and the simulated model sees it.  A
    difference in either count alone is a leak too."""
    bridge, structures = gate_targets["bridge"]
    hit = bridge.entry_for("hit")
    instructions, accesses = hit.expr(Metric.INSTRUCTIONS), hit.expr(Metric.MEMORY_ACCESSES)
    counts = {
        "base": (instructions, accesses),
        "more_instructions": (instructions + 100, accesses),
        "more_accesses": (instructions, accesses + 1),
    }
    doctored = PerformanceContract(
        "doctored",
        registry=bridge.registry,
        entries=[
            ContractEntry(InputClass(name), {Metric.INSTRUCTIONS: i, Metric.MEMORY_ACCESSES: m})
            for name, (i, m) in counts.items()
        ],
    )
    claim = SecretClassSet("doctored", tuple(counts), "s", CONSTANT_TIME)
    [finding] = audit_contract(doctored, [claim], models=cli._bench_models(), structures=structures)
    assert finding.leaks and not finding.matches_expectation
    verdicts = {(v.class_a, v.class_b): v for v in finding.verdicts}
    assert len(verdicts) == 3
    assert not any(verdict.indistinguishable for verdict in verdicts.values())
    cancelling = verdicts["more_instructions", "more_accesses"]
    by_model = {cycle.model: cycle for cycle in cancelling.cycle_deltas}
    assert not by_model["conservative"].delta  # the model cannot tell them apart
    assert by_model["simulated"].delta == PerfExpr.constant(-50)
    assert not _cycle_rule(doctored, structures, "more_instructions", "more_accesses")


def test_every_declared_expectation_matches_the_computed_verdict(gate_targets):
    """Every descriptor's declarations agree with the code — what
    `ct-audit` gates on."""
    for nf_name, secret_sets in SECRET_SETS.items():
        for finding in _audit(nf_name, gate_targets, secret_sets):
            assert finding.matches_expectation, (
                f"{nf_name}/{finding.secret_set.name}: computed "
                f"{finding.verdict}, declared {finding.secret_set.expectation}"
            )


def test_expectation_mismatch_is_detectable(gate_targets):
    """Declaring the NAT scan constant-time must be flagged, not absorbed."""
    wrong = SecretClassSet(
        "external port scan",
        ("external_hit", "external_miss"),
        "pretend this is safe",
        CONSTANT_TIME,
    )
    [finding] = _audit("nat", gate_targets, [wrong])
    assert finding.leaks
    assert not finding.matches_expectation


def test_unknown_class_raises(gate_targets):
    bogus = SecretClassSet("bogus", ("external_hit", "jumbo"), "s", LEAK)
    with pytest.raises(KeyError):
        _audit("nat", gate_targets, [bogus])


def test_secret_class_set_validation():
    with pytest.raises(ValueError, match="at least two classes"):
        SecretClassSet("one", ("only",), "s", LEAK)
    with pytest.raises(ValueError, match="expectation must be"):
        SecretClassSet("bad", ("a", "b"), "s", "maybe")


def test_render_names_the_leak_in_human_terms(gate_targets):
    contract, _ = gate_targets["nat"]
    findings = _audit("nat", gate_targets)
    [finding] = [f for f in findings if f.secret_set.name == "external port scan"]
    text = "\n".join(finding.render(contract.registry))
    assert "LEAK" in text and "external_hit vs external_miss" in text
    assert "chain links inspected" in text  # PCVs resolved, not symbol soup
