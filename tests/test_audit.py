"""Constant-time audit: leaks refuted by witness, proofs by identity.

The acceptance story from the issue: the NAT's ``external_hit`` vs
``external_miss`` pair must be reported as a leak with its cycle delta
under *both* hardware models, while the bridge's hit/hairpin pair and the
router's routed/no_route pair stay provably constant-time.
"""

from fractions import Fraction

import pytest

from repro import cli
from repro.audit import SecretClassSet, audit_contract
from repro.audit.ct import CONSTANT_TIME, LEAK
from repro.nf import NF_MATRIX

#: NF name -> the secret class sets its descriptor declares.
SECRET_SETS = {spec.name: spec.secret_sets for spec, _ in NF_MATRIX}


def _audit(nf_name, gate_targets, secret_sets=None):
    contract, structures = gate_targets[nf_name]
    return audit_contract(
        contract,
        secret_sets if secret_sets is not None else SECRET_SETS[nf_name],
        models=cli._bench_models(),
        structures=structures,
    )


def test_nat_external_scan_leaks_under_both_models(gate_targets):
    findings = _audit("nat", gate_targets)
    [finding] = [f for f in findings if f.secret_set.name == "external port scan"]
    assert finding.leaks and finding.verdict == LEAK
    assert finding.matches_expectation  # the channel is declared, not silent
    by_model = {v.model: v for v in finding.verdicts}
    assert set(by_model) == {"conservative", "realistic", "simulated"}
    for verdict in by_model.values():
        assert not verdict.indistinguishable
        assert {verdict.class_a, verdict.class_b} == {"external_hit", "external_miss"}
        assert verdict.max_delta > 0
        assert verdict.witness is not None
        # The symbolic delta evaluated at the witness attains the reported max.
        assert abs(verdict.delta.evaluate(dict(verdict.witness))) == verdict.max_delta
    # The miss path walks both flow tables the hit path never touches, so
    # the delta grows with the chain-traversal PCVs of both maps.
    conservative = by_model["conservative"]
    assert {"fwd.t", "rev.t"} <= conservative.delta.variables()
    assert conservative.max_delta >= Fraction(924)


def test_bridge_forwarding_decision_is_proven_constant_time(gate_targets):
    findings = _audit("bridge", gate_targets)
    [finding] = [f for f in findings if f.secret_set.name == "forwarding decision"]
    assert not finding.leaks and finding.verdict == CONSTANT_TIME
    assert finding.matches_expectation
    for verdict in finding.verdicts:
        assert verdict.indistinguishable
        assert not verdict.delta  # the zero polynomial, not "small"
        assert verdict.max_delta == 0 and verdict.witness is None


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
        assert verdict.max_delta > 0
    # Both inbound paths do one read-only lookup and return a constant: a
    # WAN prober cannot time-scan the connection table.
    probe = by_name["inbound probe response"]
    assert probe.verdict == CONSTANT_TIME and probe.matches_expectation
    for verdict in probe.verdicts:
        assert verdict.indistinguishable
        assert not verdict.delta


def test_monitor_heavy_hitter_proof_is_a_zero_polynomial(gate_targets):
    """The sketch satellite's acceptance bar: the hot/cold cycle delta is
    the literal zero polynomial under every model — a proof over all PCV
    valuations, not a sampled near-zero."""
    [finding] = _audit("monitor", gate_targets)
    assert finding.secret_set.name == "heavy-hitter status"
    assert finding.verdict == CONSTANT_TIME and finding.matches_expectation
    assert {v.model for v in finding.verdicts} == {"conservative", "realistic", "simulated"}
    for verdict in finding.verdicts:
        assert verdict.indistinguishable
        assert not verdict.delta
        assert verdict.delta.variables() == set()
        assert verdict.max_delta == 0 and verdict.witness is None


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
