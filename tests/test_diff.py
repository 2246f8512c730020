"""The golden-contract layer: exact round-trips and drift detection.

Serialization must be *exact* (Fractions survive as strings, never
floats) because the diff is term-for-term equality — a contract that only
round-trips approximately would drift against itself and the gate would
never be green.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repro import cli
from repro.core import (
    ContractEntry,
    InputClass,
    Metric,
    PCV,
    PCVRegistry,
    PerfExpr,
    PerformanceContract,
    contract_from_json,
    contract_to_json,
    diff_contracts,
    dump_contract,
    load_contract,
)
from repro.core.diff import SCHEMA
from repro.nf import NF_MATRIX

GATE_NAMES = [spec.name for spec, _ in NF_MATRIX] + [
    spec.name for spec in cli.GRAPH_MATRIX
]


# --------------------------------------------------------------------------- #
# Round-trip exactness
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", GATE_NAMES)
def test_round_trip_is_diff_exact_for_every_gated_contract(name, gate_targets):
    """serialize → deserialize → diff against the original is empty, for
    all six NFs and both composed graph contracts."""
    contract, _ = gate_targets[name]
    restored = contract_from_json(contract_to_json(contract))
    diff = diff_contracts(contract, restored)
    assert diff.ok, diff.render()
    assert restored.nf_name == contract.nf_name
    assert restored.class_names() == contract.class_names()
    for entry in contract.entries:
        restored_entry = restored.entry_for(entry.input_class.name)
        for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
            assert restored_entry.expr(metric) == entry.expr(metric)
    # The registry's bounds survive too — the diff's cycle pricing uses them.
    assert restored.registry.default_bounds() == contract.registry.default_bounds()


def test_fractional_coefficients_survive_exactly(tmp_path):
    """A 9/2 coefficient must come back as Fraction(9, 2), not 4.5."""
    registry = PCVRegistry([PCV("t", "links", structure="m", max_value=8)])
    contract = PerformanceContract("frac_nf", registry=registry)
    expr = PerfExpr({(): Fraction(7, 3), ("m.t",): Fraction(9, 2)})
    contract.add_entry(
        ContractEntry(
            input_class=InputClass("only"),
            exprs={Metric.INSTRUCTIONS: expr, Metric.MEMORY_ACCESSES: PerfExpr({(): Fraction(1)})},
        )
    )
    path = tmp_path / "frac.json"
    dump_contract(contract, str(path))
    text = path.read_text()
    assert '"9/2"' in text and '"7/3"' in text  # strings, never floats
    restored = load_contract(str(path))
    restored_expr = restored.entry_for("only").expr(Metric.INSTRUCTIONS)
    assert restored_expr.terms[("m.t",)] == Fraction(9, 2)
    assert restored_expr == expr
    assert diff_contracts(contract, restored).ok


def test_unknown_schema_is_rejected(gate_targets):
    contract, _ = gate_targets["bridge"]
    payload = contract_to_json(contract)
    payload["schema"] = "repro-contract/999"
    with pytest.raises(ValueError, match="unsupported contract schema"):
        contract_from_json(payload)
    assert contract_to_json(contract)["schema"] == SCHEMA


#: The NAT golden's ``external_miss`` entry as schema v2 wrote it (count
#: terms abridged, tail columns verbatim).  v2 added constant
#: per-percentile cycle columns (p50/p95/p99) to every NF entry.
_V2_NAT_PAYLOAD = {
    "schema": "repro-contract/2",
    "nf_name": "nat",
    "pcvs": [],
    "entries": [
        {
            "class": "external_miss",
            "description": "WAN frame to an unleased port; dropped",
            "exprs": {
                **{
                    f"cycles_p{p}": [[[], cycles]]
                    for p, cycles in ((50, "1526"), (95, "2538"), (99, "2538"))
                },
                "instructions": [[[], "34"], [["fwd.e"], "9"], [["rev.t"], "6"]],
                "memory_accesses": [[[], "9"], [["fwd.e"], "4"], [["rev.t"], "2"]],
            },
        }
    ],
}


def test_stale_v2_golden_with_tail_columns_fails_loudly():
    """A golden from before the tail columns were dropped must not load
    as if its percentile terms were simply absent."""
    with pytest.raises(ValueError, match="repro-contract/2"):
        contract_from_json(_V2_NAT_PAYLOAD)
    # Relabelling it to the current schema does not sneak it through either.
    with pytest.raises(ValueError, match="cycles_p"):
        contract_from_json({**_V2_NAT_PAYLOAD, "schema": SCHEMA})


# --------------------------------------------------------------------------- #
# Sabotage: a seeded mutated bound is caught and named
# --------------------------------------------------------------------------- #
def _sabotage(contract, rng):
    """Worsen one random coefficient of one random entry; return what drifted."""
    payload = contract_to_json(contract)
    entry = rng.choice(payload["entries"])
    metric = rng.choice(sorted(entry["exprs"]))
    term = rng.choice(entry["exprs"][metric])
    term[1] = str(Fraction(str(term[1])) + 3)
    return contract_from_json(payload), entry["class"], Metric(metric), tuple(term[0])


@pytest.mark.parametrize("seed", range(5))
def test_sabotaged_bound_is_reported_with_class_and_metric(seed, gate_targets):
    contract, structures = gate_targets["nat"]
    golden, class_name, metric, monomial = _sabotage(contract, random.Random(seed))
    # The *current* tree regressed against the golden: swap the roles so
    # the mutated coefficient appears as a worsening in `current`.
    diff = diff_contracts(contract, golden, models=cli._bench_models(), structures=structures)
    assert not diff.ok
    assert class_name in diff.worsened_classes
    [drift] = [d for d in diff.drifted if d.class_name == class_name]
    [term] = [t for t in drift.terms if t.metric == metric and t.monomial == monomial]
    assert term.worsened
    assert term.current - term.golden == Fraction(3)
    assert set(drift.cycle_deltas) == {"conservative", "realistic", "simulated"}
    # Count drift must surface as a priced cycle consequence per model.
    assert all(delta > 0 for delta in drift.cycle_deltas.values())
    rendered = diff.render()
    assert class_name in rendered and "WORSENED" in rendered


def test_improvements_are_drift_too(gate_targets):
    """A better bound still fails the gate: goldens are acknowledgements."""
    contract, _ = gate_targets["bridge"]
    payload = contract_to_json(contract)
    term = payload["entries"][0]["exprs"]["instructions"][0]
    term[1] = str(Fraction(str(term[1])) - 1)
    improved = contract_from_json(payload)
    diff = diff_contracts(contract, improved)
    assert not diff.ok
    assert diff.worsened_classes == []  # improved, not worsened...
    assert diff.drifted  # ...but drift nonetheless
    assert "improved" in diff.render()


def test_added_and_removed_classes_are_reported(gate_targets):
    contract, _ = gate_targets["router"]
    payload = contract_to_json(contract)
    dropped = payload["entries"].pop()["class"]
    golden = contract_from_json(payload)
    diff = diff_contracts(golden, contract)
    assert diff.added == (dropped,)
    assert not diff.ok
    assert dropped in diff.worsened_classes
    reverse = diff_contracts(contract, golden)
    assert reverse.removed == (dropped,)


def test_doctored_firewall_golden_turns_the_gate_red(tmp_path, capsys):
    """The satellite's sabotage check, through the CLI gate itself: doctor
    the committed firewall golden's ``outbound_new`` constant and the
    contract-diff command must exit 1 naming the class."""
    golden_dir = Path(__file__).parent / "golden"
    sandbox = tmp_path / "golden"
    sandbox.mkdir()
    for path in golden_dir.glob("*.json"):
        (sandbox / path.name).write_text(path.read_text())
    payload = json.loads((sandbox / "firewall.json").read_text())
    entry = next(e for e in payload["entries"] if e["class"] == "outbound_new")
    constant = next(t for t in entry["exprs"]["instructions"] if t[0] == [])
    constant[1] = str(int(constant[1]) - 5)  # golden promises less: tree worsened
    (sandbox / "firewall.json").write_text(json.dumps(payload))
    assert cli.main(["contract-diff", "--golden", str(sandbox), "--nf", "firewall"]) == 1
    printed = capsys.readouterr().out
    assert "outbound_new" in printed and "WORSENED" in printed
    assert "CONTRACT DIFF FAILED" in printed
    # The untouched goldens in the same sandbox still pass on their own.
    capsys.readouterr()
    assert cli.main(["contract-diff", "--golden", str(sandbox), "--nf", "monitor"]) == 0


def test_checked_in_goldens_match_the_tree(gate_targets):
    """The gate itself, as a test: the committed goldens describe HEAD."""
    golden_dir = Path(__file__).parent / "golden"
    for name, (contract, _) in gate_targets.items():
        golden = load_contract(str(golden_dir / f"{name}.json"))
        diff = diff_contracts(golden, contract)
        assert diff.ok, f"{name}: {diff.render()}"
