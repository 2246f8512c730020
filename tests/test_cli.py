"""Direct tests for `repro.cli` itself.

CI exercises the CLI's green paths (contract-smoke, bench-smoke); these
tests pin the *red* paths — a seeded contract violation must flip the
exit code — and the shape of the BENCH_eval.json artifact.
"""

import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.nf import BRIDGE, bridge_workloads
from repro.nf.workloads import WORKLOAD_NAMES
from repro.structures import ChainingHashMap, ExpiringMap


@pytest.fixture
def quiet_nf_matrix(monkeypatch):
    """Silence the NF half of smoke so structure tests stay fast."""
    monkeypatch.setattr(cli, "NF_MATRIX", ())


def test_default_structure_validation_guards_exported_coverage(monkeypatch, capsys):
    """Dropping a structure from the smoke list must fail the default run."""
    monkeypatch.setattr(
        cli, "smoke_structures", lambda: [ChainingHashMap("flow_map", capacity=8)]
    )
    failures = cli.run_structure_contracts()
    printed = capsys.readouterr().out
    assert failures == 1
    assert "not covered by the smoke run" in printed
    # The listed structure's operation contract is still rendered.
    assert "structure flow_map (chaining_hash_map)" in printed


def test_smoke_exit_code_reflects_seeded_failures(monkeypatch, capsys, quiet_nf_matrix):
    """A structure missing from `smoke_structures()` turns smoke red."""
    listed = [s for s in cli.smoke_structures() if not isinstance(s, ExpiringMap)]
    monkeypatch.setattr(cli, "smoke_structures", lambda: listed)
    assert cli.main(["smoke"]) == 1
    printed = capsys.readouterr().out
    assert "SMOKE FAILED" in printed
    assert "structures not covered by the smoke run: ['ExpiringMap']" in printed


def test_smoke_renders_every_structure_contract(capsys, quiet_nf_matrix):
    assert cli.main(["smoke"]) == 0
    printed = capsys.readouterr().out
    for structure in cli.smoke_structures():
        assert f"structure {structure.name} ({structure.kind})" in printed
        assert structure.operation_contract().render() in printed
    assert "SMOKE OK" in printed


def test_nf_contracts_flag_a_lost_input_class(monkeypatch, capsys):
    doctored = replace(BRIDGE, classes={**BRIDGE.classes, "jumbo": "an oversized frame"})
    failures = cli.run_nf_contracts([doctored])
    printed = capsys.readouterr().out
    assert failures == 1
    assert "lost input classes" in printed and "jumbo" in printed


def test_bench_exits_nonzero_when_a_worst_case_is_missed(monkeypatch, capsys, tmp_path):
    """Seed an unreachable adversarial bound: the bench must go red."""

    def sabotaged_workloads(**kwargs):
        return [
            replace(w, expected_worst={pcv: bound + 1 for pcv, bound in w.expected_worst.items()})
            for w in bridge_workloads(**kwargs)
        ]

    monkeypatch.setattr(cli, "NF_MATRIX", ((BRIDGE, sabotaged_workloads),))
    monkeypatch.setattr(cli, "GRAPH_MATRIX", ())  # keep the red-path run fast
    output = tmp_path / "BENCH_eval.json"
    assert cli.main(["bench", "--packets", "100", "--output", str(output)]) == 1
    printed = capsys.readouterr().out
    assert "MISSED" in printed and "BENCH FAILED" in printed
    report = json.loads(output.read_text())
    assert report["ok"] is False


def test_every_factory_returns_its_declared_workloads():
    """The bench and ``graph`` plan their cells from the declared names alone."""
    for spec, factory in cli.NF_MATRIX:
        workloads = factory(seed=1, packets=1, **spec.bench)
        assert tuple(w.name for w in workloads) == WORKLOAD_NAMES, spec.name
    for spec in cli.GRAPH_MATRIX:
        workloads = spec.bench_workloads(1, 1)
        assert tuple(w.name for w in workloads) == cli.GRAPH_WORKLOAD_NAMES, spec.name


def test_docs_consistency_script_passes():
    """`tools/check_docs.py` (the CI docs-check job) stays green: every
    registered NF/structure documented, README quickstart runs verbatim."""
    repo = Path(cli.__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, str(repo / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "DOCS CHECK OK" in result.stdout


def test_docs_check_fails_on_a_stale_api_name():
    repo = Path(cli.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location("check_docs", repo / "tools" / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    failures = []
    line = "Tune `repro.core.bolt.BoltConfig`, then call `repro.core.bolt.generate_contract`.\n"
    assert check_docs.check_api_names(failures, line, "GUIDE.md") == 2
    assert failures == [
        "GUIDE.md: `repro.core.bolt.BoltConfig` is neither a module nor an attribute of one"
    ]


def test_bench_writes_a_well_formed_report(monkeypatch, tmp_path):
    """The artifact schema CI archives: every NF, workload, model present."""
    output = tmp_path / "BENCH_eval.json"
    assert cli.main(["bench", "--output", str(output), "--packets", "60"]) == 0
    report = json.loads(output.read_text())
    assert report["schema"] == "repro-bench/1"
    assert report["ok"] is True
    assert report["packets_per_workload"] == 60
    assert set(report["nfs"]) == {spec.name for spec, _ in cli.NF_MATRIX}
    assert set(report["hw_models"]) == {"conservative", "realistic", "simulated"}
    assert report["hw_models"]["simulated"]["caches"]["l1"]["sets"] == 32
    for spec, _ in cli.NF_MATRIX:
        record = report["nfs"][spec.name]
        assert record["failures"] == 0
        assert set(record["workloads"]) == {
            "uniform",
            "zipf",
            "adversarial",
            "scan_sweep",
            "header_flood",
        }
        assert set(spec.classes) <= set(record["classes_seen"])
        for workload in record["workloads"].values():
            assert workload["ok"] is True
            assert {
                "packets",
                "classes",
                "max_pcvs",
                "cycle_envelopes",
                "wall_clock_s",
                "packets_per_sec",
            } <= set(workload)
        worst = record["workloads"]["adversarial"].get("worst_case", {})
        if spec.name != "monitor":  # the sketch has no PCVs to pin
            assert worst, spec.name
        assert all(check["hit"] for check in worst.values())
    assert set(report["graphs"]) == {spec.name for spec in cli.GRAPH_MATRIX}
    for record in report["graphs"].values():
        assert record["failures"] == 0
        for workload in record["workloads"].values():
            assert workload["ok"] is True
            assert {
                "packets",
                "hop_executions",
                "routes",
                "hops",
                "max_pcvs",
                "churn",
                "wall_clock_s",
                "packets_per_sec",
            } <= set(workload)
    assert report["timing"]["packets_per_sec"] > 0


# --------------------------------------------------------------------------- #
# contract-diff / ct-audit: the regression gates' exit codes
# --------------------------------------------------------------------------- #
def test_contract_diff_update_then_clean_diff(tmp_path, capsys):
    """`--update` writes the goldens (exit 0); a re-diff is then clean."""
    golden = tmp_path / "golden"
    assert cli.main(["contract-diff", "--update", "--golden", str(golden), "--nf", "bridge"]) == 0
    assert (golden / "bridge.json").exists()
    assert cli.main(["contract-diff", "--golden", str(golden), "--nf", "bridge"]) == 0
    assert "CONTRACT DIFF OK" in capsys.readouterr().out


def test_contract_diff_names_the_drifted_class_and_exits_nonzero(tmp_path, capsys):
    golden = tmp_path / "golden"
    assert cli.main(["contract-diff", "--update", "--golden", str(golden), "--nf", "nat"]) == 0
    path = golden / "nat.json"
    payload = json.loads(path.read_text())
    entry = next(e for e in payload["entries"] if e["class"] == "external_miss")
    constant = next(t for t in entry["exprs"]["instructions"] if t[0] == [])
    constant[1] = str(int(constant[1]) - 5)  # golden promises less: tree worsened
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["contract-diff", "--golden", str(golden), "--nf", "nat"]) == 1
    printed = capsys.readouterr().out
    assert "external_miss" in printed
    assert "WORSENED" in printed
    assert "cycles@conservative" in printed and "cycles@realistic" in printed
    assert "cycles@simulated" in printed
    assert "CONTRACT DIFF FAILED" in printed


def test_contract_diff_missing_golden_exits_2(tmp_path, capsys):
    assert cli.main(["contract-diff", "--golden", str(tmp_path), "--nf", "bridge"]) == 2
    assert "no golden contract" in capsys.readouterr().out


def test_contract_diff_unknown_target_exits_2(capsys):
    assert cli.main(["contract-diff", "--nf", "dpi"]) == 2
    assert "unknown contract-diff targets" in capsys.readouterr().out


def test_ct_audit_clean_tree_exits_0(capsys):
    assert cli.main(["ct-audit", "--nf", "nat"]) == 0
    printed = capsys.readouterr().out
    assert "CT AUDIT OK" in printed
    # The acceptance bar: the NAT hit/miss delta is reported per model.
    assert "external_hit vs external_miss @conservative: LEAK" in printed
    assert "external_hit vs external_miss @realistic: LEAK" in printed


def test_ct_audit_strict_fails_on_declared_leaks(capsys):
    assert cli.main(["ct-audit", "--nf", "nat", "--strict"]) == 1
    printed = capsys.readouterr().out
    assert "FAIL (--strict)" in printed and "CT AUDIT FAILED" in printed


def test_ct_audit_flags_an_expectation_mismatch(monkeypatch, capsys):
    from repro.audit import SecretClassSet

    wrong = SecretClassSet("mac-table membership", ("hit", "miss"), "secret", "constant_time")
    monkeypatch.setattr(
        cli, "NF_MATRIX", ((replace(BRIDGE, secret_sets=(wrong,)), bridge_workloads),)
    )
    assert cli.main(["ct-audit", "--nf", "bridge"]) == 1
    printed = capsys.readouterr().out
    assert "** UNEXPECTED **" in printed
    assert "is leak but declared constant_time" in printed


def test_ct_audit_unknown_nf_exits_2(capsys):
    assert cli.main(["ct-audit", "--nf", "dpi"]) == 2
    assert "unknown NFs" in capsys.readouterr().out
