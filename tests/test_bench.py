"""The evaluation bench: `python -m repro.cli bench` end to end."""

import json

from repro import cli


def test_bench_writes_a_green_report(tmp_path, capsys):
    output = tmp_path / "BENCH_eval.json"
    code = cli.main(["bench", "--output", str(output), "--packets", "60"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "BENCH OK" in printed
    assert "adversarial worst case" in printed

    report = json.loads(output.read_text())
    assert report["schema"] == "repro-bench/1"
    assert report["ok"] is True
    assert set(report["nfs"]) == {"bridge", "router", "nat", "lb", "firewall", "monitor"}
    assert set(report["hw_models"]) == {"conservative", "realistic", "simulated"}
    for nf, record in report["nfs"].items():
        assert record["failures"] == 0
        assert set(record["workloads"]) == {
            "uniform",
            "zipf",
            "adversarial",
            "scan_sweep",
            "header_flood",
        }
        for name, workload in record["workloads"].items():
            assert workload["ok"] is True, (nf, name)
            assert workload["violations"] == []
            for summary in workload["classes"].values():
                for model, cycles in summary["max_cycles"].items():
                    assert cycles["measured"] <= cycles["predicted"], (nf, name, model)
        worst = record["workloads"]["adversarial"].get("worst_case", {})
        # The monitor's sketch has no PCVs, so its adversarial stream has
        # no bound to pin; every other NF pins at least one.
        if nf != "monitor":
            assert worst, nf
        assert all(check["hit"] for check in worst.values())
    # The bridge adversarial stream pins every (namespaced) PCV to its bound.
    bridge_worst = report["nfs"]["bridge"]["workloads"]["adversarial"]["worst_case"]
    assert {pcv: check["observed"] for pcv, check in bridge_worst.items()} == {
        "bridge_map.t": 16,
        "bridge_map.e": 16,
        "bridge_map.w": 51,
    }
    router_worst = report["nfs"]["router"]["workloads"]["adversarial"]["worst_case"]
    assert router_worst["rt.d"]["observed"] == 33
    # The NAT adversarial stream pins *both* instances' PCVs — the
    # namespaced bounds are observed independently per flow table.
    nat_worst = report["nfs"]["nat"]["workloads"]["adversarial"]["worst_case"]
    assert {pcv: check["observed"] for pcv, check in nat_worst.items()} == {
        "fwd.t": 16,
        "fwd.e": 16,
        "fwd.w": 51,
        "rev.t": 16,
        "rev.e": 16,
        "rev.w": 51,
    }
    # All seven NAT contract classes were exercised across its workloads.
    assert set(report["nfs"]["nat"]["classes_seen"]) == {
        "short",
        "non_ip",
        "internal_new",
        "internal_existing",
        "no_ports",
        "external_hit",
        "external_miss",
    }
    # The LB adversarial stream pins the connection-table bounds AND the
    # control-plane repopulation bound (the proven-tight Maglev fill count).
    lb_worst = report["nfs"]["lb"]["workloads"]["adversarial"]["worst_case"]
    assert {pcv: check["observed"] for pcv, check in lb_worst.items()} == {
        "conn.t": 16,
        "conn.e": 16,
        "conn.w": 51,
        "lb_tbl.f": 46,
    }
    # All seven LB contract classes were exercised across its workloads.
    assert set(report["nfs"]["lb"]["classes_seen"]) == {
        "short",
        "non_ip",
        "reconfig",
        "new_flow",
        "existing_flow",
        "backend_drained",
        "no_backends",
    }
    # The firewall adversarial stream pins the connection table's three
    # (namespaced) PCV bounds; the slot allocator contributes none.
    fw_worst = report["nfs"]["firewall"]["workloads"]["adversarial"]["worst_case"]
    assert {pcv: check["observed"] for pcv, check in fw_worst.items()} == {
        "fw_conn.t": 16,
        "fw_conn.e": 16,
        "fw_conn.w": 51,
    }
    # All eight firewall classes were exercised across its workloads, and
    # the scan sweep alone drives the at-capacity class.
    assert set(report["nfs"]["firewall"]["classes_seen"]) == {
        "short",
        "non_ip",
        "denied",
        "outbound_established",
        "outbound_new",
        "conn_full",
        "inbound_established",
        "unsolicited",
    }
    fw_scan = report["nfs"]["firewall"]["workloads"]["scan_sweep"]
    assert "conn_full" in fw_scan["classes"]
    # The monitor row exists, is green, and saw both verdicts.
    monitor_record = report["nfs"]["monitor"]
    assert set(monitor_record["classes_seen"]) == {
        "short",
        "non_ip",
        "cold_flow",
        "hot_flow",
    }
    assert "hot_flow" in monitor_record["workloads"]["header_flood"]["classes"]
    for workload in monitor_record["workloads"].values():
        assert workload["packets_per_sec"] > 0
    # The service-graph rows: replay with churn, green at every hop, full
    # per-hop class coverage.
    assert set(report["graphs"]) == {"lb_nat_router", "lb_nat_fw_router"}
    graph_record = report["graphs"]["lb_nat_router"]
    assert graph_record["failures"] == 0
    assert set(graph_record["hop_classes_seen"]) == {"lb", "nat", "router"}
    assert set(graph_record["hop_classes_seen"]["router"]) == {
        "routed",
        "no_route",
        "ttl_expired",
    }
    capture_cell = graph_record["workloads"]["capture"]
    assert capture_cell["ok"] is True
    assert capture_cell["violations"] == []
    assert capture_cell["packets"] == 60
    assert capture_cell["hop_executions"] > capture_cell["packets"]
    assert capture_cell["churn"]["events"] > 0
    assert capture_cell["packets_per_sec"] > 0
    # Every observed route row (the sum of its hops) stayed within bound.
    for route in capture_cell["routes"].values():
        assert route["violations"] == 0
        for cycles in route["max_cycles"].values():
            assert cycles["measured"] <= cycles["predicted"]
    # The 4-hop graph adds the firewall hop between NAT and router and
    # stays green end to end.
    fw_graph = report["graphs"]["lb_nat_fw_router"]
    assert fw_graph["failures"] == 0
    assert set(fw_graph["hop_classes_seen"]) == {"lb", "nat", "fw", "router"}
    assert set(fw_graph["hop_classes_seen"]["fw"]) == {
        "outbound_new",
        "outbound_established",
    }
    fw_capture = fw_graph["workloads"]["capture"]
    assert fw_capture["ok"] is True
    assert fw_capture["packets_per_sec"] > 0
    assert any(" > fw:" in route for route in fw_capture["routes"])
    for route in fw_capture["routes"].values():
        assert route["violations"] == 0


def test_bench_report_envelopes_dominate_measurements(tmp_path):
    output = tmp_path / "BENCH_eval.json"
    assert cli.main(["bench", "--output", str(output), "--packets", "40"]) == 0
    report = json.loads(output.read_text())
    for record in report["nfs"].values():
        for workload in record["workloads"].values():
            envelopes = workload["cycle_envelopes"]
            for summary in workload["classes"].values():
                for model, cycles in summary["max_cycles"].items():
                    assert cycles["measured"] <= envelopes[model]


def _strip_timing(report):
    """Drop the only fields allowed to vary between bench invocations."""
    report.pop("timing")
    for kind in ("nfs", "graphs"):
        for record in report[kind].values():
            for workload in record["workloads"].values():
                workload.pop("wall_clock_s")
                workload.pop("packets_per_sec")
    return report


def test_bench_report_is_bit_identical_for_any_worker_count(tmp_path):
    serial = tmp_path / "serial.json"
    fanned = tmp_path / "fanned.json"
    assert cli.main(["bench", "--output", str(serial), "--packets", "30", "--workers", "1"]) == 0
    assert cli.main(["bench", "--output", str(fanned), "--packets", "30", "--workers", "4"]) == 0
    serial_report = json.loads(serial.read_text())
    # The tail distributions participate in the byte-identity guarantee:
    # they are present (each cell rebuilds its simulated model from a cold
    # cache, so fan-out cannot skew them) and they are NOT stripped below.
    for record in serial_report["nfs"].values():
        for workload in record["workloads"].values():
            assert any("cycle_tails" in cls for cls in workload["classes"].values())
    assert _strip_timing(serial_report) == _strip_timing(json.loads(fanned.read_text()))


def test_bench_cells_record_ordered_simulated_tails(tmp_path):
    """Every class row carries measured 0 < p50 ≤ p95 ≤ p99 ≤ max per model."""
    output = tmp_path / "BENCH_eval.json"
    assert cli.main(["bench", "--output", str(output), "--packets", "40"]) == 0
    report = json.loads(output.read_text())
    checked = 0
    for nf, record in report["nfs"].items():
        for name, workload in record["workloads"].items():
            for cls, summary in workload["classes"].items():
                tails = summary["cycle_tails"]
                assert set(tails) == {"conservative", "realistic", "simulated"}
                for model, t in tails.items():
                    where = (nf, name, cls, model)
                    assert 0 < t["p50"] <= t["p95"] <= t["p99"] <= t["max"], where
                    checked += 1
    assert checked > 100  # the whole matrix reported distributions


def test_bench_models_filter_restricts_the_matrix(tmp_path):
    output = tmp_path / "BENCH_eval.json"
    code = cli.main(
        [
            "bench",
            "--output",
            str(output),
            "--packets",
            "30",
            "--nf",
            "bridge",
            "--models",
            "simulated",
        ]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert set(report["hw_models"]) == {"simulated"}
    assert report["hw_models"]["simulated"]["caches"]["l1"]["sets"] == 32
    assert report["filters"]["models"] == ["simulated"]
    for workload in report["nfs"]["bridge"]["workloads"].values():
        for summary in workload["classes"].values():
            assert set(summary["max_cycles"]) == {"simulated"}
            assert set(summary["cycle_tails"]) == {"simulated"}


def test_bench_rejects_unknown_models(tmp_path, capsys):
    output = tmp_path / "BENCH_eval.json"
    assert cli.main(["bench", "--output", str(output), "--models", "quantum"]) == 2
    assert "unknown hardware models" in capsys.readouterr().out
    assert not output.exists()


def test_bench_records_throughput_per_cell_and_in_aggregate(tmp_path):
    output = tmp_path / "BENCH_eval.json"
    assert cli.main(["bench", "--output", str(output), "--packets", "30", "--workers", "2"]) == 0
    report = json.loads(output.read_text())
    timing = report["timing"]
    assert timing["workers"] == 2
    assert timing["wall_clock_s"] > 0
    assert timing["packets_per_sec"] > 0
    assert timing["packets_total"] == sum(
        workload["packets"]
        for kind in ("nfs", "graphs")
        for record in report[kind].values()
        for workload in record["workloads"].values()
    )
    for kind in ("nfs", "graphs"):
        for record in report[kind].values():
            for workload in record["workloads"].values():
                assert workload["wall_clock_s"] > 0
                assert workload["packets_per_sec"] > 0


def test_bench_nf_filter_writes_a_partial_report(tmp_path):
    output = tmp_path / "BENCH_eval.json"
    code = cli.main(
        ["bench", "--output", str(output), "--packets", "30", "--nf", "bridge", "--nf", "lb"]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert report["schema"] == "repro-bench/1"
    assert report["ok"] is True
    assert set(report["nfs"]) == {"bridge", "lb"}
    assert report["graphs"] == {}
    assert report["filters"] == {"nfs": ["bridge", "lb"], "graphs": [], "models": []}


def test_bench_graph_filter_writes_a_partial_report(tmp_path):
    output = tmp_path / "BENCH_eval.json"
    code = cli.main(
        ["bench", "--output", str(output), "--packets", "40", "--graph", "lb_nat_router"]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert report["nfs"] == {}
    assert set(report["graphs"]) == {"lb_nat_router"}
    assert report["filters"] == {"nfs": [], "graphs": ["lb_nat_router"], "models": []}
    assert report["graphs"]["lb_nat_router"]["failures"] == 0


def test_bench_rejects_unknown_filter_rows(tmp_path, capsys):
    output = tmp_path / "BENCH_eval.json"
    assert cli.main(["bench", "--output", str(output), "--nf", "dpi"]) == 2
    assert "unknown bench rows" in capsys.readouterr().out
    assert not output.exists()


def test_graph_command_replays_green(capsys):
    assert cli.main(["graph", "--packets", "120"]) == 0
    printed = capsys.readouterr().out
    assert "GRAPH OK" in printed
    assert "churn @" in printed
    assert "lb:new_flow > nat:internal_new > router:routed" in printed


def test_graph_command_rejects_unknown_graphs(capsys):
    assert cli.main(["graph", "--graph", "nope"]) == 2
    assert "unknown graph" in capsys.readouterr().out


def test_cli_default_is_smoke(monkeypatch):
    called = {}
    monkeypatch.setattr(cli, "run_smoke", lambda: called.setdefault("smoke", 0))
    assert cli.main([]) == 0
    assert cli.main(["smoke"]) == 0
    assert "smoke" in called
