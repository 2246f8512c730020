"""Tests of the replay benchmark, on tiny runs.

Run from the repository root (they are outside the main suite's testpaths)::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import measure
import run
import workloads

HERE = Path(__file__).resolve().parent
TINY = ["--packets", "200", "--repeat", "1", "--seconds", "0"]
#: Per-layer counters that depend only on the streams, never on timing.
DETERMINISTIC_LAYERS = (
    "bolt.paths",
    "net.routes",
    "interpreter.steps",
    "tracer.accesses",
    "structures.calls",
    "structures.accesses",
    "charge.padded_frac",
    "charge.truncated",
    "cachesim.accesses",
    "cachesim.l1_hit_frac",
    "cachesim.llc_hit_frac",
    "net.hops",
    "net.churn_events",
    "classes.state_hit_frac",
)


def _bench(tmp_path: Path, name: str, *extra: str):
    """Run the benchmark on every workload; return (set file, last stdout line)."""
    output = tmp_path / f"{name}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *TINY, *extra, "--output", str(output)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return json.loads(output.read_text()), last


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bench")
    return {
        "traced": _bench(tmp_path, "traced", "--traced"),
        "traced_again": _bench(tmp_path, "traced_again", "--traced"),
        "untraced": _bench(tmp_path, "untraced"),
    }


def test_every_workload_emits_every_named_metric(sets):
    definition = run.load_definition()
    names = [w["name"] for w in definition["workloads"]]
    traced, traced_last = sets["traced"]
    untraced, untraced_last = sets["untraced"]
    assert sorted(traced["workloads"]) == sorted(names) == sorted(workloads.WORKLOADS)
    for metric in definition["end_to_end"] + definition["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]
    for name in names:
        for metric in definition["end_to_end"] + [{"name": "failed_frac"}]:
            assert metric["name"] in untraced["workloads"][name]["summary"]
        for metric in definition["per_layer"]:
            assert metric["name"] in traced["workloads"][name]["layers"]
    for last, listed in ((untraced_last, "end_to_end"), (traced_last, "per_layer")):
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
        expected = {f"{w}.{m['name']}" for w in names for m in definition[listed]}
        assert set(last["metrics"]) == expected
        for metric in last["metrics"].values():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float))


def test_digests_and_counters_repeat_and_survive_tracing(sets):
    traced, _ = sets["traced"]
    again, _ = sets["traced_again"]
    untraced, _ = sets["untraced"]
    for name, record in traced["workloads"].items():
        assert record["digest"] == again["workloads"][name]["digest"]
        assert record["digest"] == untraced["workloads"][name]["digest"]
        assert record["summary"]["failed_frac"]["median"] == 0
        for layer in DETERMINISTIC_LAYERS:
            assert record["layers"][layer] == again["workloads"][name]["layers"][layer], layer


def _doctored(report, workload, metric, factor):
    doctored = copy.deepcopy(report)
    record = doctored["workloads"][workload]
    for sample in record["runs"]:
        sample["metrics"][metric] *= factor
    for key in ("median", "q1", "q3"):
        record["summary"][metric][key] *= factor
    return doctored


def test_compare_flags_a_throughput_drop_and_a_changed_digest(sets, capsys):
    report, _ = sets["untraced"]
    definition = run.load_definition()
    assert compare.compare(report, report, definition) == 0
    bound = next(m["bound"] for m in definition["end_to_end"] if m["name"] == "pkts_per_s")
    within = _doctored(report, "flows_zipf", "pkts_per_s", 1 - bound + 0.05)
    assert compare.compare(report, within, definition) == 0
    dropped = _doctored(report, "flows_zipf", "pkts_per_s", 1 - bound - 0.05)
    assert compare.compare(report, dropped, definition) == 1
    assert "worse" in capsys.readouterr().out
    changed = copy.deepcopy(report)
    changed["workloads"]["graph_chain"]["digest"] = "0" * 64
    assert compare.compare(report, changed, definition) == 1
    assert "graph_chain: outcome digest CHANGED" in capsys.readouterr().out
    reseeded = dict(report, seed=report["seed"] + 1)
    assert compare.compare(report, reseeded, definition) == 2


def test_compare_pools_alternating_sets(sets, tmp_path):
    report, _ = sets["untraced"]
    paths = []
    for index, doctored in enumerate((report, _doctored(report, "flows_scan", "setup_s", 1.1))):
        paths.append(tmp_path / f"set{index}.json")
        paths[-1].write_text(json.dumps(doctored))
    pooled = compare.load_side(f"{paths[0]}+{paths[1]}")
    assert len(pooled["workloads"]["flows_scan"]["runs"]) == 2
    assert compare.main([f"{paths[0]}+{paths[1]}", str(paths[0])]) == 0
    changed = copy.deepcopy(report)
    changed["workloads"]["flows_zipf"]["runs"][0]["digest"] = "0" * 64
    paths[1].write_text(json.dumps(changed))
    assert compare.load_side(f"{paths[0]}+{paths[1]}") is None


def test_a_traced_run_leaves_no_class_attribute_patched():
    from repro.hw.cachesim import CacheHierarchy
    from repro.nf.replay import NFHarness
    from repro.nfil.interpreter import ExternHandler
    from repro.structures.base import Structure
    from repro.traffic import Replayer

    patched = [
        (Structure, "charge"),
        (CacheHierarchy, "access"),
        (Replayer, "score"),
        (Replayer, "replay"),
        (NFHarness, "run"),
        (NFHarness, "env"),
        (ExternHandler, "handle"),
    ]
    before = [vars(cls)[attr] for cls, attr in patched]
    record = measure.measure("flows_zipf", 2019, 50, 0, True)
    assert record["correct"], record["problems"]
    assert [vars(cls)[attr] for cls, attr in patched] == before


def test_a_missing_expected_class_fails_the_pass():
    cells = workloads.setup(workloads.WORKLOADS["flows_scan"], 2019, 50)
    results = [cell.replay() for cell in cells]
    assert measure.check_pass(cells, results)["problems"] == []
    cells[0].expected = {"bridge": frozenset({"miss", "hit"})}
    problems = measure.check_pass(cells, results)["problems"]
    assert problems == ["bridge/scan_sweep: bridge never exercised classes ['hit']"]
