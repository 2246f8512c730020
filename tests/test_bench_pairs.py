"""``tools/bench_pairs.py``: one alternating pair, this checkout on both sides."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_pair_lists_pass_counts_and_compares_the_pooled_sets(tmp_path):
    command = [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT), str(ROOT)]
    command += ["--pairs", "1", "--packets", "200", "--seconds", "0"]
    command += ["--workload", "stateless_counts", "--out", str(tmp_path)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    for side in ("parent", "change"):
        report = json.loads((tmp_path / f"{side}1.json").read_text())
        assert report["workloads"]["stateless_counts"]["runs"][0]["passes"] == 1
    assert "  stateless_counts  1/1" in lines
    assert any(line.startswith("stateless_counts  pkts_per_s") for line in lines)
    assert "stateless_counts: outcome digest matches" in lines
