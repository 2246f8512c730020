#!/usr/bin/env python3
"""Run alternating parent/change benchmark pairs and compare the pooled sets.

Usage (from anywhere)::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10
    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 3 --seed 7 \\
        --workload stateless_counts --out sets/

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of the repository.
Each pair runs ``bench/run.py --repeat 1`` once in each checkout, with
that checkout's own sources; the first side alternates from pair to pair
(parent first in even pairs), so a drift in the machine's speed lands on
both sides alike.  Each run's set is written to ``--out`` (a fresh
temporary directory by default).

The tool then lists every run's pass count per workload and marks each
workload whose two sides of a pair differ in pass count: a run that fits
one more pass reads a faster ``pkts_per_s`` from the warmer pass and a
higher ``peak_rss_mb`` from the samples it keeps, whatever the code.
Last, it prints ``bench/compare.py``'s table over the pooled sets, run
from the change's checkout, and exits with its status.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

SIDES = ("parent", "change")


def run_set(checkout: Path, out: Path, args: argparse.Namespace) -> Dict[str, object]:
    """Run ``bench/run.py --repeat 1`` in ``checkout``; return the set it wrote to ``out``."""
    command = [sys.executable, str(checkout / "bench" / "run.py"), "--repeat", "1"]
    command += ["--seed", str(args.seed), "--output", str(out)]
    for name in args.workload or ():
        command += ["--workload", name]
    if args.packets is not None:
        command += ["--packets", str(args.packets)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.traced:
        command.append("--traced")
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if done.returncode == 2 or not out.is_file():
        raise SystemExit(f"bench_pairs: {' '.join(command)} failed (exit {done.returncode})")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def passes(report: Dict[str, object]) -> Dict[str, int]:
    """Workload name -> the pass count of the set's one run."""
    return {name: record["runs"][0]["passes"] for name, record in report["workloads"].items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench_pairs.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("parent", type=Path, help="the parent commit's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--pairs", type=int, required=True, help="parent/change pairs to run")
    parser.add_argument("--seed", type=int, default=2019, help="stream seed (default: 2019)")
    parser.add_argument(
        "--workload", action="append", metavar="NAME", help="run only this workload (repeatable)"
    )
    parser.add_argument("--packets", type=int, default=None, help="packets per cell")
    parser.add_argument("--seconds", type=float, default=None, help="replay time per run")
    parser.add_argument("--traced", action="store_true", help="end each run with a traced pass")
    parser.add_argument("--out", type=Path, default=None, help="directory for the sets")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    out.mkdir(parents=True, exist_ok=True)

    paths: Dict[str, List[str]] = {side: [] for side in SIDES}
    counts: List[Dict[str, Dict[str, int]]] = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        counts.append({})
        for side in order:
            path = out / f"{side}{pair + 1}.json"
            counts[-1][side] = passes(run_set(checkouts[side], path, args))
            paths[side].append(str(path))
            print(f"pair {pair + 1}: {side} done", flush=True)

    print(f"\nsets in {out}\npasses per run (parent / change; * where they differ):")
    for name in counts[0]["parent"]:
        cells = []
        for pair in counts:
            before, after = pair["parent"][name], pair["change"][name]
            cells.append(f"{before}/{after}{'*' if before != after else ''}")
        print(f"  {name:<18}{'  '.join(cells)}")
    print(flush=True)
    compare = [sys.executable, str(checkouts["change"] / "bench" / "compare.py")]
    compare += ["+".join(paths["parent"]), "+".join(paths["change"])]
    return subprocess.run(compare, cwd=checkouts["change"]).returncode


if __name__ == "__main__":
    sys.exit(main())
