"""Compare two benchmark sets written by ``python bench/run.py --output``.

Usage (from the repository root)::

    python bench/compare.py OLD.json NEW.json
    python bench/compare.py p1.json+p2.json+p3.json c1.json+c2.json+c3.json

A side made of several set files joined with ``+`` pools their runs, which
is how alternating parent/change runs are compared.

Prints one row per workload × end-to-end metric: each side's median and
quartiles, the change in percent, and a verdict.  The verdict is

* ``unresolved`` when either side's quartile spread, as a share of its
  median, exceeds the metric's bound — unless every run of NEW reads
  better than every run of OLD, which is ``better``;
* otherwise ``worse`` or ``better`` when the medians differ by more than
  the bound in that direction, else ``same``.

It then says whether each workload's outcome digest matches, and prints
per-layer changes when both sets carry a traced section.  Bounds come from
``BENCHMARK.json``.  Exit status: 0 when nothing got worse and every
digest matches, 1 on a regression beyond a bound or a changed digest, 2
when the sets are not comparable (different seed, packets, seconds or
workloads, or pooled sets whose digests differ).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from run import load_definition, summarise

#: Settings both sets must share for their numbers to be comparable.
SAME_SETTINGS = ("seed", "packets", "seconds")


def verdict(old: Dict[str, object], new: Dict[str, object], metric: Dict[str, object]) -> str:
    """Classify NEW against OLD for one workload × metric."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    sign = 1 if lower else -1
    old_stats, new_stats = old["summary"][name], new["summary"][name]
    old_runs = [run["metrics"][name] for run in old["runs"]]
    new_runs = [run["metrics"][name] for run in new["runs"]]
    spreads = [(s["q3"] - s["q1"]) / s["median"] for s in (old_stats, new_stats)]
    if max(spreads) > bound:
        if lower:
            every_run_better = max(new_runs) < min(old_runs)
        else:
            every_run_better = min(new_runs) > max(old_runs)
        return "better" if every_run_better else "unresolved"
    change = sign * (new_stats["median"] - old_stats["median"]) / old_stats["median"]
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def differences(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """The settings (and the workload list) two sets do not share."""
    mismatched = [key for key in SAME_SETTINGS if a[key] != b[key]]
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        mismatched.append("workloads")
    return mismatched


def compare(old: Dict[str, object], new: Dict[str, object], definition) -> int:
    """Print the comparison table; return the exit status."""
    mismatched = differences(old, new)
    if mismatched:
        print(f"refusing to compare: the sets differ in {', '.join(mismatched)}")
        return 2
    failures = 0
    print(
        f"{'workload':<18}{'metric':<14}{'old median [q1, q3]':>32}"
        f"{'new median [q1, q3]':>32}{'change':>9}  verdict"
    )
    for name, old_record in old["workloads"].items():
        new_record = new["workloads"][name]
        for metric in definition["end_to_end"]:
            cells = []
            for record in (old_record, new_record):
                s = record["summary"][metric["name"]]
                cells.append(f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]")
            old_median = old_record["summary"][metric["name"]]["median"]
            change = new_record["summary"][metric["name"]]["median"] / old_median - 1
            outcome = verdict(old_record, new_record, metric)
            failures += outcome == "worse"
            print(
                f"{name:<18}{metric['name']:<14}{cells[0]:>32}{cells[1]:>32}"
                f"{change:>+9.1%}  {outcome}"
            )
    for name, old_record in old["workloads"].items():
        same = old_record["digest"] == new["workloads"][name]["digest"]
        failures += not same
        print(f"{name}: outcome digest {'matches' if same else 'CHANGED'}")
    for name, old_record in old["workloads"].items():
        old_layers = old_record.get("layers")
        new_layers = new["workloads"][name].get("layers")
        if not old_layers or not new_layers:
            continue
        print(f"\n{name}: per-layer (traced)")
        for layer, before in old_layers.items():
            after = new_layers.get(layer)
            if after is None:
                continue
            change = f"{after / before - 1:+.1%}" if before else "-"
            print(f"  {layer:<44}{before:>12.5g}{after:>12.5g}{change:>9}")
    return 1 if failures else 0


def load_side(paths: str) -> Optional[Dict[str, object]]:
    """Load one side: a set file, or several joined with ``+`` whose runs are pooled.

    Returns None when the pooled sets differ in settings, workloads or digests.
    """
    sets = []
    for path in paths.split("+"):
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    pooled = sets[0]
    for other in sets[1:]:
        mismatched = differences(pooled, other)
        if mismatched:
            print(f"refusing to pool {paths}: the sets differ in {', '.join(mismatched)}")
            return None
        for name, record in other["workloads"].items():
            pooled["workloads"][name]["runs"] += record["runs"]
    for name, record in pooled["workloads"].items():
        if len({run["digest"] for run in record["runs"]}) > 1:
            print(f"refusing to pool {paths}: {name} outcome digests differ between runs")
            return None
        pooled["workloads"][name] = summarise(record["runs"])
    return pooled


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python bench/compare.py OLD.json[+OLD2.json...] NEW.json[+NEW2.json...]")
        return 2
    old, new = load_side(args[0]), load_side(args[1])
    if old is None or new is None:
        return 2
    return compare(old, new, load_definition())


if __name__ == "__main__":
    sys.exit(main())
