"""Replay benchmark: end-to-end and per-layer cost of scoring traffic against contracts.

Run from the repository root::

    python bench/run.py                         # every workload, 3 runs each
    python bench/run.py --workload flows_zipf --seed 7
    python bench/run.py --traced                # adds the per-layer table
    python bench/run.py --output set.json       # keep the set for bench/compare.py

Each run replays one workload in a fresh subprocess (``bench/measure.py``),
one run after another, round-robin across workloads: one process, no
threads, no pool.  A run is a closed loop: each cell's pre-built stream is
scored packet after packet as fast as one core allows, for at least
``--seconds`` of replay in whole passes.

Workloads, metric names, units and bounds are read from ``BENCHMARK.json``
at the repository root.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
median of each end-to-end metric, or with ``--trace 1`` each per-layer
one (names prefixed ``<workload>.`` when several workloads ran).  Exit
status: 0 when every run is correct; 1 when a packet violated its
contract, a class was missed or a digest differed; 2 on a usage error or
a run that crashed, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 2019
#: A run that takes longer is killed and counted as crashed.
RUN_TIMEOUT_S = 170


def load_definition() -> Dict[str, object]:
    """The benchmark definition (workloads, metrics, bounds) at the repo root."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def unit_of(metric: str) -> str:
    """A metric's unit, from the words of its name (``interpreter.self_us`` is in µs)."""
    if metric in ("pkts_per_s", "peak_rss_mb"):
        return "pkt/s" if metric == "pkts_per_s" else "MiB"
    words = metric.replace(".", "_").split("_")
    if "us" in words:
        return "us"
    return {"s": "s", "frac": "ratio"}.get(words[-1], "count")


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def run_child(name: str, args: argparse.Namespace) -> Optional[Dict[str, object]]:
    """Run one workload once in a fresh interpreter; None when it crashed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    command = [sys.executable, __file__, "--child", "--workload", name]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    command += ["--trace", str(args.trace)]
    if args.packets is not None:
        command += ["--packets", str(args.packets)]
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"bench: a {name} run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench: a {name} run crashed (exit {done.returncode})", file=sys.stderr)
        return None


def summarise(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Median and quartiles of every metric over one workload's runs."""
    record: Dict[str, object] = {
        "summary": {
            metric: quartiles([run["metrics"][metric] for run in runs])
            for metric in runs[0]["metrics"]
        },
        "digest": runs[0]["digest"],
        "runs": runs,
    }
    if "layers" in runs[0]:
        record["layers"] = {
            layer: statistics.median(run["layers"][layer] for run in runs)
            for layer in runs[0]["layers"]
        }
    return record


def _fmt(value: float) -> str:
    return f"{value:,.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def print_report(report: Dict[str, object]) -> None:
    for name, record in report["workloads"].items():
        runs = record["runs"]
        print(
            f"\n{name}: {len(runs)} run(s) of {runs[0]['passes']} pass(es), "
            f"{runs[0]['attempted'] // runs[0]['passes']:,} packets per pass, "
            f"{runs[0]['exec_samples'] // runs[0]['passes']:,} executions per pass, "
            f"digest {record['digest'][:16]}"
        )
        print(f"  {'metric':<40}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}")
        for metric, stats in record["summary"].items():
            print(
                f"  {metric:<40}{unit_of(metric):<8}{_fmt(stats['median']):>12}"
                f"{_fmt(stats['q1']):>12}{_fmt(stats['q3']):>12}"
            )
        for layer, value in record.get("layers", {}).items():
            print(f"  {layer:<40}{unit_of(layer):<8}{_fmt(value):>12}")
        for run in runs:
            for problem in run["problems"]:
                print(f"  FAIL: {problem}")


def result_line(report: Dict[str, object], definition: Dict[str, object]) -> Dict[str, object]:
    """The closing JSON object: end-to-end medians, or per-layer values when traced."""
    traced = report["trace"] == 1
    listed = definition["per_layer" if traced else "end_to_end"]
    several = len(report["workloads"]) > 1
    metrics: Dict[str, object] = {}
    for name, record in report["workloads"].items():
        for metric in listed:
            key = metric["name"]
            value = record["layers"][key] if traced else record["summary"][key]["median"]
            metrics[f"{name}.{key}" if several else key] = {"value": value, "unit": metric["unit"]}
    runs = [run for record in report["workloads"].values() for run in record["runs"]]
    return {
        "correct": report["correct"],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", metavar="NAME", help="run only this workload (repeatable)"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="stream seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="replay time each run measures at least, in whole passes (default: BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: end each run with a traced pass"
    )
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="--trace 1")
    parser.add_argument(
        "--repeat",
        type=int,
        default=None,
        help="runs per workload (default: 3 for the full untraced set, else 1)",
    )
    parser.add_argument(
        "--packets", type=int, default=None, help="packets per cell (default: 10,000, as in bench)"
    )
    parser.add_argument("--output", metavar="PATH", help="write the set for bench/compare.py")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        from measure import measure

        record = measure(args.workload[0], args.seed, args.packets, args.seconds, args.trace == 1)
        print(json.dumps(record))
        return 0 if record["correct"] else 1

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    definition = load_definition()
    known = [workload["name"] for workload in definition["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown} (known: {known})")
    if min(args.packets or 1, args.repeat or 1) < 1:
        parser.error("--packets and --repeat must be positive")
    if args.seconds is None:
        args.seconds = definition["run_seconds"]
    repeat = args.repeat or (1 if args.workload or args.trace else 3)

    runs: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    for _ in range(repeat):
        for name in names:
            record = run_child(name, args)
            if record is None:
                return 2
            runs[name].append(record)

    report: Dict[str, object] = {
        "schema": "repro-replay-bench/1",
        "seed": args.seed,
        "packets": runs[names[0]][0]["packets_per_cell"],
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {name: summarise(records) for name, records in runs.items()},
    }
    unstable = [name for name, records in runs.items() if len({r["digest"] for r in records}) > 1]
    report["correct"] = not unstable and all(r["correct"] for rs in runs.values() for r in rs)
    print_report(report)
    for name in unstable:
        print(f"FAIL: {name}: outcome digest differs between runs")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    print(json.dumps(result_line(report, definition)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
