"""Command-line entry points: contract validation and the evaluation bench.

``python -m repro.cli [smoke]``
    Runs the full pipeline for everything shipped in the repository and
    prints the artefacts a human (or a CI log reader) needs to spot a
    regression in generated bounds: every library structure's
    hand-derived per-operation contract, and the generated contracts of
    every NF with per-path feasibility.  Fails when an exported structure
    is missing from :func:`smoke_structures` or an NF contract loses an
    input class.

``python -m repro.cli bench``
    Closes the evaluation loop (§5 of the paper): replays uniform, Zipf,
    adversarial, scan-sweep and header-flood workloads through every NF
    in :data:`repro.nf.NF_MATRIX` (bridge, router, NAT, LB, firewall,
    monitor), derives cycle predictions under the conservative, realistic
    and cache-simulated hardware models, asserts **measured ≤ predicted on
    every packet** (counts and cycles), checks that the adversarial
    streams actually drive every instance-qualified PCV to its declared
    bound (and that no stream drives one past it), and writes the whole
    record — including each class's measured p50/p95/p99 cycle tails, as
    report-only data — to a ``BENCH_*.json`` CI archives as an artifact.

    The bench is throughput-grade: each (NF, workload) cell is an
    independent job whose stimuli are derived from a per-cell seed, so
    the matrix fans out across a ``--workers``-sized process pool (default:
    all CPUs) and the report is bit-identical for every worker count.
    Cells record their wall clock and replay rate.  Alongside the per-NF
    cells the bench replays every registered *service graph*
    (:data:`GRAPH_MATRIX`) — every hop checked against its own contract,
    with mid-stream churn — into ``report["graphs"]``; ``--nf`` / ``--graph``
    restrict the matrix to named rows and write a partial report.

``python -m repro.cli graph``
    Replays the registered service graphs on their own (see
    :mod:`repro.net`): a pcap-derived stream enters the graph's entry
    node, every hop is scored against that NF's contract, and the churn
    schedule reconfigures the deployment mid-stream.  Each complete
    journey names a route of the composed contract, which enumerates the
    same routing table the journey follows; its row sums its hops'
    measured and predicted costs, and the per-hop checks imply the route
    bound.  Exits non-zero on any violation or on missing per-hop class
    coverage.

``python -m repro.cli contract-diff``
    The regression gate: regenerates every NF's bench-geometry contract
    plus every service graph's composed contract and diffs them (term by
    term, exact Fractions) against the golden snapshots checked in under
    ``tests/golden/``.  Exits non-zero on any drift, naming the drifted
    classes and the derived-cycle consequence under every hardware model.
    ``--update`` regenerates the goldens — the acknowledgement step for
    an intentional bound change.

``python -m repro.cli ct-audit``
    The constant-time audit: for every NF's declared secret-dependent
    class sets (its descriptor's ``secret_sets``), proves a class pair
    constant-time once, by identical instruction and memory polynomials,
    or reports the leaking pair with each hardware model's symbolic cycle
    delta and a concrete witness.  Exits non-zero when a computed verdict
    contradicts its declared expectation (``--strict``: on any leak).

The smoke structures (:func:`smoke_structures`), the NF matrix
(:data:`repro.nf.NF_MATRIX`, one :class:`~repro.nf.replay.NFSpec`
descriptor per NF) and the graph matrix (:data:`GRAPH_MATRIX`) are
module-level registries: adding a structure, an NF or a graph means
appending one entry, and ``tools/check_docs.py`` walks the same
registries to keep the documentation in sync with what actually runs.

All five subcommands print section by section as output is produced, so
even a crash mid-run leaves the already-validated tables in the job log,
and exit non-zero on any failure so CI fails loudly instead of shipping
silently-changed bounds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.structures as structures_pkg
from repro.audit import audit_contract
from repro.core import Distiller, diff_contracts, dump_contract, load_contract
from repro.core.contract import PerformanceContract
from repro.hw import (
    ConservativeModel,
    CycleModel,
    RealisticModel,
    SimulatedModel,
    model_to_json,
)
from repro.nf import NF_MATRIX
from repro.nf.replay import NFSpec
from repro.nf.workloads import WORKLOAD_NAMES, worst_case_report
from repro.net.replay import GraphReplayer
from repro.net.workloads import (
    GraphWorkload,
    lb_nat_fw_router_workloads,
    lb_nat_router_workloads,
)
from repro.structures import (
    ChainingHashMap,
    CountMinSketch,
    ExpiringMap,
    LpmTrie,
    MaglevTable,
    PortAllocator,
    Structure,
)
from repro.traffic import Replayer

#: Bench defaults: per-workload packet budget, seed and report path.
BENCH_PACKETS = 10_000
BENCH_SEED = 2019
BENCH_OUTPUT = "BENCH_eval.json"
#: Default stream length for the standalone ``graph`` subcommand (the
#: bench replays graphs at the full ``--packets`` budget).
GRAPH_PACKETS = 1_000
#: Where the golden contract snapshots live (``contract-diff`` default).
GOLDEN_DIR = os.path.join("tests", "golden")

#: Every CLI subcommand with its exit-code semantics, in registration
#: order.  ``tools/check_docs.py`` walks this to require a README row per
#: subcommand, so adding one here without documenting it fails CI.
SUBCOMMANDS: Tuple[Tuple[str, str], ...] = (
    ("smoke", "0 = every structure listed and every NF class generated; 1 = any failure"),
    (
        "bench",
        "0 = measured <= predicted everywhere and every bound hit; "
        "1 = violation or missed worst case; 2 = unknown --nf/--graph row",
    ),
    (
        "graph",
        "0 = measured <= predicted at every hop; "
        "1 = violation or missing coverage; 2 = unknown graph",
    ),
    (
        "contract-diff",
        "0 = no drift against the goldens; 1 = any bound drift; 2 = missing golden or unknown name",
    ),
    (
        "ct-audit",
        "0 = every verdict matches its declared expectation; "
        "1 = unexpected leak/proof (or any leak with --strict); 2 = unknown NF",
    ),
)


@dataclass(frozen=True)
class GraphSpec:
    """One service graph's registration with the bench pipeline.

    Attributes:
        name: graph name (bench report key, ``--graph`` filter value).
        title: section title printed by the bench / graph runs.
        bench_workloads: ``(seed, packets) -> [GraphWorkload]`` factory;
            each workload carries a fresh graph, its stream and its churn
            schedule (see :mod:`repro.net.workloads`).
    """

    name: str
    title: str
    bench_workloads: Callable[[int, int], List[GraphWorkload]]


#: The names of the workloads every graph's ``bench_workloads`` returns, in
#: that order; the bench and ``graph`` plan their cells from them.
GRAPH_WORKLOAD_NAMES = ("capture",)

GRAPH_MATRIX: Tuple[GraphSpec, ...] = (
    GraphSpec(
        "lb_nat_router",
        "graph: LB -> NAT -> router ingress pipeline",
        lb_nat_router_workloads,
    ),
    GraphSpec(
        "lb_nat_fw_router",
        "graph: LB -> NAT -> firewall -> router egress pipeline",
        lb_nat_fw_router_workloads,
    ),
)


def smoke_structures() -> List[Structure]:
    """One representative instance per library structure, for the smoke run."""
    return [
        ChainingHashMap("flow_map", capacity=64, value_bound=64),
        ExpiringMap("mac_table", capacity=64, timeout=300, value_bound=64),
        LpmTrie("fib", value_bound=64),
        PortAllocator("nat_ports", pool=range(49152, 49216)),
        MaglevTable("lb_tbl", table_size=13, max_backends=4, value_bound=1 << 16),
        CountMinSketch("flow_sketch", depth=4, width=32, counter_max=255),
    ]


def _section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


# --------------------------------------------------------------------------- #
# smoke: structure + NF contracts
# --------------------------------------------------------------------------- #
def run_structure_contracts() -> int:
    """Render every smoke structure's per-operation contract.

    Fails when a structure was added to the library but forgotten here:
    every exported Structure subclass must be in :func:`smoke_structures`,
    the list ``tools/check_docs.py`` walks.
    """
    structures = smoke_structures()
    exported = {
        cls
        for name in structures_pkg.__all__
        if isinstance(cls := getattr(structures_pkg, name), type)
        and issubclass(cls, Structure)
        and cls is not Structure
    }
    missing = sorted(cls.__name__ for cls in exported - {type(s) for s in structures})
    if missing:
        print(f"FAIL: structures not covered by the smoke run: {missing}")
    for structure in structures:
        _section(f"structure {structure.name} ({structure.kind})")
        print(structure.operation_contract().render())
    return 1 if missing else 0


def run_nf_contracts(specs: Optional[Sequence[NFSpec]] = None) -> int:
    """Generate and render every NF contract; check their input classes."""
    failures = 0
    for spec in [spec for spec, _ in NF_MATRIX] if specs is None else specs:
        _section(spec.title)
        contract = spec.contract()
        print(contract.render())
        feasibility = {path.feasibility for entry in contract for path in entry.paths}
        print(f"path feasibility: {sorted(feasibility)}")
        missing = set(spec.classes) - set(contract.class_names())
        if missing:
            failures += 1
            print(f"FAIL: contract lost input classes {sorted(missing)}")
    return failures


def run_smoke() -> int:
    failures = run_structure_contracts()
    failures += run_nf_contracts()
    print()
    print("SMOKE FAILED" if failures else "SMOKE OK")
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# bench: measured vs predicted under workloads and hardware models
# --------------------------------------------------------------------------- #
def _bench_models() -> List[CycleModel]:
    """Fresh hardware-model instances for one bench cell (or gate run).

    Fresh per call because the simulated model carries cache state: a
    shared instance would leak one cell's working set into the next cell
    and break the report's worker-count bit-identity.
    """
    return [ConservativeModel(), RealisticModel(), SimulatedModel()]


def _cell_seed(seed: int, nf_name: str, workload_name: str) -> int:
    """Derive one bench cell's workload seed.

    A cell's stimuli depend only on the bench seed and the cell's own
    identity — never on which worker ran it or in what order — so the
    report is bit-identical for every ``--workers`` value.
    """
    return zlib.crc32(f"{seed}:{nf_name}:{workload_name}".encode()) & 0x7FFFFFFF


#: One bench cell's shipping form: ``(kind, name, workload, seed, packets)``
#: where ``kind`` is ``"nf"`` or ``"graph"``.  Specs hold closures and
#: models hold cache state, so the pool ships plain tuples and each worker
#: rebuilds the spec by name and its models fresh.
BenchTask = Tuple[str, str, str, int, int]


def _bench_cell(task: BenchTask) -> Dict[str, object]:
    """Run one bench cell (either kind); return a picklable summary.

    Runs in a pool worker: everything destined for the terminal comes
    back as ``text`` so the parent prints cells in matrix order
    regardless of completion order.
    """
    if task[0] == "graph":
        return _graph_cell(task)
    return _nf_cell(task)


def _nf_cell(task: BenchTask) -> Dict[str, object]:
    """Run one (NF, workload) bench cell."""
    _, nf_name, workload_name, seed, packets = task
    spec, factory = next(row for row in NF_MATRIX if row[0].name == nf_name)
    contract = spec.contract(**spec.bench)
    workloads = factory(
        seed=_cell_seed(seed, nf_name, workload_name), packets=packets, **spec.bench
    )
    workload = next(workload for workload in workloads if workload.name == workload_name)
    started = time.perf_counter()
    result = Replayer(workload.harness, contract, models=_bench_models()).replay(
        workload.stimuli, workload=workload.name
    )
    wall = max(time.perf_counter() - started, 1e-9)
    failures = len(result.violations)
    lines = [
        "",
        result.table(),
        f"  throughput: {result.packets} packets in {wall:.3f}s "
        f"({result.packets / wall:,.0f} pkt/s)",
    ]
    for message in result.violations[:10]:
        lines.append(f"FAIL: {message}")
    payload = result.to_json()
    if workload.expected_worst:
        worst = worst_case_report(result.max_pcvs, workload.expected_worst)
        payload["worst_case"] = worst
        for pcv, check in worst.items():
            status = "hit" if check["hit"] else "MISSED"
            lines.append(
                f"  adversarial worst case for {pcv}: observed "
                f"{check['observed']} / bound {check['bound']} -> {status}"
            )
            if not check["hit"]:
                failures += 1
    payload["wall_clock_s"] = round(wall, 6)
    payload["packets_per_sec"] = round(result.packets / wall, 3)
    return {
        "workload": workload_name,
        "payload": payload,
        "text": "\n".join(lines),
        "classes": sorted(name for name in result.classes_seen() if name != "<unclassified>"),
        "failures": failures,
        "packets": result.packets,
        "wall_clock_s": wall,
    }


def _graph_cell(task: BenchTask) -> Dict[str, object]:
    """Run one (graph, workload) bench cell: graph replay with churn.

    Violations (a hop exceeding its own contract) and missing per-hop
    class coverage both count as failures.
    """
    _, graph_name, workload_name, seed, packets = task
    spec = next(spec for spec in GRAPH_MATRIX if spec.name == graph_name)
    workloads = spec.bench_workloads(_cell_seed(seed, graph_name, workload_name), packets)
    workload = next(workload for workload in workloads if workload.name == workload_name)
    started = time.perf_counter()
    replayer = GraphReplayer(workload.graph, models=_bench_models())
    result = replayer.replay(
        workload.stream, schedule=workload.schedule, workload=workload.name
    )
    wall = max(time.perf_counter() - started, 1e-9)
    failures = len(result.violations)
    lines = [
        "",
        result.table(),
        f"  throughput: {result.packets} packets ({result.hop_executions} hop "
        f"executions) in {wall:.3f}s ({result.packets / wall:,.0f} pkt/s)",
    ]
    for message in result.violations[:10]:
        lines.append(f"FAIL: {message}")
    seen = result.hop_classes_seen()
    for node, expected in sorted(workload.expected_hop_classes.items()):
        missing = sorted(set(expected) - set(seen.get(node, [])))
        if missing:
            failures += 1
            lines.append(f"FAIL: hop {node!r} never exercised classes {missing}")
    payload = result.to_json()
    payload["wall_clock_s"] = round(wall, 6)
    payload["packets_per_sec"] = round(result.packets / wall, 3)
    return {
        "workload": workload_name,
        "payload": payload,
        "text": "\n".join(lines),
        "classes": [],
        "hop_classes": seen,
        "failures": failures,
        "packets": result.packets,
        "wall_clock_s": wall,
    }


def _run_cells(tasks: List[BenchTask], workers: int) -> List[Dict[str, object]]:
    """Run bench cells, fanning out across processes when it can help.

    Fork is required (not just preferred): workers must see the parent's
    live registry — tests swap :data:`NF_MATRIX` for doctored specs — and
    a spawned interpreter would re-import the pristine module.  Without
    fork (or with one worker) the cells run inline, in order.
    """
    if workers > 1 and len(tasks) > 1 and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        with context.Pool(min(workers, len(tasks))) as pool:
            return pool.map(_bench_cell, tasks)
    return [_bench_cell(task) for task in tasks]


def run_bench(
    *,
    output: str = BENCH_OUTPUT,
    packets: int = BENCH_PACKETS,
    seed: int = BENCH_SEED,
    workers: Optional[int] = None,
    nfs: Optional[Sequence[str]] = None,
    graphs: Optional[Sequence[str]] = None,
) -> int:
    """Replay every NF and service graph; write the BENCH_*.json report.

    ``nfs`` / ``graphs`` restrict the matrix to the named rows (the
    ``--nf`` / ``--graph`` flags): naming either makes the run *partial*
    — only named rows of either kind execute, and the report records the
    filters so consumers can tell a partial artifact from a full one.
    """
    started = time.perf_counter()
    workers = max(1, workers if workers is not None else os.cpu_count() or 1)
    unknown = sorted(set(nfs or ()) - {spec.name for spec, _ in NF_MATRIX})
    unknown += sorted(set(graphs or ()) - {spec.name for spec in GRAPH_MATRIX})
    if unknown:
        print(f"FAIL: unknown bench rows {unknown}")
        return 2
    filtered = nfs is not None or graphs is not None
    nf_selected = [
        spec for spec, _ in NF_MATRIX if not filtered or (nfs and spec.name in set(nfs))
    ]
    graph_selected = [
        spec for spec in GRAPH_MATRIX if not filtered or (graphs and spec.name in set(graphs))
    ]
    # Cells are planned from the declared workload names; each cell
    # builds its own stream.
    tasks: List[BenchTask] = [
        ("nf", spec.name, name, seed, packets) for spec in nf_selected for name in WORKLOAD_NAMES
    ]
    tasks += [
        ("graph", spec.name, name, seed, packets)
        for spec in graph_selected
        for name in GRAPH_WORKLOAD_NAMES
    ]
    if not tasks:
        print("FAIL: the --nf/--graph filters selected no bench rows")
        return 2
    cells = _run_cells(tasks, workers)
    models = _bench_models()

    report: Dict[str, object] = {
        "schema": "repro-bench/1",
        "command": "python -m repro.cli bench",
        "seed": seed,
        "packets_per_workload": packets,
        "filters": {"nfs": sorted(nfs or ()), "graphs": sorted(graphs or ())},
        "hw_models": {model.name: model_to_json(model) for model in models},
        "nfs": {},
        "graphs": {},
    }
    failures = 0
    total_packets = 0
    cursor = 0
    for spec in nf_selected:
        _section(f"bench: {spec.title.removeprefix('NF: ')}")
        contract = spec.contract(**spec.bench)
        record: Dict[str, object] = {"contract_classes": contract.class_names(), "workloads": {}}
        classes_seen: set = set()
        nf_failures = 0
        for _ in WORKLOAD_NAMES:
            cell = cells[cursor]
            cursor += 1
            print(cell["text"])
            record["workloads"][cell["workload"]] = cell["payload"]  # type: ignore[index]
            classes_seen.update(cell["classes"])  # type: ignore[arg-type]
            nf_failures += cell["failures"]  # type: ignore[operator]
            total_packets += cell["packets"]  # type: ignore[operator]
        missing = set(spec.classes) - classes_seen
        if missing:
            nf_failures += 1
            print(f"FAIL: {spec.name} workloads never exercised classes {sorted(missing)}")
        record["classes_seen"] = sorted(classes_seen)
        record["failures"] = nf_failures
        failures += nf_failures
        # Show what the hardware models make of the contract, distilled.
        structures = spec.structures(**spec.bench)
        for model in models:
            distilled = Distiller(contract).distill_cycles(model, structures=structures)
            print()
            print(distilled.render())
        report["nfs"][spec.name] = record  # type: ignore[index]

    for spec in graph_selected:
        _section(f"bench: {spec.title.removeprefix('graph: ')}")
        record = {"workloads": {}}
        hop_classes: Dict[str, set] = {}
        graph_failures = 0
        for _ in GRAPH_WORKLOAD_NAMES:
            cell = cells[cursor]
            cursor += 1
            print(cell["text"])
            record["workloads"][cell["workload"]] = cell["payload"]  # type: ignore[index]
            for node, classes in cell["hop_classes"].items():  # type: ignore[union-attr]
                hop_classes.setdefault(node, set()).update(classes)
            graph_failures += cell["failures"]  # type: ignore[operator]
            total_packets += cell["packets"]  # type: ignore[operator]
        record["hop_classes_seen"] = {
            node: sorted(classes) for node, classes in sorted(hop_classes.items())
        }
        record["failures"] = graph_failures
        failures += graph_failures
        report["graphs"][spec.name] = record  # type: ignore[index]

    elapsed = max(time.perf_counter() - started, 1e-9)
    # Timing lives under one key so consumers comparing reports across
    # worker counts can drop the only legitimately varying subtree.
    report["timing"] = {
        "packets_total": total_packets,
        "packets_per_sec": round(total_packets / elapsed, 3),
        "wall_clock_s": round(elapsed, 6),
        "workers": workers,
    }
    report["ok"] = failures == 0
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print(
        f"replayed {total_packets} packets in {elapsed:.2f}s "
        f"({total_packets / elapsed:,.0f} pkt/s, workers={workers})"
    )
    print(f"wrote {output}")
    print("BENCH FAILED" if failures else "BENCH OK: measured <= predicted on every packet")
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# graph: standalone service-graph replay
# --------------------------------------------------------------------------- #
def run_graph(
    *,
    graph: Optional[str] = None,
    packets: int = GRAPH_PACKETS,
    seed: int = BENCH_SEED,
    output: Optional[str] = None,
) -> int:
    """Replay the registered service graphs, with churn.

    Prints each graph's per-route table (each row the sum of its hops),
    throughput and the head of its churn log; optionally writes the full
    per-workload payloads to ``output``.  Exits non-zero on any per-hop
    violation, or when a hop misses its expected input-class coverage.
    """
    specs = [spec for spec in GRAPH_MATRIX if graph is None or spec.name == graph]
    if not specs:
        known = ", ".join(spec.name for spec in GRAPH_MATRIX)
        print(f"FAIL: unknown graph {graph!r} (registered: {known})")
        return 2
    failures = 0
    report: Dict[str, object] = {}
    for spec in specs:
        _section(spec.title)
        record: Dict[str, object] = {}
        for name in GRAPH_WORKLOAD_NAMES:
            cell = _graph_cell(("graph", spec.name, name, seed, packets))
            print(cell["text"])
            churn = cell["payload"]["churn"]  # type: ignore[index]
            for line in churn["log"][:8]:
                print(f"  churn {line}")
            if churn["events"] > 8:
                print(f"  ... {churn['events'] - 8} more churn events")
            failures += cell["failures"]  # type: ignore[operator]
            record[name] = cell["payload"]
        report[spec.name] = record
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {output}")
    print()
    print(
        "GRAPH FAILED"
        if failures
        else "GRAPH OK: measured <= predicted at every hop; every journey is a composed route"
    )
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# contract-diff: golden-contract regression gate
# --------------------------------------------------------------------------- #
def _gate_targets(
    names: Optional[Sequence[str]] = None,
) -> List[Tuple[str, PerformanceContract, Tuple[Structure, ...]]]:
    """Regenerate every gated contract at bench geometry.

    One target per NF in :data:`NF_MATRIX` (its bench contract) plus one
    per service graph in :data:`GRAPH_MATRIX` (its *composed* contract,
    one entry per reachable route).  Each target ships the structure
    instances behind its PCVs so cycle deltas price memory per owner.
    """
    selected = set(names) if names else None
    targets: List[Tuple[str, PerformanceContract, Tuple[Structure, ...]]] = []
    for spec, _ in NF_MATRIX:
        if selected is not None and spec.name not in selected:
            continue
        targets.append(
            (spec.name, spec.contract(**spec.bench), spec.structures(**spec.bench))
        )
    for spec in GRAPH_MATRIX:
        if selected is not None and spec.name not in selected:
            continue
        graph = spec.bench_workloads(_cell_seed(BENCH_SEED, spec.name, "<gate>"), 1)[0].graph
        targets.append((spec.name, graph.compose(), graph.structures()))
    return targets


def run_contract_diff(
    *,
    golden_dir: str = GOLDEN_DIR,
    update: bool = False,
    names: Optional[Sequence[str]] = None,
) -> int:
    """Diff freshly generated contracts against the checked-in goldens.

    With ``--update``, (re)write the goldens instead — the acknowledgement
    step for an *intentional* bound change.  Exit codes: 0 no drift,
    1 any drift (the drifted classes are named), 2 a golden file is
    missing or a ``--nf`` name is unknown.
    """
    known = {spec.name for spec, _ in NF_MATRIX} | {spec.name for spec in GRAPH_MATRIX}
    unknown = sorted(set(names or ()) - known)
    if unknown:
        print(f"FAIL: unknown contract-diff targets {unknown} (known: {sorted(known)})")
        return 2
    targets = _gate_targets(names)
    if update:
        os.makedirs(golden_dir, exist_ok=True)
        for name, contract, _ in targets:
            path = os.path.join(golden_dir, f"{name}.json")
            dump_contract(contract, path)
            print(f"wrote golden contract {path} ({len(contract)} classes)")
        return 0
    models = _bench_models()
    drifted = 0
    missing = 0
    for name, contract, structures in targets:
        _section(f"contract-diff: {name}")
        path = os.path.join(golden_dir, f"{name}.json")
        if not os.path.exists(path):
            missing += 1
            print(
                f"FAIL: no golden contract at {path} "
                "(run `python -m repro.cli contract-diff --update` and commit it)"
            )
            continue
        diff = diff_contracts(load_contract(path), contract, models=models, structures=structures)
        print(diff.render())
        if not diff.ok:
            drifted += 1
            names = diff.worsened_classes or sorted(d.class_name for d in diff.drifted)
            print(f"drifted classes: {names}")
    print()
    if missing:
        print("CONTRACT DIFF FAILED: goldens missing")
        return 2
    print(
        "CONTRACT DIFF FAILED: bounds drifted against the goldens "
        "(intentional? regenerate with --update and commit)"
        if drifted
        else "CONTRACT DIFF OK: every contract matches its golden"
    )
    return 1 if drifted else 0


# --------------------------------------------------------------------------- #
# ct-audit: constant-time audit of secret-dependent input classes
# --------------------------------------------------------------------------- #
def run_ct_audit(*, names: Optional[Sequence[str]] = None, strict: bool = False) -> int:
    """Audit every NF's secret class sets; price each leak per hardware model.

    A pair proven constant-time is a *polynomial* identity of its
    instruction and memory bounds, so its cycle bound is the same for
    both classes under every model.

    Exit codes: 0 every computed verdict matches its declared expectation
    (known leaks stay documented, claimed constant-time pairs stay
    proven), 1 a verdict contradicts its declaration — or, with
    ``--strict``, any leak at all — and 2 an unknown ``--nf`` name.
    """
    known = {spec.name for spec, _ in NF_MATRIX}
    unknown = sorted(set(names or ()) - known)
    if unknown:
        print(f"FAIL: unknown NFs {unknown} (known: {sorted(known)})")
        return 2
    models = _bench_models()
    failures = 0
    audited = 0
    for spec, _ in NF_MATRIX:
        if names and spec.name not in set(names):
            continue
        _section(f"ct-audit: {spec.name}")
        if not spec.secret_sets:
            print(f"no secret class sets declared for {spec.name}")
            continue
        contract = spec.contract(**spec.bench)
        findings = audit_contract(
            contract,
            spec.secret_sets,
            models=models,
            structures=spec.structures(**spec.bench),
        )
        for finding in findings:
            audited += 1
            for line in finding.render(contract.registry):
                print(line)
            if not finding.matches_expectation:
                failures += 1
                print(
                    f"FAIL: {spec.name}/{finding.secret_set.name} is "
                    f"{finding.verdict} but declared "
                    f"{finding.secret_set.expectation} — update the "
                    f"secret_sets of repro.nf.{spec.name} if this is intentional"
                )
            elif strict and finding.leaks:
                failures += 1
                print(f"FAIL (--strict): {spec.name}/{finding.secret_set.name} leaks")
    print()
    print(
        "CT AUDIT FAILED"
        if failures
        else f"CT AUDIT OK: {audited} secret class sets match their declarations"
    )
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="BOLT reproduction: contract validation and evaluation bench.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("smoke", help="validate structure and NF contracts (default)")
    bench = sub.add_parser("bench", help="measured-vs-predicted evaluation bench")
    bench.add_argument("--output", default=BENCH_OUTPUT, help="report path (BENCH_*.json)")
    bench.add_argument(
        "--packets", type=int, default=BENCH_PACKETS, help="packets per uniform/zipf workload"
    )
    bench.add_argument("--seed", type=int, default=BENCH_SEED, help="workload RNG seed")
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="bench cells run in parallel (default: all CPUs); the report "
        "is bit-identical for every value",
    )
    bench.add_argument(
        "--nf",
        action="append",
        metavar="NAME",
        help="bench only this NF (repeatable; makes the report partial)",
    )
    bench.add_argument(
        "--graph",
        action="append",
        metavar="NAME",
        help="bench only this service graph (repeatable; makes the report partial)",
    )
    graph = sub.add_parser(
        "graph", help="end-to-end service-graph replay with mid-stream churn"
    )
    graph.add_argument(
        "--graph", default=None, metavar="NAME", help="graph name (default: all registered)"
    )
    graph.add_argument(
        "--packets", type=int, default=GRAPH_PACKETS, help="stream length to replay"
    )
    graph.add_argument("--seed", type=int, default=BENCH_SEED, help="cell seed")
    graph.add_argument(
        "--output", default=None, help="optionally write the replay payloads as JSON"
    )
    diff = sub.add_parser(
        "contract-diff",
        help="diff regenerated contracts against the golden snapshots",
    )
    diff.add_argument(
        "--golden",
        default=GOLDEN_DIR,
        metavar="DIR",
        help=f"golden snapshot directory (default: {GOLDEN_DIR})",
    )
    diff.add_argument(
        "--update",
        action="store_true",
        help="regenerate the goldens (acknowledge an intentional bound change)",
    )
    diff.add_argument(
        "--nf",
        action="append",
        metavar="NAME",
        help="diff only this NF or graph (repeatable; default: all)",
    )
    audit = sub.add_parser(
        "ct-audit",
        help="constant-time audit: prove or refute class cycle-indistinguishability",
    )
    audit.add_argument(
        "--nf",
        action="append",
        metavar="NAME",
        help="audit only this NF (repeatable; default: all)",
    )
    audit.add_argument(
        "--strict",
        action="store_true",
        help="fail on any leak, even ones declared as accepted",
    )
    args = parser.parse_args(argv)
    if args.command == "bench":
        return run_bench(
            output=args.output,
            packets=args.packets,
            seed=args.seed,
            workers=args.workers,
            nfs=args.nf,
            graphs=args.graph,
        )
    if args.command == "graph":
        return run_graph(
            graph=args.graph,
            packets=args.packets,
            seed=args.seed,
            output=args.output,
        )
    if args.command == "contract-diff":
        return run_contract_diff(golden_dir=args.golden, update=args.update, names=args.nf)
    if args.command == "ct-audit":
        return run_ct_audit(names=args.nf, strict=args.strict)
    return run_smoke()


if __name__ == "__main__":
    sys.exit(main())
