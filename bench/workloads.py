"""The benchmark's workloads: which replay cells each one runs, and their set-up.

A *cell* is one stream replayed through one NF (or one service graph)
against its generated contract, exactly as ``python -m repro.cli bench``
replays it: the same geometry (capacity 16, timeout 50, LB table 13 with
4 backends), the same per-cell seed derivation and the same streams.  A
*workload* groups cells that stress the same layers:

* ``flows_zipf`` — skewed repeat flows through the four stateful NFs, so
  about half of the executions find existing flow state (lookup hits);
* ``flows_scan`` — the same NFs under a scan sweep: every frame is a new
  endpoint, so the tables take the insert, allocate and exhaust paths;
* ``stateless_counts`` — router and monitor, whose structures cost a
  constant per call, priced without the cache simulator;
* ``graph_chain`` — the 4-hop LB → NAT → firewall → router graph, the
  only cell with the composed end-to-end check.

Only public APIs are driven (contract generators, workload factories,
``Replayer``/``GraphReplayer``, ``repro.hw`` models); nothing here imports
``repro.cli``.
"""

from __future__ import annotations

import contextlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.hw import ConservativeModel, RealisticModel, SimulatedModel
from repro.net import GraphReplayer
from repro.net.workloads import lb_nat_fw_router_workloads
from repro.nf import (
    bridge_workloads,
    generate_bridge_contract,
    generate_lb_contract,
    generate_nat_contract,
    generate_router_contract,
    lb_workloads,
    nat_workloads,
    router_workloads,
)
from repro.nf.firewall import generate_firewall_contract
from repro.nf.monitor import generate_monitor_contract
from repro.nf.workloads import Workload, firewall_workloads, monitor_workloads
from repro.traffic import Replayer

CAPACITY = 16
TIMEOUT = 50
LB_TABLE_SIZE = 13
LB_MAX_BACKENDS = 4

ALL_MODELS = ("conservative", "realistic", "simulated")
_MODEL_TYPES = {
    "conservative": ConservativeModel,
    "realistic": RealisticModel,
    "simulated": SimulatedModel,
}

#: NF name -> (bench-geometry contract generator, ``(seed, packets)``
#: workload factory).  Each factory builds all five of the NF's streams;
#: a cell keeps the one it replays.
NF_FACTORIES: Dict[str, Tuple[Callable, Callable[[int, int], List[Workload]]]] = {
    "bridge": (
        lambda: generate_bridge_contract(CAPACITY, TIMEOUT),
        lambda seed, packets: bridge_workloads(
            seed=seed, capacity=CAPACITY, timeout=TIMEOUT, packets=packets
        ),
    ),
    "nat": (
        lambda: generate_nat_contract(CAPACITY, TIMEOUT),
        lambda seed, packets: nat_workloads(
            seed=seed, capacity=CAPACITY, timeout=TIMEOUT, packets=packets
        ),
    ),
    "lb": (
        lambda: generate_lb_contract(
            CAPACITY, TIMEOUT, table_size=LB_TABLE_SIZE, max_backends=LB_MAX_BACKENDS
        ),
        lambda seed, packets: lb_workloads(
            seed=seed,
            capacity=CAPACITY,
            timeout=TIMEOUT,
            packets=packets,
            table_size=LB_TABLE_SIZE,
            max_backends=LB_MAX_BACKENDS,
        ),
    ),
    "firewall": (
        lambda: generate_firewall_contract(CAPACITY, TIMEOUT),
        lambda seed, packets: firewall_workloads(
            seed=seed, capacity=CAPACITY, timeout=TIMEOUT, packets=packets
        ),
    ),
    "router": (
        generate_router_contract,
        lambda seed, packets: router_workloads(seed=seed, packets=packets),
    ),
    "monitor": (
        generate_monitor_contract,
        lambda seed, packets: monitor_workloads(seed=seed, packets=packets),
    ),
}

#: The graph cell: its name in ``bench`` and its one workload family.
GRAPH = "lb_nat_fw_router"
GRAPH_FAMILY = "capture"


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: cells ``nfs × families`` priced under ``models``."""

    name: str
    nfs: Tuple[str, ...]
    families: Tuple[str, ...]
    models: Tuple[str, ...]

    @property
    def cells(self) -> List[Tuple[str, str]]:
        return [(nf, family) for nf in self.nfs for family in self.families]


_FLOW_NFS = ("bridge", "nat", "lb", "firewall")

WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("flows_zipf", _FLOW_NFS, ("zipf",), ALL_MODELS),
        WorkloadSpec("flows_scan", _FLOW_NFS, ("scan_sweep",), ALL_MODELS),
        WorkloadSpec(
            "stateless_counts",
            ("router", "monitor"),
            ("uniform", "zipf", "header_flood"),
            ("conservative", "realistic"),
        ),
        WorkloadSpec("graph_chain", (GRAPH,), (GRAPH_FAMILY,), ALL_MODELS),
    )
}

#: Packets per cell, as in ``python -m repro.cli bench``.
PACKETS = 10_000

#: Cell -> node -> input classes the cell must exhibit (node = the NF, or
#: each hop of the graph).  Recorded from the baseline at :data:`PACKETS`
#: packets per cell, identical on seeds 2019 and 7.  Shorter streams
#: cannot reach some of them (table exhaustion needs the full zipf
#: stream), so the check applies at :data:`PACKETS` only.  A missing
#: class fails the run.
EXPECTED_CLASSES_FILE = Path(__file__).resolve().parent / "expected_classes.json"

#: Classes whose execution found existing flow state (a lookup hit).
STATE_HIT_CLASSES = frozenset(
    {
        "hit",
        "internal_existing",
        "external_hit",
        "existing_flow",
        "backend_drained",
        "outbound_established",
        "inbound_established",
    }
)


def cell_seed(seed: int, nf: str, family: str) -> int:
    """The per-cell stream seed ``python -m repro.cli bench`` derives."""
    return zlib.crc32(f"{seed}:{nf}:{family}".encode()) & 0x7FFFFFFF


@dataclass
class Cell:
    """One replay cell, set up and ready to run."""

    name: str
    replayer: object  # Replayer, or GraphReplayer for the graph cell
    stream: Sequence
    #: node name -> classes that node must exhibit (empty: nothing checked).
    expected: Mapping[str, Set[str]]
    schedule: Optional[object] = None

    @property
    def is_graph(self) -> bool:
        return self.schedule is not None

    def replay(self):
        if self.is_graph:
            return self.replayer.replay(self.stream, schedule=self.schedule, workload=self.name)
        return self.replayer.replay(self.stream, workload=self.name)


def _span(tracer, layer: str):
    return tracer.span(layer) if tracer is not None else contextlib.nullcontext()


def setup(spec: WorkloadSpec, seed: int, packets: int, tracer=None) -> List[Cell]:
    """Build every cell of ``spec``: contracts, streams and replayers.

    With a ``tracer``, the set-up layers are recorded as spans and the
    hardware models are handed to it before any replayer compiles them
    (the simulated model's compiled measure binds its cache at build time).
    """
    recorded = json.loads(EXPECTED_CLASSES_FILE.read_text()) if packets == PACKETS else None
    cells: List[Cell] = []
    for nf, family in spec.cells:
        name = f"{nf}/{family}"
        expected = {node: set(c) for node, c in recorded[name].items()} if recorded else {}
        models = tuple(_MODEL_TYPES[model]() for model in spec.models)
        if tracer is not None:
            tracer.instrument_models(models)
        seeded = cell_seed(seed, nf, family)
        if nf == GRAPH:
            with _span(tracer, "workloads.build"):
                workload = next(
                    w for w in lb_nat_fw_router_workloads(seeded, packets) if w.name == family
                )
            with _span(tracer, "replayer.compile"):
                replayer = GraphReplayer(workload.graph, models=models)
            cells.append(Cell(name, replayer, workload.stream, expected, workload.schedule))
            continue
        make_contract, make_workloads = NF_FACTORIES[nf]
        with _span(tracer, "bolt.contract"):
            contract = make_contract()
        with _span(tracer, "workloads.build"):
            workload = next(w for w in make_workloads(seeded, packets) if w.name == family)
        with _span(tracer, "replayer.compile"):
            replayer = Replayer(workload.harness, contract, models=models)
        cells.append(Cell(name, replayer, workload.stimuli, expected))
    return cells
