"""The shipped service graphs: LB → NAT → (firewall →) router pipelines.

This module is to :mod:`repro.net` what :mod:`repro.nf.workloads` is to
the single-NF bench: it supplies what only the deployment can know — the
topology, each hop's ingress adapter, the capture the stream derives
from, and the churn schedule that reconfigures the deployment mid-run.

The 3-hop graph models a classic ingress pipeline:

* ``lb`` — Maglev-style L4 balancer at the edge; data frames that select
  a backend (``new_flow`` / ``existing_flow`` / ``backend_drained``)
  forward to the NAT, everything else (drops, control acks) terminates.
* ``nat`` — VigNAT-style translator; LAN-side flows that lease or
  refresh a port (``internal_new`` / ``internal_existing``) forward to
  the router.
* ``router`` — static LPM router; every class terminates (it is the
  egress hop).

The 4-hop graph (``lb_nat_fw_router``) slots a connection-tracking
firewall between the NAT and the router: translated flows must be
admitted (``outbound_new``) or ride the established fast path
(``outbound_established``) before they are routed.  The NAT rewrites the
source port per lease, so every fresh lease is a fresh connection at the
firewall — its slot pool is sized like the NAT's port pool for the same
reason (lifetime leases under a looping capture).

The stream comes from ``captures/graph_mix.pcap``, a 32-frame synthetic
capture generated by :func:`graph_mix_capture` (and regenerated by
``tools/make_captures.py``; a test asserts the checked-in bytes match the
builder).  The capture is looped with a monotonic tick clock
(:func:`repro.traffic.pcap.sample_capture`) to any requested length, and
:func:`graph_churn_schedule` pins churn to fixed stream indices: backend
activation after the first (dropped) frames, a drain/re-add pair that
forces ``backend_drained``, a host-side route install that flips one
flow from ``no_route`` to ``routed``, an expiry-sweep time jump — plus
periodic drain/re-add and expiry events so long runs keep churning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import FrozenSet, List, Mapping, Tuple

from repro.nf import firewall as firewall_nf
from repro.nf import lb as lb_nf
from repro.nf import nat as nat_nf
from repro.nf.firewall import FIREWALL
from repro.nf.lb import LB
from repro.nf.nat import NAT
from repro.nf.replay import NFSpec
from repro.nf.router import ROUTER
from repro.net.churn import (
    ChurnSchedule,
    backend_add,
    backend_remove,
    expiry_jump,
    route_update,
)
from repro.net.graph import Graph, IngressFn, Link, Node
from repro.net.replay import GraphFrame
from repro.structures import MaglevTable
from repro.traffic.generators import Stimulus
from repro.traffic.packets import nat_frame
from repro.traffic.pcap import Capture, CapturedPacket, read_pcap, sample_capture

__all__ = [
    "GRAPH_BACKENDS",
    "GRAPH_FIXTURE",
    "GraphWorkload",
    "expected_fw_hop_classes",
    "expected_hop_classes",
    "graph_churn_schedule",
    "graph_mix_capture",
    "graph_stream",
    "lb_nat_fw_router_graph",
    "lb_nat_fw_router_workloads",
    "lb_nat_router_graph",
    "lb_nat_router_workloads",
    "load_graph_capture",
]

# Every hop runs at its NF's bench geometry (``NFSpec.bench``); the
# constants below are this deployment's own choices.

#: The LB's backend pool, activated by churn control frames at stream
#: index 2 — the frames before that are deliberately dropped
#: (``no_backends``).
GRAPH_BACKENDS: Tuple[int, ...] = (33, 44, 55, 66)
#: The NAT's lease pool: large, because graph streams loop a capture for
#: thousands of packets and expired flows that return lease *fresh* ports
#: (the allocator never frees) — a bench-sized pool would run dry and
#: collapse every route into ``no_ports``.
GRAPH_POOL = range(49152, 49152 + 8192)
#: The firewall's slot pool in the 4-hop graph, sized like the NAT's
#: port pool: every fresh NAT lease is a fresh connection downstream, so
#: the two pools drain in lockstep.
GRAPH_FW_SLOTS = range(1, 1 + 8192)
#: Checked-in fixture the graph stream derives from.
GRAPH_FIXTURE = "graph_mix.pcap"
#: Tick gap between consecutive capture records (1 tick = 1 ms at the
#: default quantisation).
FRAME_GAP_TICKS = 2

# --------------------------------------------------------------------------- #
# The capture fixture
# --------------------------------------------------------------------------- #
#: LAN-side flows of the fixture: (source address, source port, dest
#: address, TTL).  Destinations exercise all three router outcomes:
#: 198.51.100.1 and 10.20.30.77 are routed, 203.0.113.9 has no route
#: until churn installs one, and the TTL-1 flow expires at the router.
_FLOW_A = (0x0A000001, 5001, 0xC6336401, 64)
_FLOW_B = (0x0A000002, 5002, 0xC6336401, 64)
_FLOW_C = (0x0A000003, 5003, 0xC6336401, 64)
_FLOW_D = (0x0A000004, 5004, 0x0A141E4D, 64)
_FLOW_E = (0x0A000005, 5005, 0xCB007109, 64)
_FLOW_F = (0x0A000006, 5006, 0xC6336401, 1)

#: The route churn installs mid-run (covers flow E's 203.0.113.9).
CHURN_ROUTE = (0xCB007100, 24, 3)
#: The router's static FIB at deployment time.
GRAPH_ROUTES: Tuple[Tuple[int, int, int], ...] = (
    (0xC6336400, 24, 1),  # 198.51.100.0/24 — the WAN server's subnet
    (0x0A000000, 8, 2),  # 10.0.0.0/8 — hairpin back into the LAN
)


def _flow_frame(flow: Tuple[int, int, int, int]) -> bytes:
    src, sport, dst, ttl = flow
    return nat_frame(src, sport, dst, 80, ttl=ttl)


def _flow_key(flow: Tuple[int, int, int, int]) -> int:
    """The (src addr << 16 | src port) key the LB and NAT derive."""
    return (flow[0] << 16) | flow[1]


def graph_mix_capture() -> Capture:
    """Build the fixture capture, deterministically (no RNG, no clock).

    32 frames, one every :data:`FRAME_GAP_TICKS` milliseconds, chosen so
    that one revolution — interleaved with the fixed churn events of
    :func:`graph_churn_schedule` — covers every reachable input class of
    every hop: the leading frames arrive before any backend is active
    (``no_backends``), truncated and non-IPv4 frames terminate at the LB,
    flow E is unroutable until churn installs its route, and flow F
    carries TTL 1 so the router expires it.
    """
    mix: List[bytes] = [
        _flow_frame(_FLOW_A),  # 0: no backends yet -> dropped
        _flow_frame(_FLOW_B),  # 1: no backends yet -> dropped
        _flow_frame(_FLOW_A),  # 2: new_flow (churn added backends)
        _flow_frame(_FLOW_A),  # 3: existing_flow
        _flow_frame(_FLOW_B),  # 4: new_flow
        _flow_frame(_FLOW_A)[:20],  # 5: truncated -> short
        nat_frame(*_FLOW_A[:2], _FLOW_A[2], 80, ethertype=(0x86, 0xDD)),  # 6: non_ip
        _flow_frame(_FLOW_C),  # 7: new_flow
        _flow_frame(_FLOW_A),  # 8: existing_flow
        _flow_frame(_FLOW_A),  # 9: backend_drained (churn drained its backend)
        _flow_frame(_FLOW_B),  # 10: existing_flow (churn re-added the backend)
        _flow_frame(_FLOW_E),  # 11: router has no route yet -> no_route
        _flow_frame(_FLOW_E),  # 12: churn installed the route -> routed
        _flow_frame(_FLOW_F),  # 13: TTL 1 -> ttl_expired at the router
        _flow_frame(_FLOW_D),  # 14: new_flow -> routed via 10/8
        _flow_frame(_FLOW_F),  # 15: existing_flow -> ttl_expired again
        _flow_frame(_FLOW_A),  # 16: after the expiry jump -> new_flow again
        _flow_frame(_FLOW_B),  # 17: new_flow after expiry
        _flow_frame(_FLOW_C),  # 18: new_flow after expiry
        _flow_frame(_FLOW_D),  # 19: new_flow after expiry
        _flow_frame(_FLOW_B)[:11],  # 20: truncated -> short
        nat_frame(*_FLOW_C[:2], _FLOW_C[2], 80, ethertype=(0x86, 0xDD)),  # 21: non_ip
        _flow_frame(_FLOW_A),  # 22
        _flow_frame(_FLOW_E),  # 23: routed (route persists)
        _flow_frame(_FLOW_F),  # 24: ttl_expired
        _flow_frame(_FLOW_B),  # 25
        _flow_frame(_FLOW_C),  # 26
        _flow_frame(_FLOW_D),  # 27
        _flow_frame(_FLOW_A),  # 28
        _flow_frame(_FLOW_E),  # 29
        _flow_frame(_FLOW_B),  # 30
        _flow_frame(_FLOW_C),  # 31
    ]
    packets = []
    for index, data in enumerate(mix):
        tick = index * FRAME_GAP_TICKS  # 1 tick = 1 ms at TICK_HZ
        packets.append(
            CapturedPacket(data=data, ts_sec=tick // 1000, ts_usec=(tick % 1000) * 1000)
        )
    return Capture(packets=tuple(packets))


def load_graph_capture() -> Capture:
    """Read the checked-in fixture from the package data."""
    blob = resources.files("repro.net.captures").joinpath(GRAPH_FIXTURE).read_bytes()
    return read_pcap(blob)


# --------------------------------------------------------------------------- #
# The graph
# --------------------------------------------------------------------------- #
def _lb_ingress(packet: bytes, time: int) -> Stimulus:
    """Entry hop: every stream frame is a data frame (churn injects the
    control frames), so ``cmd``/``arg`` pin to the data-plane values."""
    return Stimulus(
        packet=packet,
        scalars={"cmd": lb_nf.CMD_DATA, "arg": 0, "time": time},
        note="lb",
    )


def _nat_ingress(packet: bytes, time: int) -> Stimulus:
    """Frames arriving from the LB are LAN-side traffic heading out."""
    return Stimulus(
        packet=packet,
        scalars={"in_port": nat_nf.LAN_PORT, "time": time},
        note="nat",
    )


def _router_ingress(packet: bytes, time: int) -> Stimulus:
    """The router consumes packet bytes only (its one scalar is len)."""
    return Stimulus(packet=packet, note="router")


def _fw_ingress(packet: bytes, time: int) -> Stimulus:
    """Frames arriving from the NAT are LAN-side traffic heading out."""
    return Stimulus(
        packet=packet,
        scalars={"in_port": firewall_nf.LAN_PORT, "time": time},
        note="fw",
    )


def _node(
    spec: NFSpec,
    name: str,
    ingress: IngressFn,
    **state: object,
) -> Node:
    """One hop: a fresh ``spec`` at its bench geometry plus ``state``."""
    return Node(
        name=name,
        harness=spec.harness(**spec.bench, **state),
        contract=spec.contract(**spec.bench),
        ingress=ingress,
    )


def _lb_nat_router_nodes() -> Tuple[Node, Node, Node]:
    """The LB, NAT and router hops both shipped graphs deploy, fresh."""
    return (
        _node(LB, "lb", _lb_ingress),
        _node(NAT, "nat", _nat_ingress, pool=GRAPH_POOL),
        _node(ROUTER, "router", _router_ingress, routes=GRAPH_ROUTES),
    )


def lb_nat_router_graph() -> Graph:
    """Build the shipped 3-hop graph with fresh state and fresh contracts.

    Structure instance names (``lb_tbl``/``conn``, ``fwd``/``rev``/
    ``ports``, ``rt``) are pairwise distinct across the NFs — the
    precondition :class:`~repro.net.graph.Graph` enforces so a route's
    merged PCV observations never collide.
    """
    return Graph(
        "lb_nat_router",
        nodes=_lb_nat_router_nodes(),
        links=(
            Link("lb", "nat", frozenset({"new_flow", "existing_flow", "backend_drained"})),
            Link("nat", "router", frozenset({"internal_new", "internal_existing"})),
        ),
        entry="lb",
    )


def lb_nat_fw_router_graph() -> Graph:
    """Build the 4-hop egress pipeline: LB → NAT → firewall → router.

    The firewall hop runs at its bench geometry like every other hop; its
    instance names (``fw_conn``/``fw_slots``) are disjoint from every
    other hop's, which is what lets the same NF library compose into
    deeper graphs without PCV aliasing.  Only admitted connections
    (``outbound_new`` / ``outbound_established``) reach the router.
    """
    lb_node, nat_node, router_node = _lb_nat_router_nodes()
    fw_node = _node(FIREWALL, "fw", _fw_ingress, slots=GRAPH_FW_SLOTS)
    return Graph(
        "lb_nat_fw_router",
        nodes=(lb_node, nat_node, fw_node, router_node),
        links=(
            Link("lb", "nat", frozenset({"new_flow", "existing_flow", "backend_drained"})),
            Link("nat", "fw", frozenset({"internal_new", "internal_existing"})),
            Link("fw", "router", frozenset({"outbound_new", "outbound_established"})),
        ),
        entry="lb",
    )


def expected_hop_classes() -> Mapping[str, FrozenSet[str]]:
    """Input classes each hop must exhibit when the full fixture replays.

    The LB (entry hop) sees its whole contract; the NAT only ever sees
    forwarded LAN-side data frames, the router only well-formed IPv4 —
    upstream hops have already dropped everything else.
    """
    return {
        "lb": frozenset(
            {
                "reconfig",
                "short",
                "non_ip",
                "new_flow",
                "existing_flow",
                "backend_drained",
                "no_backends",
            }
        ),
        "nat": frozenset({"internal_new", "internal_existing"}),
        "router": frozenset({"routed", "no_route", "ttl_expired"}),
    }


def expected_fw_hop_classes() -> Mapping[str, FrozenSet[str]]:
    """Per-hop coverage for the 4-hop graph.

    Upstream hops behave exactly as in the 3-hop pipeline; the firewall
    sees only translated LAN-side data frames, so of its eight contract
    classes exactly the two outbound forwarding ones are reachable here —
    its drop classes need WAN-side or malformed traffic the NAT never
    forwards.
    """
    classes = dict(expected_hop_classes())
    classes["fw"] = frozenset({"outbound_new", "outbound_established"})
    return classes


# --------------------------------------------------------------------------- #
# Stream and churn schedule
# --------------------------------------------------------------------------- #
def graph_stream(packets: int) -> List[GraphFrame]:
    """Loop the checked-in capture into a ``packets``-long entry stream."""
    return [
        GraphFrame(packet=data, time=tick, note="pcap")
        for data, tick in sample_capture(load_graph_capture(), packets)
    ]


def _drained_backend() -> int:
    """The backend flow A binds to (repopulation is deterministic)."""
    scratch = MaglevTable(
        "scratch", table_size=LB.bench["table_size"], max_backends=LB.bench["max_backends"]
    )
    for backend in GRAPH_BACKENDS:
        scratch.add_backend(backend)
    return scratch.select(_flow_key(_FLOW_A))


def graph_churn_schedule(graph: Graph, packets: int) -> ChurnSchedule:
    """The deployment's churn, pinned to stream indices.

    Fixed events line up with :func:`graph_mix_capture`'s frame plan
    (backends activate at 2, flow A's backend drains at 9 and returns at
    10, flow E's route installs at 12, the clock jumps past every expiry
    deadline at 16); beyond the first revolution, periodic drain/re-add
    pairs and expiry jumps keep long runs churning.  Everything is a pure
    function of ``packets``, so the same (stream, schedule) pair replays
    byte-identically at any worker count.
    """
    conn = next(
        structure
        for structure in graph.nodes["lb"].harness.structures
        if hasattr(structure, "wheel_slots")
    )
    jump = conn.timeout + conn.wheel_slots + 1
    drained = _drained_backend()
    events = [backend_add(2, "lb", backend) for backend in GRAPH_BACKENDS]
    events += [
        backend_remove(9, "lb", drained),
        backend_add(10, "lb", drained),
        route_update(12, "router", *CHURN_ROUTE),
        expiry_jump(16, "lb", jump),
    ]
    # Keep long runs honest: churn never stops in a real deployment.
    revolution = 32
    for at in range(revolution + 9, packets - 1, 500):
        events.append(backend_remove(at, "lb", drained))
        events.append(backend_add(at + 1, "lb", drained))
    for at in range(revolution + 211, packets, 2048):
        events.append(expiry_jump(at, "nat", jump))
    return ChurnSchedule(events)


# --------------------------------------------------------------------------- #
# Workload registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GraphWorkload:
    """One named stream + churn schedule bound to a fresh graph."""

    name: str
    graph: Graph
    stream: Tuple[GraphFrame, ...]
    schedule: ChurnSchedule
    #: node name -> input classes the replay must exhibit at that hop.
    expected_hop_classes: Mapping[str, FrozenSet[str]] = field(default_factory=dict)


def _capture_workloads(
    graph: Graph, packets: int, expected: Mapping[str, FrozenSet[str]]
) -> List[GraphWorkload]:
    """A graph's one bench workload: the looped capture with its churn plan."""
    return [
        GraphWorkload(
            name="capture",
            graph=graph,
            stream=tuple(graph_stream(packets)),
            schedule=graph_churn_schedule(graph, packets),
            expected_hop_classes=expected,
        )
    ]


def lb_nat_router_workloads(seed: int, packets: int) -> List[GraphWorkload]:
    """The shipped graph's bench workloads.

    ``seed`` is accepted for registry symmetry with the per-NF factories
    but unused: a capture-derived stream replays the recorded frames
    verbatim — determinism comes from the capture, not an RNG.
    """
    del seed
    return _capture_workloads(lb_nat_router_graph(), packets, expected_hop_classes())


def lb_nat_fw_router_workloads(seed: int, packets: int) -> List[GraphWorkload]:
    """The 4-hop graph's bench workloads.

    Same capture, same churn plan (the schedule's time jumps expire the
    firewall's connection table along with everything else — the global
    clock is shared); only the topology differs.
    """
    del seed
    return _capture_workloads(lb_nat_fw_router_graph(), packets, expected_fw_hop_classes())
