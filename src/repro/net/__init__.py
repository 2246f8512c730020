"""Deployable service graphs: topology, composition, end-to-end replay.

The paper composes contracts for linear chains (§6); this package carries
the idea to deployment shape: NF instances become :class:`Node` objects
in a directed :class:`Graph` whose links forward by input class, the
composed contract enumerates every reachable route
(:meth:`Graph.compose`), and :class:`GraphReplayer` replays one packet
stream end-to-end — scoring every hop against its own contract, which
bounds every complete journey by its composed route — while a
:class:`~repro.net.churn.ChurnSchedule` reconfigures the deployment
mid-stream (backend churn, route installs, expiry sweeps).

The shipped deployment (:mod:`repro.net.workloads`) wires the Maglev-style
LB, the VigNAT-style NAT and the LPM router into a 3-hop ingress pipeline
fed from a checked-in pcap fixture (``captures/graph_mix.pcap``).
"""

from repro.net.churn import (
    ChurnEvent,
    ChurnSchedule,
    backend_add,
    backend_remove,
    expiry_jump,
    route_update,
)
from repro.net.graph import Graph, GraphError, Link, Node
from repro.net.replay import (
    GraphFrame,
    GraphPacketOutcome,
    GraphReplayResult,
    GraphReplayer,
)
from repro.net.workloads import (
    GraphWorkload,
    graph_churn_schedule,
    graph_mix_capture,
    graph_stream,
    lb_nat_router_graph,
    lb_nat_router_workloads,
    load_graph_capture,
)

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "Graph",
    "GraphError",
    "GraphFrame",
    "GraphPacketOutcome",
    "GraphReplayResult",
    "GraphReplayer",
    "GraphWorkload",
    "Link",
    "Node",
    "backend_add",
    "backend_remove",
    "expiry_jump",
    "graph_churn_schedule",
    "graph_mix_capture",
    "graph_stream",
    "lb_nat_router_graph",
    "lb_nat_router_workloads",
    "load_graph_capture",
    "route_update",
]
