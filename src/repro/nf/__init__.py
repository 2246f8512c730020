"""Network functions under analysis.

Each NF module holds the NF's stateless NFIL code, a factory for the
:mod:`repro.structures` instances backing its state, and one
:class:`~repro.nf.replay.NFSpec` descriptor declaring everything else the
shared pipeline needs: entry function, classifier and class table,
symbolic packet layout, scalar assumptions, bench geometry and secret
class sets.  The descriptor's generic methods generate the contract
(:meth:`~repro.nf.replay.NFSpec.contract`) and wire a fresh instance for
replay (:meth:`~repro.nf.replay.NFSpec.harness`); the module docstring
states the NF's input classes, its (instance-qualified) PCVs, and the
workload that provably drives them to their bounds.  The six NFs:

* :mod:`repro.nf.bridge` — the MAC learning bridge (paper Table 4), backed
  by an :class:`~repro.structures.ExpiringMap` (PCVs ``bridge_map.t`` /
  ``bridge_map.w`` / ``bridge_map.e``).
* :mod:`repro.nf.router` — a static LPM IPv4 router, backed by an
  :class:`~repro.structures.LpmTrie` (PCV ``rt.d``).
* :mod:`repro.nf.nat` — a VigNAT-style NAT, backed by **two**
  :class:`~repro.structures.ExpiringMap` instances plus a
  :class:`~repro.structures.PortAllocator` (PCVs ``fwd.*`` and ``rev.*``)
  — the multi-instance NF that per-instance PCV namespacing exists for.
* :mod:`repro.nf.lb` — a Maglev-style L4 load balancer, backed by a
  :class:`~repro.structures.MaglevTable` plus an
  :class:`~repro.structures.ExpiringMap` connection table (PCVs
  ``lb_tbl.f`` and ``conn.*``) — the first NF whose dominant cost is a
  control-plane operation (table repopulation on backend churn).
* :mod:`repro.nf.firewall` — a connection-tracking stateful firewall,
  backed by an :class:`~repro.structures.ExpiringMap` plus a
  :class:`~repro.structures.PortAllocator` slot pool (PCVs
  ``fw_conn.*``).
* :mod:`repro.nf.monitor` — a heavy-hitter monitor on a
  :class:`~repro.structures.CountMinSketch` (no PCVs at all).

:data:`NF_MATRIX` pairs each descriptor with its ``<nf>_workloads``
factory — uniform, Zipf, provably-worst-case adversarial, scan-sweep and
header-flood streams, in :mod:`repro.nf.workloads` — in the order the
CLI and its reports list them.  The pairing lives here rather than on
the descriptor because the workload factories import the NF modules.

docs/NF_AUTHORING.md is the step-by-step guide to adding an NF, and
docs/STRUCTURES.md its counterpart for structures.
"""

from typing import Callable, List, Tuple

from repro.nf.replay import NFHarness, NFSpec, replay_env
from repro.nf.workloads import (
    Workload,
    bridge_workloads,
    firewall_workloads,
    lb_workloads,
    monitor_workloads,
    nat_workloads,
    router_workloads,
)
from repro.nf.bridge import (
    BRIDGE,
    build_bridge_module,
    classify_bridge_path,
    generate_bridge_contract,
    make_bridge_table,
)
from repro.nf.firewall import (
    FIREWALL,
    build_firewall_module,
    classify_firewall_path,
    generate_firewall_contract,
    make_firewall_state,
)
from repro.nf.lb import (
    LB,
    build_lb_module,
    classify_lb_path,
    generate_lb_contract,
    make_lb_state,
)
from repro.nf.monitor import (
    MONITOR,
    build_monitor_module,
    classify_monitor_path,
    generate_monitor_contract,
    make_sketch,
)
from repro.nf.nat import (
    NAT,
    build_nat_module,
    classify_nat_path,
    generate_nat_contract,
    make_nat_tables,
)
from repro.nf.router import (
    ROUTER,
    build_router_module,
    classify_router_path,
    generate_router_contract,
    ipv4_packet,
    make_routing_table,
)

#: Every NF with its workload factory, in report order.  A factory takes
#: ``seed``, ``packets`` and the descriptor's ``bench`` geometry as
#: keywords and returns the NF's five workloads.
NF_MATRIX: Tuple[Tuple[NFSpec, Callable[..., List[Workload]]], ...] = (
    (BRIDGE, bridge_workloads),
    (ROUTER, router_workloads),
    (NAT, nat_workloads),
    (LB, lb_workloads),
    (FIREWALL, firewall_workloads),
    (MONITOR, monitor_workloads),
)

__all__ = [
    "BRIDGE",
    "FIREWALL",
    "LB",
    "MONITOR",
    "NAT",
    "NFHarness",
    "NFSpec",
    "NF_MATRIX",
    "ROUTER",
    "Workload",
    "bridge_workloads",
    "build_bridge_module",
    "build_firewall_module",
    "build_lb_module",
    "build_monitor_module",
    "build_nat_module",
    "build_router_module",
    "classify_bridge_path",
    "classify_firewall_path",
    "classify_lb_path",
    "classify_monitor_path",
    "classify_nat_path",
    "classify_router_path",
    "firewall_workloads",
    "generate_bridge_contract",
    "generate_firewall_contract",
    "generate_lb_contract",
    "generate_monitor_contract",
    "generate_nat_contract",
    "generate_router_contract",
    "ipv4_packet",
    "lb_workloads",
    "make_bridge_table",
    "make_firewall_state",
    "make_lb_state",
    "make_nat_tables",
    "make_routing_table",
    "make_sketch",
    "monitor_workloads",
    "nat_workloads",
    "replay_env",
    "router_workloads",
]
