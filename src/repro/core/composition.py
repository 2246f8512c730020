"""Contract composition for NF chains and service graphs (§3.4, §6).

When NFs are chained (e.g. firewall → NAT → bridge), the chain's contract
is derived from the per-NF contracts by :func:`compose_graph_contracts`:
hops are nodes of a directed service graph and a *routing function* says
which node each (node, input class) pair forwards to — or that the packet
terminates there (drops terminate early; branches diverge).  One composed
entry is emitted per reachable **route** (the sequence of (node, class)
hops a packet can traverse), named by :func:`route_class_name`, with the
per-hop expressions summed.  A linear chain is the graph whose every class
forwards to the next NF: one entry per combination of per-NF classes.
Class predicates are not combined (model-output symbols of different NFs
live in different namespaces), so composed entries classify by name only.

Instance-qualified PCVs (PR 4) are what make graph composition sound: the
merged registry keeps ``conn.t`` and ``fwd.t`` apart, so a route's summed
expression evaluates correctly at the union of the hops' observed PCVs.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.contract import ContractEntry, Metric, PerformanceContract
from repro.core.input_class import InputClass
from repro.core.pcv import PCVRegistry
from repro.core.perfexpr import PerfExpr

__all__ = [
    "HOP_SEPARATOR",
    "compose_graph_contracts",
    "route_class_name",
]

#: Separator between hops in a composed route-entry name.
HOP_SEPARATOR = " > "


def route_class_name(hops: Sequence[Tuple[str, str]]) -> str:
    """Name the composed entry of one route: ``"lb:new_flow > nat:..."``.

    The name is reconstructible from a concrete graph replay (the node
    names and per-hop classes it observed), which is how a replay files
    each journey under its route of the composed contract.
    """
    return HOP_SEPARATOR.join(f"{node}:{class_name}" for node, class_name in hops)


def _merged_registry(contracts: Sequence[PerformanceContract]) -> PCVRegistry:
    registry = PCVRegistry()
    for contract in contracts:
        registry = registry.merge(contract.registry)
    return registry


def compose_graph_contracts(
    name: str,
    contracts: Mapping[str, PerformanceContract],
    entry_node: str,
    next_hop: Callable[[str, str], Optional[str]],
) -> PerformanceContract:
    """Compose per-node contracts over a directed service graph.

    Args:
        name: name of the composed contract.
        contracts: per-node contracts, keyed by node name.
        entry_node: the node every packet enters the graph at.
        next_hop: routing function ``(node, class_name) -> next node`` (or
            ``None`` when a packet classified there terminates: delivered
            at a sink, or dropped mid-graph).  This is the per-link
            forwarding-predicate information of the graph, flattened.

    Returns:
        One :class:`PerformanceContract` with an entry per reachable
        route, named by :func:`route_class_name` and summing the per-hop
        expressions metric-wise.  The registry merges every *reachable*
        node's registry.

    Raises:
        ValueError: unknown entry node, a ``next_hop`` target missing from
            ``contracts``, a node without entries, or a cyclic route (a
            route revisiting a node would make the composed cost
            unbounded; model recirculation by explicit per-pass nodes
            instead).
    """
    if entry_node not in contracts:
        raise ValueError(f"entry node {entry_node!r} has no contract")
    composed = PerformanceContract(name, registry=PCVRegistry())
    reached: Dict[str, PerformanceContract] = {}

    def walk(
        node: str,
        hops: Tuple[Tuple[str, str], ...],
        exprs: Dict[Metric, PerfExpr],
    ) -> None:
        if any(node == seen for seen, _ in hops):
            cycle = [seen for seen, _ in hops] + [node]
            raise ValueError(f"cyclic route {' -> '.join(cycle)} cannot be composed")
        contract = contracts.get(node)
        if contract is None:
            raise ValueError(f"next_hop routed to unknown node {node!r}")
        if not contract.entries:
            raise ValueError(f"contract for node {node!r} has no entries to compose")
        reached[node] = contract
        for entry in contract.entries:
            class_name = entry.input_class.name
            summed = dict(exprs)
            for metric, expr in entry.exprs.items():
                summed[metric] = summed.get(metric, PerfExpr.zero()) + expr
            route = hops + ((node, class_name),)
            downstream = next_hop(node, class_name)
            if downstream is None:
                composed.add_entry(
                    ContractEntry(
                        input_class=InputClass(
                            route_class_name(route),
                            description="; ".join(f"{n}={c}" for n, c in route),
                        ),
                        exprs=summed,
                    )
                )
            else:
                walk(downstream, route, summed)

    walk(entry_node, (), {})
    composed.registry = _merged_registry(list(reached.values()))
    return composed
