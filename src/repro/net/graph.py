"""Deployable service graphs: NF instances wired into directed topologies.

A :class:`Graph` is the deployment artifact the paper's composition story
(§6) stops short of: concrete NF instances (each a
:class:`~repro.nf.replay.NFHarness` plus its generated contract) as
:class:`Node` objects, connected by :class:`Link` edges whose *forwarding
predicate* is a set of the source NF's input classes — a packet classified
``new_flow`` at the LB follows the ``lb → nat`` link, a packet classified
``short`` matches no link and terminates at the LB.  Because forwarding is
decided by input class, the set of possible end-to-end routes is known
statically, and :meth:`Graph.compose` hands the topology to
:func:`repro.core.composition.compose_graph_contracts` to derive the
composed contract with one entry per reachable route.

Validation at construction time (all are deployment bugs, not traffic
properties, so they fail fast):

* the entry node exists and every link references known nodes;
* forwarding is deterministic: no two links out of one node claim the
  same input class, and every claimed class exists in that node's
  contract;
* the node-level topology is acyclic (a cyclic route has no finite
  composed bound);
* structure instance names are globally unique across nodes, so the
  instance-qualified PCVs of different hops can never collide when a
  route's observations are merged into one binding environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.composition import compose_graph_contracts
from repro.core.contract import PerformanceContract
from repro.nf.replay import NFHarness
from repro.structures.base import Structure
from repro.traffic.generators import Stimulus

__all__ = ["Graph", "GraphError", "IngressFn", "Link", "Node"]


class GraphError(ValueError):
    """The service graph is ill-formed (topology or wiring)."""


#: Builds the stimulus one node consumes from the (possibly rewritten)
#: packet bytes arriving on its ingress link and the stream clock's
#: ``time`` (after any churn clock jump).  A wire carries bytes, not
#: scalars — this is where each NF's non-packet inputs are materialised
#: per hop.
IngressFn = Callable[[bytes, int], Stimulus]


def _default_ingress(packet: bytes, time: int) -> Stimulus:
    """Default adapter: packet bytes only (NFs whose sole scalar is len)."""
    return Stimulus(packet=packet)


@dataclass(frozen=True)
class Node:
    """One deployed NF instance.

    Attributes:
        name: unique node name (also the hop label in composed entries).
        harness: the NF wired for replay; the graph switches it to
            ``capture_output`` mode so egress bytes can cross links.
        contract: the NF's generated contract *at this instance's
            geometry* — per-hop classification happens against it.
        ingress: stimulus adapter (see :data:`IngressFn`).
    """

    name: str
    harness: NFHarness
    contract: PerformanceContract
    ingress: IngressFn = _default_ingress


@dataclass(frozen=True)
class Link:
    """A directed edge: which source classes forward to which node."""

    src: str
    dst: str
    #: Input classes of ``src``'s contract that forward along this link.
    classes: FrozenSet[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", frozenset(self.classes))
        if not self.classes:
            raise GraphError(f"link {self.src} -> {self.dst} forwards no classes")


class Graph:
    """A validated service graph, ready to compose and replay.

    Args:
        name: graph name (bench report key, composed-contract name).
        nodes: the deployed NF instances, entry-first or not (order only
            affects rendering).
        links: directed class-predicated edges.
        entry: name of the node every stream packet enters at.
    """

    def __init__(
        self,
        name: str,
        nodes: Iterable[Node],
        links: Iterable[Link],
        *,
        entry: str,
    ) -> None:
        self.name = name
        self.nodes: Dict[str, Node] = {}
        for node in nodes:
            if node.name in self.nodes:
                raise GraphError(f"duplicate node name {node.name!r}")
            self.nodes[node.name] = node
        self.links: Tuple[Link, ...] = tuple(links)
        self.entry = entry
        self._forward: Dict[Tuple[str, str], str] = {}
        self._validate()
        # Egress bytes must survive each hop to feed the next one.
        for node in self.nodes.values():
            node.harness.capture_output = True

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        if self.entry not in self.nodes:
            raise GraphError(f"entry node {self.entry!r} is not a node")
        for link in self.links:
            for end in (link.src, link.dst):
                if end not in self.nodes:
                    raise GraphError(f"link references unknown node {end!r}")
            known = set(self.nodes[link.src].contract.class_names())
            bogus = sorted(link.classes - known)
            if bogus:
                raise GraphError(
                    f"link {link.src} -> {link.dst} forwards classes {bogus} "
                    f"that {link.src!r}'s contract does not define"
                )
            for class_name in link.classes:
                key = (link.src, class_name)
                if key in self._forward:
                    raise GraphError(
                        f"non-deterministic forwarding: class {class_name!r} of "
                        f"{link.src!r} claimed by links to {self._forward[key]!r} "
                        f"and {link.dst!r}"
                    )
                self._forward[key] = link.dst
        self._check_acyclic()
        self._check_disjoint_instances()

    def _check_acyclic(self) -> None:
        edges: Dict[str, List[str]] = {}
        for link in self.links:
            edges.setdefault(link.src, []).append(link.dst)
        state: Dict[str, int] = {}  # 0 visiting, 1 done

        def visit(node: str, trail: Tuple[str, ...]) -> None:
            if state.get(node) == 1:
                return
            if state.get(node) == 0:
                cycle = trail[trail.index(node) :] + (node,)
                raise GraphError(f"cyclic topology: {' -> '.join(cycle)}")
            state[node] = 0
            for nxt in edges.get(node, ()):
                visit(nxt, trail + (node,))
            state[node] = 1

        for name in self.nodes:
            visit(name, ())

    def _check_disjoint_instances(self) -> None:
        owners: Dict[str, str] = {}
        for node in self.nodes.values():
            for structure in node.harness.structures:
                if structure.name in owners:
                    raise GraphError(
                        f"structure instance {structure.name!r} deployed by both "
                        f"{owners[structure.name]!r} and {node.name!r}; rename one "
                        "so the instance-qualified PCVs of different hops cannot "
                        "collide"
                    )
                owners[structure.name] = node.name

    # ------------------------------------------------------------------ #
    # Topology queries
    # ------------------------------------------------------------------ #
    def next_hop(self, node: str, class_name: str) -> Optional[str]:
        """The node a packet classified ``class_name`` at ``node`` goes to."""
        return self._forward.get((node, class_name))

    def structures(self) -> Tuple[Structure, ...]:
        """Every structure instance deployed anywhere in the graph."""
        return tuple(
            structure for node in self.nodes.values() for structure in node.harness.structures
        )

    def hop_names(self) -> List[str]:
        """Node names, entry first, then the rest in insertion order."""
        return [self.entry] + [name for name in self.nodes if name != self.entry]

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #
    def compose(self, name: Optional[str] = None) -> PerformanceContract:
        """Derive the composed contract: one entry per reachable route."""
        return compose_graph_contracts(
            name if name is not None else self.name,
            {node.name: node.contract for node in self.nodes.values()},
            self.entry,
            self.next_hop,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Graph {self.name!r} nodes={list(self.nodes)} "
            f"links={[(l.src, l.dst) for l in self.links]} entry={self.entry!r}>"
        )
