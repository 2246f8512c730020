"""Graph replay: every hop scored, every route the sum of its hops.

:class:`GraphReplayer` drives one packet stream through a whole
:class:`~repro.net.graph.Graph`.  Each node execution is scored by that
node's own :class:`~repro.traffic.replayer.Replayer` (via its per-packet
:meth:`~repro.traffic.replayer.Replayer.score` primitive) against the
node's generated contract: classification, exact count bounds, cycle
bounds under every hardware model.  The hops a packet traversed name a
route (:func:`repro.core.composition.route_class_name`): an entry of the
composed contract (:meth:`~repro.net.graph.Graph.compose`), which
enumerates its routes from the same :meth:`~repro.net.graph.Graph.next_hop`
table and node contracts a journey follows, so every classified journey
has one.

The per-hop checks already bound the whole route, so the composed
expression is never evaluated.  A composed entry is the sum of its hops'
entries; graph validation keeps the hops' instance-qualified PCVs
disjoint and the routes acyclic, so at the merged PCVs the entry equals
the sum of the hop bounds, and each hop's measurement meets its own
bound exactly.  A packet's route values are therefore the sum of its hop
outcomes, derived from the hops when read: measured and predicted
counts, and measured and predicted cycles summed as integers at one
graph-wide scale (the LCM of the hop replayers' scales), so no
``Fraction`` is built before a report is rendered.  A route row is a
:class:`~repro.traffic.replayer.ClassSummary` over those packets.

Hop outcomes share their replayer's interned PCV mappings, predictions
and measurements (see :mod:`repro.traffic.replayer`), and one replay call
shares one name per distinct route, so what a replay keeps grows with
distinct values rather than packets.  Each node files its hop outcomes
through its own :class:`~repro.traffic.replayer.Filing`, which folds each
distinct binding once into that node's PCV maxima; graph validation
keeps instance names disjoint, so the graph-wide ``max_pcvs`` is their
union.

Churn (:mod:`repro.net.churn`) interleaves with the stream: events fire
between packets, injected control frames are scored at their node like
any stimulus (their cost is part of the deployment's story), host-side
mutations and clock jumps take effect before the next packet replays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.composition import route_class_name
from repro.core.contract import PerformanceContract
from repro.hw.model import CycleModel
from repro.net.churn import ChurnSchedule
from repro.net.graph import Graph
from repro.traffic.replayer import ClassSummary, Filing, PacketOutcome, Replayer, Scored, row_table

__all__ = ["GraphFrame", "GraphPacketOutcome", "GraphReplayResult", "GraphReplayer"]


@dataclass(frozen=True, slots=True)
class GraphFrame:
    """One stream packet entering the graph: its bytes, stream time and tag."""

    packet: bytes
    time: int
    note: str = ""


@dataclass(slots=True)
class GraphPacketOutcome(Scored):
    """One packet's full journey: its hop outcomes and their sums.

    ``measured_values`` and ``predicted_values`` sum the hops' values when
    read (see :class:`~repro.traffic.replayer.Scored`), each hop's cycles
    brought to the graph-wide ``cycle_scale``; :attr:`cycles` converts
    them to ``Fraction`` on demand.  Outcomes of one replay on the same
    route share its name.
    """

    index: int
    note: str
    #: ``(node name, hop outcome)`` in traversal order.
    hops: Tuple[Tuple[str, PacketOutcome], ...]
    #: Composed-entry name of the traversed route (None when a hop failed
    #: to classify, so the packet took no route).
    route_name: Optional[str]
    models: Tuple[str, ...]
    #: Every per-hop violation of this packet, prefixed with the node name.
    violations: Tuple[str, ...]
    cycle_scale: int

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def measured_values(self) -> Tuple[int, ...]:
        return self._route_sum(predicted=False)

    @property
    def predicted_values(self) -> Tuple[int, ...]:
        return self._route_sum(predicted=True)

    def _route_sum(self, *, predicted: bool) -> Tuple[int, ...]:
        """The hops' measured or predicted values, summed column by column."""
        sums = [0] * (2 + len(self.models))
        for _, hop in self.hops:
            factor = self.cycle_scale // hop.cycle_scale
            values = hop.predicted_values if predicted else hop.measured_values
            for k, value in enumerate(values):
                sums[k] += value if k < 2 else value * factor
        return tuple(sums)


@dataclass
class GraphReplayResult:
    """Everything one graph replay produced."""

    graph_name: str
    workload: str
    outcomes: List[GraphPacketOutcome]
    #: Churn-injected control executions: ``(node name, outcome)``.
    control_outcomes: List[Tuple[str, PacketOutcome]]
    #: node name -> input class -> per-hop aggregate (includes injected
    #: control executions at their node).
    hop_summaries: Dict[str, Dict[str, ClassSummary]]
    #: composed route name -> aggregate of the packets that took it.
    route_summaries: Dict[str, ClassSummary]
    #: Human-readable record of every churn event, in firing order.
    churn_log: List[str]
    #: Largest observation of each instance-qualified PCV, graph-wide.
    max_pcvs: Dict[str, int]

    @property
    def packets(self) -> int:
        return len(self.outcomes)

    @property
    def hop_executions(self) -> int:
        return sum(outcome.hop_count for outcome in self.outcomes) + len(self.control_outcomes)

    @property
    def violations(self) -> List[str]:
        messages = [m for o in self.outcomes for m in o.violations]
        messages += [
            f"{node}: {m}" for node, o in self.control_outcomes for m in o.violations
        ]
        return messages

    @property
    def ok(self) -> bool:
        return not self.violations

    def hop_classes_seen(self) -> Dict[str, List[str]]:
        """Input classes each node's executions actually fell into."""
        return {node: sorted(classes) for node, classes in self.hop_summaries.items()}

    def table(self) -> str:
        """Render the per-route summary table."""
        title = (
            f"{self.graph_name} / {self.workload}: {self.packets} packets, "
            f"{self.hop_executions} hop executions, "
            f"{len(self.churn_log)} churn events, "
        )
        title += "no violations" if self.ok else f"{len(self.violations)} VIOLATIONS"
        coverage = "; ".join(
            f"{node}: {', '.join(classes)}"
            for node, classes in sorted(self.hop_classes_seen().items())
        )
        return "\n".join(
            [title, row_table("route", self.route_summaries), f"per-hop coverage — {coverage}"]
        )

    def to_json(self) -> Dict[str, object]:
        """Serialise for the ``BENCH_*.json`` report."""
        hops: Dict[str, object] = {
            node: {name: summary.to_json() for name, summary in classes.items()}
            for node, classes in self.hop_summaries.items()
        }
        return {
            "packets": self.packets,
            "hop_executions": self.hop_executions,
            "ok": self.ok,
            "violations": self.violations[:20],
            "routes": {name: summary.to_json() for name, summary in self.route_summaries.items()},
            "hops": hops,
            "max_pcvs": dict(self.max_pcvs),
            "churn": {"events": len(self.churn_log), "log": list(self.churn_log)},
        }


class GraphReplayer:
    """Replays packet streams through a service graph, scoring every hop.

    Args:
        graph: the validated topology.
        models: hardware models every hop's cycles are priced under; a
            route row sums its hops' measured and predicted cycles.
    """

    def __init__(self, graph: Graph, *, models: Sequence[CycleModel] = ()) -> None:
        self.graph = graph
        self.models = tuple(models)
        self.replayers: Dict[str, Replayer] = {
            name: Replayer(node.harness, node.contract, models=models)
            for name, node in graph.nodes.items()
        }
        #: The scale hop cycles are summed at: the LCM of the hop replayers'
        #: scales, so each hop's scaled cycles convert by an integer factor.
        self.cycle_scale = math.lcm(1, *(r.cycle_scale for r in self.replayers.values()))

    @functools.cached_property
    def composed(self) -> PerformanceContract:
        """The graph's composed contract, one entry per route (built on first read).

        Replay never reads it (see the module docstring); route names come
        from :func:`~repro.core.composition.route_class_name`.
        """
        return self.graph.compose()

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def replay(
        self,
        stream: Sequence[GraphFrame],
        *,
        schedule: Optional[ChurnSchedule] = None,
        workload: str = "stream",
    ) -> GraphReplayResult:
        """Replay the stream, firing churn events between packets.

        Never raises on a violation — every check failure is recorded on
        its packet's outcome, mirroring the single-NF replayer.
        """
        schedule = schedule if schedule is not None else ChurnSchedule()
        outcomes: List[GraphPacketOutcome] = []
        control_outcomes: List[Tuple[str, PacketOutcome]] = []
        filings = {name: Filing(replayer) for name, replayer in self.replayers.items()}
        route_summaries: Dict[str, ClassSummary] = {}
        churn_log: List[str] = []
        # Each distinct route's name, built once.
        route_names: Dict[Tuple[Tuple[str, Optional[str]], ...], str] = {}
        model_names = tuple(model.name for model in self.models)

        clock_offset = 0
        for index, frame in enumerate(stream):
            for event in schedule.at(index):
                if event.jump:
                    clock_offset += event.jump
                if event.mutate is not None:
                    event.mutate(self.graph.nodes[event.node])
                if event.inject is not None:
                    stimulus = event.inject(frame.time + clock_offset)
                    outcome = self.replayers[event.node].score(stimulus, index)
                    control_outcomes.append((event.node, outcome))
                    filings[event.node].file(outcome)
                churn_log.append(f"@{index}: {event.describe}")

            time = frame.time + clock_offset
            node_name: Optional[str] = self.graph.entry
            packet = frame.packet
            hops: List[Tuple[str, PacketOutcome]] = []
            violations: List[str] = []
            classified = True
            while node_name is not None:
                node = self.graph.nodes[node_name]
                outcome = self.replayers[node_name].score(node.ingress(packet, time), index)
                hops.append((node_name, outcome))
                filings[node_name].file(outcome)
                violations.extend(f"{node_name}: {m}" for m in outcome.violations)
                if outcome.class_name is None:
                    classified = False
                    break
                packet = node.harness.last_packet
                node_name = self.graph.next_hop(node_name, outcome.class_name)

            route_name: Optional[str] = None
            if classified:
                route = tuple((node, o.class_name) for node, o in hops)
                route_name = route_names.get(route)
                if route_name is None:
                    route_name = route_class_name(route)  # type: ignore[arg-type]
                    route_names[route] = route_name

            graph_outcome = GraphPacketOutcome(
                index,
                frame.note,
                tuple(hops),
                route_name,
                model_names,
                tuple(violations),
                self.cycle_scale,
            )
            outcomes.append(graph_outcome)
            if route_name is not None:
                row = route_summaries.get(route_name)
                if row is None:
                    row = route_summaries[route_name] = ClassSummary(route_name)
                row.absorb(graph_outcome)

        return GraphReplayResult(
            graph_name=self.graph.name,
            workload=workload,
            outcomes=outcomes,
            control_outcomes=control_outcomes,
            hop_summaries={node: filing.rows for node, filing in filings.items() if filing.rows},
            route_summaries=route_summaries,
            churn_log=churn_log,
            max_pcvs={
                name: value
                for filing in filings.values()
                for name, value in filing.max_pcvs.items()
            },
        )
