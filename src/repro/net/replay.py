"""Graph replay: every hop scored, every route the sum of its hops.

:class:`GraphReplayer` drives one packet stream through a whole
:class:`~repro.net.graph.Graph`.  Each node execution is scored by that
node's own :class:`~repro.traffic.replayer.Replayer` (via its per-packet
:meth:`~repro.traffic.replayer.Replayer.score` primitive) against the
node's generated contract: classification, exact count bounds, cycle
bounds under every hardware model.  The hops a packet traversed name a
route (:func:`repro.core.composition.route_class_name`), which must be an
entry of the composed contract (:meth:`~repro.net.graph.Graph.compose`):
that checks the routing the composition assumed.

The per-hop checks already bound the whole route, so the composed
expression is never evaluated.  A composed entry is the sum of its hops'
entries; graph validation keeps the hops' instance-qualified PCVs
disjoint and the routes acyclic, so at the merged PCVs the entry equals
the sum of the hop bounds, and each hop's measurement meets its own
bound exactly.  A route row is therefore the sum of its hop outcomes:
measured and predicted counts, and measured and predicted cycles summed
as integers at one graph-wide scale (the LCM of the hop replayers'
scales), so no ``Fraction`` is built before a report is rendered.

Churn (:mod:`repro.net.churn`) interleaves with the stream: events fire
between packets, injected control frames are scored at their node like
any stimulus (their cost is part of the deployment's story), host-side
mutations and clock jumps take effect before the next packet replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.composition import route_class_name
from repro.core.contract import Metric, PerformanceContract
from repro.core.report import format_table
from repro.hw.model import CycleModel
from repro.net.churn import ChurnSchedule
from repro.net.graph import Graph
from repro.traffic.replayer import ClassSummary, PacketOutcome, Replayer

__all__ = ["GraphFrame", "GraphPacketOutcome", "GraphReplayResult", "GraphReplayer", "RouteSummary"]


@dataclass(frozen=True)
class GraphFrame:
    """One stream packet entering the graph: bytes plus stream metadata."""

    packet: bytes
    time: int
    note: str = ""
    #: Extra entry-node scalars (e.g. the NAT's ``in_port`` when a NAT is
    #: the entry); merged into the metadata handed to every ingress.
    scalars: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class GraphPacketOutcome:
    """One packet's full journey: its hop outcomes and their sums.

    The summed cycles are exact integers in units of ``1/cycle_scale``;
    :attr:`cycles` converts them to ``Fraction`` on demand.
    """

    index: int
    note: str
    #: ``(node name, hop outcome)`` in traversal order.
    hops: Tuple[Tuple[str, PacketOutcome], ...]
    #: Composed-entry name of the traversed route (None when a hop failed
    #: to classify, so the packet took no route).
    route_name: Optional[str]
    #: Hop counts summed over the journey, measured and predicted.
    measured: Mapping[Metric, int]
    predicted: Mapping[Metric, int]
    #: model name -> (summed measured, summed predicted) hop cycles, scaled.
    cycles_scaled: Mapping[str, Tuple[int, int]]
    #: Every violation of this packet: per-hop ones prefixed with the node
    #: name, then a route missing from the composed contract.
    violations: Tuple[str, ...]
    #: The denominator of every ``cycles_scaled`` value.
    cycle_scale: int = 1

    @property
    def cycles(self) -> Dict[str, Tuple[Fraction, Fraction]]:
        scale = self.cycle_scale
        return {
            model: (Fraction(measured, scale), Fraction(predicted, scale))
            for model, (measured, predicted) in self.cycles_scaled.items()
        }

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def hop_count(self) -> int:
        return len(self.hops)


@dataclass
class RouteSummary:
    """Aggregate over every packet that traversed one route.

    Cycle maxima stay scaled integers (units of ``1/cycle_scale``) until a
    report converts them through :attr:`max_cycles`.
    """

    route_name: str
    packets: int = 0
    max_measured: Dict[Metric, int] = field(default_factory=dict)
    max_predicted: Dict[Metric, int] = field(default_factory=dict)
    max_cycles_scaled: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    cycle_scale: int = 1
    violations: int = 0

    @property
    def max_cycles(self) -> Dict[str, Tuple[Fraction, Fraction]]:
        scale = self.cycle_scale
        return {
            model: (Fraction(measured, scale), Fraction(predicted, scale))
            for model, (measured, predicted) in self.max_cycles_scaled.items()
        }

    def absorb(self, outcome: GraphPacketOutcome) -> None:
        self.packets += 1
        if outcome.violations:
            self.violations += 1
        self.cycle_scale = outcome.cycle_scale
        for metric, value in outcome.measured.items():
            self.max_measured[metric] = max(self.max_measured.get(metric, 0), value)
        for metric, value in outcome.predicted.items():
            self.max_predicted[metric] = max(self.max_predicted.get(metric, 0), value)
        for model, (measured, predicted) in outcome.cycles_scaled.items():
            prev = self.max_cycles_scaled.get(model, (0, 0))
            self.max_cycles_scaled[model] = (max(prev[0], measured), max(prev[1], predicted))


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
    #: composed route name -> aggregate of the summed hop outcomes.
    route_summaries: Dict[str, RouteSummary]
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

    def routes_seen(self) -> List[str]:
        return sorted(self.route_summaries)

    def table(self) -> str:
        """Render the per-route summary table."""
        models = sorted(
            {model for s in self.route_summaries.values() for model in s.max_cycles}
        )
        headers = ["route", "packets", "instr max meas≤pred", "mem max meas≤pred"]
        headers += [f"{model} cycles" for model in models]
        rows: List[List[str]] = []
        for name in sorted(self.route_summaries):
            summary = self.route_summaries[name]
            row = [name, str(summary.packets)]
            for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
                row.append(
                    f"{summary.max_measured.get(metric, 0)} ≤ "
                    f"{summary.max_predicted.get(metric, 0)}"
                )
            for model in models:
                measured, predicted = summary.max_cycles.get(
                    model, (Fraction(0), Fraction(0))
                )
                row.append(f"{float(measured):.0f} ≤ {float(predicted):.0f}")
            rows.append(row)
        title = (
            f"{self.graph_name} / {self.workload}: {self.packets} packets, "
            f"{self.hop_executions} hop executions, "
            f"{len(self.churn_log)} churn events, "
        )
        title += "no violations" if self.ok else f"{len(self.violations)} VIOLATIONS"
        lines = [title, format_table(headers, rows)]
        coverage = "; ".join(
            f"{node}: {', '.join(classes)}"
            for node, classes in sorted(self.hop_classes_seen().items())
        )
        lines.append(f"per-hop coverage — {coverage}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """Serialise for the ``BENCH_*.json`` report."""
        routes: Dict[str, object] = {}
        for name, summary in self.route_summaries.items():
            routes[name] = {
                "packets": summary.packets,
                "violations": summary.violations,
                "max_measured": {str(m): v for m, v in summary.max_measured.items()},
                "max_predicted": {
                    str(m): float(v) for m, v in summary.max_predicted.items()
                },
                "max_cycles": {
                    model: {"measured": float(meas), "predicted": float(pred)}
                    for model, (meas, pred) in summary.max_cycles.items()
                },
            }
        hops: Dict[str, object] = {
            node: {name: summary.to_json() for name, summary in classes.items()}
            for node, classes in self.hop_summaries.items()
        }
        return {
            "packets": self.packets,
            "hop_executions": self.hop_executions,
            "ok": self.ok,
            "violations": self.violations[:20],
            "routes": routes,
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
        self.composed: PerformanceContract = graph.compose()
        self._routes = frozenset(self.composed.class_names())
        self._zero_pcvs = {name: 0 for name in self.composed.variables()}
        #: The scale hop cycles are summed at: the LCM of the hop replayers'
        #: scales, so each hop's scaled cycles convert by an integer factor.
        self.cycle_scale = math.lcm(1, *(r.cycle_scale for r in self.replayers.values()))
        self._hop_factors = {
            name: self.cycle_scale // replayer.cycle_scale
            for name, replayer in self.replayers.items()
        }

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
        hop_summaries: Dict[str, Dict[str, ClassSummary]] = {}
        route_summaries: Dict[str, RouteSummary] = {}
        churn_log: List[str] = []
        max_pcvs: Dict[str, int] = dict(self._zero_pcvs)

        hop_factors = self._hop_factors

        def absorb_hop(node: str, outcome: PacketOutcome) -> None:
            key = outcome.class_name if outcome.class_name is not None else "<unclassified>"
            classes = hop_summaries.get(node)
            if classes is None:
                classes = hop_summaries[node] = {}
            summary = classes.get(key)
            if summary is None:
                summary = classes[key] = ClassSummary(key)
            summary.absorb(outcome)
            for name, value in outcome.pcvs.items():
                if value > max_pcvs.get(name, 0):
                    max_pcvs[name] = value

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
                    absorb_hop(event.node, outcome)
                churn_log.append(f"@{index}: {event.describe}")

            meta: Dict[str, int] = dict(frame.scalars)
            meta["time"] = frame.time + clock_offset
            node_name: Optional[str] = self.graph.entry
            packet = frame.packet
            hops: List[Tuple[str, PacketOutcome]] = []
            violations: List[str] = []
            classified = True
            while node_name is not None:
                node = self.graph.nodes[node_name]
                stimulus = node.make_stimulus(packet, meta)
                outcome = self.replayers[node_name].score(stimulus, index)
                hops.append((node_name, outcome))
                absorb_hop(node_name, outcome)
                violations.extend(f"{node_name}: {m}" for m in outcome.violations)
                if outcome.class_name is None:
                    classified = False
                    break
                packet = node.harness.last_packet
                node_name = self.graph.next_hop(node_name, outcome.class_name)

            measured = {Metric.INSTRUCTIONS: 0, Metric.MEMORY_ACCESSES: 0}
            predicted = dict(measured)
            cycles: Dict[str, Tuple[int, int]] = {model.name: (0, 0) for model in self.models}
            for node_name, hop_outcome in hops:
                for metric, value in hop_outcome.measured.items():
                    measured[metric] += value
                for metric, value in hop_outcome.predicted.items():
                    predicted[metric] += value
                factor = hop_factors[node_name]
                for model_name, (meas, pred) in hop_outcome.cycles_scaled.items():
                    total_meas, total_pred = cycles[model_name]
                    cycles[model_name] = (total_meas + meas * factor, total_pred + pred * factor)

            route_name: Optional[str] = None
            if classified:
                route = tuple((node, o.class_name) for node, o in hops)
                route_name = route_class_name(route)  # type: ignore[arg-type]
                if route_name not in self._routes:
                    violations.append(
                        f"packet {index}: route {route_name!r} has no composed entry"
                    )

            graph_outcome = GraphPacketOutcome(
                index=index,
                note=frame.note,
                hops=tuple(hops),
                route_name=route_name,
                measured=measured,
                predicted=predicted,
                cycles_scaled=cycles,
                violations=tuple(violations),
                cycle_scale=self.cycle_scale,
            )
            outcomes.append(graph_outcome)
            if route_name is not None:
                route_summaries.setdefault(route_name, RouteSummary(route_name)).absorb(
                    graph_outcome
                )

        return GraphReplayResult(
            graph_name=self.graph.name,
            workload=workload,
            outcomes=outcomes,
            control_outcomes=control_outcomes,
            hop_summaries=hop_summaries,
            route_summaries=route_summaries,
            churn_log=churn_log,
            max_pcvs=max_pcvs,
        )
