"""Service graphs: validation, composition, end-to-end replay, churn."""

from fractions import Fraction

import pytest

from repro import cli
from repro.core.composition import HOP_SEPARATOR, route_class_name
from repro.core.contract import Metric
from repro.hw import ConservativeModel, RealisticModel, SimulatedModel
from repro.net import (
    ChurnSchedule,
    Graph,
    GraphError,
    GraphFrame,
    GraphPacketOutcome,
    GraphReplayer,
    Link,
    Node,
    backend_add,
    expiry_jump,
    lb_nat_router_graph,
    lb_nat_router_workloads,
    route_update,
)
from repro.net.workloads import lb_nat_fw_router_workloads
from repro.nf.router import ROUTER, generate_router_contract
from repro.nf.workloads import router_fib_routes
from repro.traffic import PacketOutcome


@pytest.fixture(scope="module")
def router_contract():
    return generate_router_contract()


def _router_node(name, contract):
    return Node(name=name, harness=ROUTER.harness(routes=router_fib_routes()), contract=contract)


# --------------------------------------------------------------------------- #
# Graph validation
# --------------------------------------------------------------------------- #
def test_graph_rejects_duplicate_node_names(router_contract):
    nodes = [_router_node("r", router_contract), _router_node("r", router_contract)]
    with pytest.raises(GraphError, match="duplicate node name"):
        Graph("g", nodes, (), entry="r")


def test_graph_rejects_an_unknown_entry(router_contract):
    with pytest.raises(GraphError, match="entry node"):
        Graph("g", [_router_node("r", router_contract)], (), entry="nope")


def test_graph_rejects_links_to_unknown_nodes(router_contract):
    with pytest.raises(GraphError, match="unknown node"):
        Graph(
            "g",
            [_router_node("r", router_contract)],
            (Link("r", "ghost", frozenset({"routed"})),),
            entry="r",
        )


def test_graph_rejects_forwarding_classes_the_contract_lacks(router_contract):
    nodes = [_router_node("r1", router_contract), _router_node("r2", router_contract)]
    with pytest.raises(GraphError, match="contract does not define"):
        Graph("g", nodes, (Link("r1", "r2", frozenset({"warp"})),), entry="r1")


def test_graph_rejects_non_deterministic_forwarding(router_contract):
    nodes = [
        _router_node("r1", router_contract),
        _router_node("r2", router_contract),
        _router_node("r3", router_contract),
    ]
    links = (
        Link("r1", "r2", frozenset({"routed"})),
        Link("r1", "r3", frozenset({"routed"})),
    )
    with pytest.raises(GraphError, match="non-deterministic forwarding"):
        Graph("g", nodes, links, entry="r1")


def test_graph_rejects_cycles(router_contract):
    nodes = [_router_node("r1", router_contract), _router_node("r2", router_contract)]
    links = (
        Link("r1", "r2", frozenset({"routed"})),
        Link("r2", "r1", frozenset({"routed"})),
    )
    with pytest.raises(GraphError, match="cyclic topology"):
        Graph("g", nodes, links, entry="r1")


def test_graph_rejects_colliding_structure_instances(router_contract):
    # Both router harnesses deploy an LpmTrie instance named "rt".
    nodes = [_router_node("r1", router_contract), _router_node("r2", router_contract)]
    with pytest.raises(GraphError, match="deployed by both"):
        Graph("g", nodes, (Link("r1", "r2", frozenset({"routed"})),), entry="r1")


def test_links_must_forward_at_least_one_class():
    with pytest.raises(GraphError, match="forwards no classes"):
        Link("a", "b", frozenset())


def test_graph_switches_every_harness_to_capture_output(router_contract):
    node = _router_node("r", router_contract)
    assert not node.harness.capture_output
    Graph("g", [node], (), entry="r")
    assert node.harness.capture_output


# --------------------------------------------------------------------------- #
# Composition
# --------------------------------------------------------------------------- #
def test_route_class_name_formats_hops_in_order():
    route = (("lb", "new_flow"), ("nat", "internal_new"))
    assert route_class_name(route) == f"lb:new_flow{HOP_SEPARATOR}nat:internal_new"


def test_composed_contract_enumerates_every_reachable_route():
    graph = lb_nat_router_graph()
    composed = graph.compose()
    names = set(composed.class_names())
    # 4 LB-terminal classes + 3 forwarded x (5 NAT-terminal + 2 forwarded
    # x 5 router classes) = 49 reachable routes.
    assert len(names) == 49
    assert "lb:short" in names  # terminal at the entry hop
    assert f"lb:new_flow{HOP_SEPARATOR}nat:no_ports" in names
    assert (
        f"lb:new_flow{HOP_SEPARATOR}nat:internal_new{HOP_SEPARATOR}router:ttl_expired"
        in names
    )
    assert all(name.startswith("lb:") for name in names)
    # Composed PCVs are the union of the hops' instance-qualified PCVs.
    variables = set(composed.variables())
    for node in graph.nodes.values():
        assert set(node.contract.variables()) <= variables


@pytest.mark.parametrize("spec", cli.GRAPH_MATRIX, ids=lambda spec: spec.name)
def test_graph_replayer_composes_the_graph_contract_only_when_read(spec, monkeypatch):
    graph = spec.bench_workloads(0, 10)[0].graph
    composed_by = []
    compose = Graph.compose

    def counted(self, *args, **kwargs):
        composed_by.append(self)
        return compose(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "compose", counted)
    replayer = GraphReplayer(graph, models=(ConservativeModel(),))
    assert composed_by == []
    # A replay's PCV maxima start at zero over the composed contract's PCVs.
    zeros = replayer.replay(()).max_pcvs
    assert composed_by == []
    composed = replayer.composed
    assert composed_by == [graph]
    assert replayer.composed is composed
    assert composed_by == [graph]
    assert zeros == {name: 0 for name in composed.variables()}


# --------------------------------------------------------------------------- #
# Churn schedules
# --------------------------------------------------------------------------- #
def test_churn_schedule_orders_and_merges_events():
    """Events sort by stream index; those at one index fire together, in given order."""
    schedule = ChurnSchedule(
        [backend_add(5, "lb", 1), expiry_jump(2, "lb", 10), backend_add(2, "lb", 2)]
    )
    assert [event.at for event in schedule.events] == [2, 2, 5]
    assert [event.kind for event in schedule.at(2)] == ["expiry_jump", "backend_add"]
    assert len(schedule.at(5)) == 1
    assert schedule.at(99) == ()


def test_route_update_requires_an_lpm_trie(router_contract):
    graph = lb_nat_router_graph()
    event = route_update(0, "lb", 0xC0000200, 24, 1)
    with pytest.raises(ValueError, match="no LpmTrie"):
        event.mutate(graph.nodes["lb"])
    # The router node accepts the same event.
    route_update(0, "router", 0xC0000200, 24, 1).mutate(graph.nodes["router"])


# --------------------------------------------------------------------------- #
# End-to-end replay
# --------------------------------------------------------------------------- #
def test_end_to_end_replay_holds_at_both_levels():
    """150 packets through LB -> NAT -> router with live churn: every hop
    within its own contract, every journey a composed route whose row is
    the sum of its hops."""
    workload = lb_nat_router_workloads(0, 150)[0]
    replayer = GraphReplayer(
        workload.graph, models=[ConservativeModel(), RealisticModel()]
    )
    result = replayer.replay(
        workload.stream, schedule=workload.schedule, workload=workload.name
    )
    assert result.packets == 150
    assert result.ok, result.violations[:5]
    for outcome in result.outcomes:
        # Per hop: classified, and measured <= predicted on every metric.
        for _, hop in outcome.hops:
            assert hop.class_name is not None
            for metric, value in hop.measured.items():
                assert value <= hop.predicted[metric]
        # End to end: a composed route resolved, and its row sums the hops.
        assert outcome.route_name is not None
        hops = [hop for _, hop in outcome.hops]
        for metric, value in outcome.measured.items():
            assert value == sum(hop.measured[metric] for hop in hops)
            assert outcome.predicted[metric] == sum(hop.predicted[metric] for hop in hops)
            assert value <= outcome.predicted[metric]
        for model, (measured_cycles, predicted_cycles) in outcome.cycles.items():
            assert measured_cycles == sum(hop.cycles[model][0] for hop in hops)
            assert predicted_cycles == sum(hop.cycles[model][1] for hop in hops)
            assert measured_cycles <= predicted_cycles
    # Each route row takes its maxima over those sums.
    for name, summary in result.route_summaries.items():
        routed = [outcome for outcome in result.outcomes if outcome.route_name == name]
        assert summary.packets == len(routed)
        for metric, value in summary.max_predicted.items():
            assert value == max(outcome.predicted[metric] for outcome in routed)
        for model, (measured_cycles, predicted_cycles) in summary.max_cycles.items():
            assert measured_cycles == max(outcome.cycles[model][0] for outcome in routed)
            assert predicted_cycles == max(outcome.cycles[model][1] for outcome in routed)
    # The full expected input-class coverage at every hop.
    seen = result.hop_classes_seen()
    for node, expected in workload.expected_hop_classes.items():
        assert set(expected) <= set(seen[node])
    # Churn visibly reshaped the run: the injected control frames were
    # classified (reconfig), and flow E flipped from no_route to routed
    # when the mid-stream route install landed.
    assert "reconfig" in seen["lb"]
    routes = sorted(result.route_summaries)
    # Every journey's route is an entry of the composed contract.
    assert set(routes) <= set(replayer.composed.class_names())
    assert f"lb:new_flow{HOP_SEPARATOR}nat:internal_new{HOP_SEPARATOR}router:no_route" in routes
    assert f"lb:new_flow{HOP_SEPARATOR}nat:internal_new{HOP_SEPARATOR}router:routed" in routes
    assert any("route 0x" in line for line in result.churn_log)
    assert result.control_outcomes and all(o.ok for _, o in result.control_outcomes)


def test_replay_is_deterministic_for_identical_stream_and_schedule():
    """Same capture-derived stream + same schedule => identical payloads."""

    def run():
        workload = lb_nat_router_workloads(7, 96)[0]
        replayer = GraphReplayer(workload.graph, models=[ConservativeModel()])
        return replayer.replay(
            workload.stream, schedule=workload.schedule, workload=workload.name
        ).to_json()

    assert run() == run()


def test_route_sums_bring_each_hop_to_the_graph_scale():
    """Counts add as they are; each hop's cycles are scaled to the graph's scale first."""

    def hop(scale, cycles):
        return PacketOutcome(0, "", "c", {}, (1, 2, cycles), (3, 4, 2 * cycles), ("m",), (), scale)

    outcome = GraphPacketOutcome(0, "", (("a", hop(2, 3)), ("b", hop(6, 5))), "r", ("m",), (), 6)
    assert outcome.measured_values == (2, 4, 3 * 3 + 5)
    assert outcome.predicted_values == (6, 8, 6 * 3 + 10)
    assert outcome.cycles == {"m": (Fraction(3, 2) + Fraction(5, 6), Fraction(3) + Fraction(5, 3))}


def test_route_rows_take_the_class_rows_json_shape():
    """Hop and route rows are class rows: the same keys, tails included, counts integers."""
    workload = lb_nat_router_workloads(7, 96)[0]
    result = GraphReplayer(workload.graph, models=[ConservativeModel()]).replay(
        workload.stream, schedule=workload.schedule, workload=workload.name
    )
    report = result.to_json()
    class_keys = {"packets", "violations", "max_measured", "max_predicted", "max_cycles"}
    class_keys.add("cycle_tails")
    rows = [row for classes in report["hops"].values() for row in classes.values()]
    assert report["routes"] and rows
    for row in [*rows, *report["routes"].values()]:
        assert set(row) == class_keys
        assert set(row["cycle_tails"]) == {"conservative"}
        for counts in (row["max_measured"], row["max_predicted"]):
            assert counts and all(type(value) is int for value in counts.values())


def test_unclassified_hops_terminate_the_route(router_contract):
    """A frame no contract class covers stops the walk without a route."""
    from repro.core.contract import PerformanceContract

    # Drop the "short" entry so a truncated frame classifies nowhere.
    doctored = PerformanceContract(
        "router",
        registry=router_contract.registry,
        entries=[
            entry
            for entry in router_contract.entries
            if entry.input_class.name != "short"
        ],
    )
    node = Node(name="r", harness=ROUTER.harness(routes=router_fib_routes()), contract=doctored)
    graph = Graph("solo", [node], (), entry="r")
    result = GraphReplayer(graph).replay([GraphFrame(packet=b"", time=0)])
    outcome = result.outcomes[0]
    assert outcome.route_name is None
    assert not outcome.ok
    assert "<unclassified>" in result.hop_summaries["r"]


def test_the_hop_bounds_sum_to_the_composed_route_bound():
    """The premise that lets the per-hop checks stand for the route check.

    At the merged hop PCVs, the hops' summed count predictions equal the
    composed entry, and their summed cycle predictions equal the composed
    cycle expression under the conservative and simulated models and never
    exceed it under the realistic one (the composed expression prices
    constant accesses over every structure of the graph, a superset of
    each hop's)."""
    workload = lb_nat_fw_router_workloads(0, 300)[0]
    graph = workload.graph
    models = (ConservativeModel(), RealisticModel(), SimulatedModel())
    replayer = GraphReplayer(graph, models=models)
    result = replayer.replay(workload.stream, schedule=workload.schedule)
    composed = replayer.composed
    zeros = {name: 0 for name in composed.variables()}
    structures = graph.structures()
    cycle_exprs = {}
    routed = [outcome for outcome in result.outcomes if outcome.route_name is not None]
    assert len(routed) > 250
    looser = 0
    for outcome in routed:
        entry = composed.entry_for(outcome.route_name)
        bindings = dict(zeros)
        for _, hop in outcome.hops:
            bindings.update(hop.pcvs)
        for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
            summed = sum(hop.predicted[metric] for _, hop in outcome.hops)
            assert summed == entry.expr(metric).evaluate(bindings)
        for model in models:
            key = (outcome.route_name, model.name)
            if key not in cycle_exprs:
                cycle_exprs[key] = model.cycles_expr(entry, structures=structures)
            composed_bound = cycle_exprs[key].evaluate(bindings)
            summed = sum(hop.cycles[model.name][1] for _, hop in outcome.hops)
            if model.name == "realistic":
                assert summed <= composed_bound
                looser += summed < composed_bound
            else:
                assert summed == composed_bound
    assert looser > 0


def test_graph_frames_are_slotted_and_carry_only_bytes_time_and_note():
    """Each hop's ingress builds its stimulus from the bytes and the stream clock."""
    (workload,) = lb_nat_fw_router_workloads(seed=2019, packets=500)
    frames = workload.stream
    assert len(frames) == 500
    assert not hasattr(frames[0], "__dict__")
    assert GraphFrame.__slots__ == ("packet", "time", "note")
