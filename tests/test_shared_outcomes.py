"""Replay outcomes share one copy of each distinct binding, prediction and measurement.

A replayer hash-conses what its outcomes hold: one read-only PCV mapping
per distinct binding (in observed order), one prediction per binding and
matched entry, one measured tuple per distinct value.  A graph replay
also shares one name per distinct route.  Sharing must change no value:
every prediction is still its entry's floors at the outcome's own
binding, and ``max_pcvs`` is still the fold of every outcome in packet
order.
"""

import math
from collections import defaultdict

import pytest

from repro import cli
from repro.core import Metric
from repro.hw import ConservativeModel, SimulatedModel
from repro.net import GraphReplayer
from repro.traffic.replayer import Replayer

SEED = 2019
PACKETS = 2000
NFS = ("bridge", "nat")
GRAPH = "lb_nat_fw_router"


def _models():
    return (ConservativeModel(), SimulatedModel())


@pytest.fixture(scope="module")
def nf_cells(nf_specs, gate_targets):
    """NF name -> (contract, zipf replay result) for the bridge and the NAT."""
    cells = {}
    for nf in NFS:
        spec, workloads = nf_specs[nf]
        contract, _ = gate_targets[nf]
        families = workloads(seed=SEED, packets=PACKETS, **spec.bench)
        workload = next(family for family in families if family.name == "zipf")
        replayer = Replayer(workload.harness, contract, models=_models())
        cells[nf] = (contract, replayer.replay(workload.stimuli, workload=workload.name))
    return cells


@pytest.fixture(scope="module")
def graph_run():
    """(graph, capture replay result) of the 4-hop graph, churn included."""
    spec = next(spec for spec in cli.GRAPH_MATRIX if spec.name == GRAPH)
    (workload,) = spec.bench_workloads(SEED, PACKETS)
    replayer = GraphReplayer(workload.graph, models=_models())
    result = replayer.replay(workload.stream, schedule=workload.schedule, workload=workload.name)
    return workload.graph, result


def _nf_executions(nf, result):
    return [(nf, outcome) for outcome in result.outcomes]


def _graph_executions(result):
    """``(node, outcome)`` of every hop execution, in the order replay absorbs them.

    Churn fires before the frame it is scheduled at, so a control
    execution comes before the hops of the packet with its index.
    """
    control = defaultdict(list)
    for node, outcome in result.control_outcomes:
        control[outcome.index].append((node, outcome))
    executions = []
    for packet in result.outcomes:
        executions += control.pop(packet.index, [])
        executions += packet.hops
    assert not control
    return executions


def _all_executions(nf_cells, graph_run):
    cells = [_nf_executions(nf, result) for nf, (_, result) in nf_cells.items()]
    return cells + [_graph_executions(graph_run[1])]


def _contracts(nf_cells, graph_run):
    contracts = {nf: contract for nf, (contract, _) in nf_cells.items()}
    contracts.update({name: node.contract for name, node in graph_run[0].nodes.items()})
    return contracts


def _assert_one_object_per_value(groups):
    """``groups`` maps each value to the ids of the objects holding it."""
    for value, ids in groups.items():
        assert len(ids) == 1, value


def test_equal_bindings_predictions_and_measurements_share_one_object(nf_cells, graph_run):
    for executions in _all_executions(nf_cells, graph_run):
        pcvs, predicted, measured = defaultdict(set), defaultdict(set), defaultdict(set)
        for node, outcome in executions:
            binding = tuple(outcome.pcvs.items())
            pcvs[node, binding].add(id(outcome.pcvs))
            predicted[node, outcome.class_name, binding].add(id(outcome.predicted_values))
            measured[node, outcome.measured_values].add(id(outcome.measured_values))
        for groups in (pcvs, predicted, measured):
            _assert_one_object_per_value(groups)
        # The stream repeats bindings: far fewer mappings than executions.
        assert 10 * len(pcvs) < len(executions)


def test_graph_outcomes_share_route_names(graph_run):
    _, result = graph_run
    names = defaultdict(set)
    for outcome in result.outcomes:
        names[outcome.route_name].add(id(outcome.route_name))
    _assert_one_object_per_value(names)
    assert None not in names and 10 * len(names) < result.packets


def test_an_outcome_pcvs_mapping_is_read_only(nf_cells, graph_run):
    bridge = nf_cells["bridge"][1].outcomes[0]
    (_, hop), *_ = graph_run[1].outcomes[0].hops
    for outcome in (bridge, hop):
        name = next(iter(outcome.pcvs))
        with pytest.raises(TypeError):
            outcome.pcvs[name] = 0


def test_every_prediction_is_its_entry_at_the_outcome_binding(nf_cells, graph_run):
    """A binding observed in several classes gets each class's own prediction."""
    contracts = _contracts(nf_cells, graph_run)
    zeros = {node: dict.fromkeys(c.variables(), 0) for node, c in contracts.items()}
    for executions in _all_executions(nf_cells, graph_run):
        classes_per_binding = defaultdict(set)
        for node, outcome in executions:
            entry = contracts[node].entry_for(outcome.class_name)
            bindings = {**zeros[node], **dict(outcome.pcvs)}
            expected = tuple(
                math.floor(entry.expr(metric).evaluate(bindings))
                for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES)
            )
            assert outcome.predicted_values[:2] == expected, (node, outcome.index)
            binding = tuple(outcome.pcvs.items())
            classes_per_binding[node, binding].add(outcome.class_name)
        # Bindings do span classes, so a memo keyed by binding alone would
        # hand one class's prediction to another.
        assert max(len(classes) for classes in classes_per_binding.values()) > 1


def _fold(zero, executions):
    """The reference ``max_pcvs``: every outcome folded in order, from ``zero``."""
    folded = dict(zero)
    for _, outcome in executions:
        for name, value in outcome.pcvs.items():
            if value > folded.get(name, 0):
                folded[name] = value
    return folded


def test_max_pcvs_is_the_fold_of_every_outcome_in_packet_order(nf_cells, graph_run):
    for nf, (contract, result) in nf_cells.items():
        zero = dict.fromkeys(contract.variables(), 0)
        expected = _fold(zero, _nf_executions(nf, result))
        assert list(result.max_pcvs.items()) == list(expected.items()), nf
    graph, result = graph_run
    zero = {name: 0 for node in graph.nodes.values() for name in node.contract.variables()}
    expected = _fold(zero, _graph_executions(result))
    assert list(result.max_pcvs.items()) == list(expected.items())
