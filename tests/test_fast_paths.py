"""Replay's fast paths against their references.

Each part of a scored execution that skips work keeps a reference it must
equal: the binding the trace folds while it records calls against a fold
over its calls; the argument list an ``NFHarness`` lays out once against
the one ``scalars_for`` resolves; and the replayer's one-comparison green
path against the full violation scan.  (The charge programs and the cache
walk are checked in ``test_structures.py`` and ``test_cachesim.py``.)
"""

from dataclasses import replace

import pytest

from nfil_reference import reference_binding
from repro.core import PCVRegistry, PerformanceContract
from repro.hw import ConservativeModel, SimulatedModel
from repro.nf import NF_MATRIX
from repro.nf.bridge import generate_bridge_contract
from repro.nf.workloads import bridge_adversarial, bridge_workloads
from repro.nfil import Memory
from repro.nfil.tracer import ExecutionTrace
from repro.traffic import Replayer, Stimulus

SEED = 2019
IDS = [spec.name for spec, _ in NF_MATRIX]


@pytest.mark.parametrize("spec, factory", NF_MATRIX, ids=IDS)
def test_the_folded_binding_equals_a_fold_over_the_calls(spec, factory):
    """Values and key order, every family at 2,000 packets."""
    executions = zeros = 0
    for workload in factory(seed=SEED, packets=2000, **spec.bench):
        for index, stimulus in enumerate(workload.stimuli):
            _, trace = workload.harness.run(stimulus)
            want = reference_binding(trace)
            where = (spec.name, workload.name, index)
            assert list(trace.binding.items()) == list(want.items()), where
            copied = trace.pcv_bindings()
            assert copied == want and copied is not trace.binding, where
            executions += 1
            zeros += 0 in want.values()
    assert executions >= 4 * 2000
    # The zero-observation rule is exercised wherever the NF has PCVs that can read 0.
    assert zeros or spec.name in ("router", "monitor")


class _Capture:
    """Stands in for a harness's interpreter: keeps each call, runs nothing."""

    def __init__(self):
        self.calls = []

    def run(self, function, args, *, memory, trace):
        self.calls.append((function, args, memory, trace))
        return None, trace


def _reference_arguments(harness, stimulus):
    scalars = harness.scalars_for(stimulus)
    return [harness.pkt_base] + [scalars[name] for name in harness.scalar_order]


@pytest.mark.parametrize("spec, factory", NF_MATRIX, ids=IDS)
def test_harness_arguments_follow_the_reference_layout(spec, factory):
    """Every stimulus of every family: the argument list and the packet window."""
    for workload in factory(seed=SEED, packets=300, **spec.bench):
        harness = workload.harness
        harness._interpreter = capture = _Capture()
        for index, stimulus in enumerate(workload.stimuli):
            harness.run(stimulus)
            function, args, memory, trace = capture.calls[-1]
            where = (spec.name, workload.name, index)
            assert function == harness.function, where
            assert args == _reference_arguments(harness, stimulus), where
            packet = stimulus.packet
            assert memory.read_bytes(harness.pkt_base, len(packet)) == packet, where
            assert trace.record_accesses == harness.record_accesses, where


@pytest.mark.parametrize("spec", [spec for spec, _ in NF_MATRIX], ids=IDS)
def test_a_missing_scalar_raises_the_reference_key_error(spec):
    harness = spec.harness(**spec.bench)
    for missing in harness.scalar_order[1:]:
        scalars = {name: 1 for name in harness.scalar_order if name != missing}
        stimulus = Stimulus(packet=b"\x00" * 60, scalars=scalars)
        with pytest.raises(KeyError) as reference:
            harness.scalars_for(stimulus)
        with pytest.raises(KeyError) as run:
            harness.run(stimulus)
        assert str(run.value) == str(reference.value)
        assert f"{spec.name}: stimulus missing scalars [{missing!r}]" in str(run.value)


def _observed(trace):
    return (
        trace.instructions,
        list(trace.category_counts.items()),
        trace.mem_reads,
        trace.mem_writes,
        trace.extern_calls,
        list(trace.binding.items()),
    )


def _reference_run(harness, stimulus):
    """``NFHarness.run`` from ``scalars_for``, a ``Memory`` written by ``write_bytes``."""
    memory = Memory()
    memory.write_bytes(harness.pkt_base, stimulus.packet)
    trace = ExecutionTrace(record_accesses=harness.record_accesses)
    args = _reference_arguments(harness, stimulus)
    return harness._interpreter.run(harness.function, args, memory=memory, trace=trace)


@pytest.mark.parametrize("spec", [spec for spec, _ in NF_MATRIX], ids=IDS)
def test_an_empty_packet_runs_as_the_reference_path(spec):
    """With ``len`` defaulted to 0, and with a ``len`` that reads past the empty window."""
    fast, slow = spec.harness(**spec.bench), spec.harness(**spec.bench)
    scalars = {name: 1 for name in fast.scalar_order if name != "len"}
    for stimulus in (
        Stimulus(packet=b"", scalars=scalars),
        Stimulus(packet=b"", scalars={**scalars, "len": 60}),
    ):
        value, trace = fast.run(stimulus)
        want_value, want_trace = _reference_run(slow, stimulus)
        assert value == want_value
        assert _observed(trace) == _observed(want_trace)
        assert trace.instructions > 0


def _pcv_messages(result):
    """Each outcome's messages, after checking that all of its columns hold."""
    messages = []
    for outcome in result.outcomes:
        measured, predicted = outcome.measured_values, outcome.predicted_values
        assert len(measured) == len(predicted) == 2 + len(outcome.models)
        assert all(m <= p for m, p in zip(measured, predicted)), outcome.index
        prefix = f"packet {outcome.index} ({outcome.class_name}): PCV "
        assert all(message.startswith(prefix) for message in outcome.violations)
        messages.append(outcome.violations)
    return messages


def test_pcv_problems_are_reported_although_every_column_holds():
    """Counts and cycles hold, so only the binding's problem speaks: an
    undeclared PCV, and, priced by two models, a PCV above its bound."""
    contract = generate_bridge_contract(16, 50)

    def doctored(registry):
        return PerformanceContract("bridge", registry=registry, entries=contract.entries)

    undeclared = PCVRegistry(p for p in contract.registry if p.name != "bridge_map.w")
    workload = bridge_workloads(packets=40)[0]
    result = Replayer(workload.harness, doctored(undeclared)).replay(workload.stimuli)
    messages = _pcv_messages(result)
    assert len(messages) == 40
    assert all(
        len(found) == 1 and found[0].endswith(" is not declared by the contract")
        for found in messages
    )
    lowered = PCVRegistry(
        replace(p, max_value=15) if p.name == "bridge_map.t" else p for p in contract.registry
    )
    workload = bridge_adversarial(capacity=16, timeout=50)
    models = (ConservativeModel(), SimulatedModel())
    result = Replayer(workload.harness, doctored(lowered), models=models).replay(
        workload.stimuli
    )
    flagged = [found for found in _pcv_messages(result) if found]
    assert flagged
    problem = "PCV bridge_map.t observed at 16 exceeds its declared bound 15"
    assert all(len(found) == 1 and found[0].endswith(problem) for found in flagged)
