"""The replayer's compiled classifier against its definition.

The replay environment (:func:`repro.nf.replay.replay_env`, built by
``NFHarness.env``) defines which symbol values an execution corresponds
to, and a contract classifies an execution as the first entry one of
whose path conditions holds on it.  ``Replayer.classify`` reads the same
values in place, through the source ``NFHarness.replay_reads`` renders
next to ``NFHarness.env``; every case here compares it with
``Path.covers`` (``evaluate`` of each constraint) over the environment.
"""

from __future__ import annotations

import pytest

from repro.nf import BRIDGE, NF_MATRIX
from repro.nf.bridge import generate_bridge_contract
from repro.nf.router import generate_router_contract
from repro.nf.workloads import WORKLOAD_NAMES, bridge_workloads
from repro.sym.expr import free_symbols
from repro.traffic import Replayer, Stimulus

PACKETS = 300


def _reference(contract):
    """``env -> class name or None``: the first entry in order one of whose paths holds.

    An entry without paths always holds.
    """

    def classify(env):
        return next(
            (
                entry.input_class.name
                for entry in contract.entries
                if not entry.paths or any(path.covers(env) for path in entry.paths)
            ),
            None,
        )

    return classify


def _compare(harness, contract, stimuli, *, doctor=lambda trace: trace):
    """Run ``stimuli`` and compare both classifications of each; return the classes seen."""
    replayer = Replayer(harness, contract)
    reference = _reference(contract)
    seen = set()
    for index, stimulus in enumerate(stimuli):
        _, trace = harness.run(stimulus)
        trace = doctor(trace)
        want = reference(harness.env(stimulus, trace))
        assert replayer.classify(stimulus, trace) == want, (index, stimulus)
        seen.add(want)
    return seen


@pytest.mark.parametrize("spec, factory", NF_MATRIX, ids=[spec.name for spec, _ in NF_MATRIX])
def test_every_bench_stream_classifies_as_the_environment_does(spec, factory):
    contract = spec.contract(**spec.bench)
    seen = set()
    for workload in factory(seed=2019, packets=PACKETS, **spec.bench):
        assert workload.name in WORKLOAD_NAMES
        seen |= _compare(workload.harness, contract, workload.stimuli)
    assert seen == set(contract.class_names())


@pytest.mark.parametrize("spec, factory", NF_MATRIX, ids=[spec.name for spec, _ in NF_MATRIX])
def test_packets_shorter_than_the_symbolic_bytes_read_zero_past_their_end(spec, factory):
    """Every prefix of a few frames, from empty to one byte past the symbolic span."""
    uniform = factory(seed=7, packets=6, **spec.bench)[0]
    stimuli = [
        Stimulus(stimulus.packet[:length], stimulus.scalars, stimulus.note)
        for stimulus in uniform.stimuli
        for length in range(spec.sym_bytes + 2)
    ]
    _compare(uniform.harness, spec.contract(**spec.bench), stimuli)


def test_the_router_contract_over_bridge_traffic():
    """A contract reading bytes past the harness's symbolic span reads them as 0."""
    router = generate_router_contract()
    read = {
        name
        for entry in router.entries
        for path in entry.paths
        for constraint in path.constraints
        for name in free_symbols(constraint)
    }
    assert "pkt[22]" in read and BRIDGE.sym_bytes <= 22
    for workload in bridge_workloads(seed=3, packets=PACKETS):
        _compare(workload.harness, router, workload.stimuli)


def test_an_extern_output_of_another_call_name_reads_zero():
    """Rename each bridge execution's third call: ``bridge_map_get#2`` is then
    unbound in the environment, whatever that call returned."""
    contract = generate_bridge_contract(16, 50)
    workload = bridge_workloads(seed=5, packets=PACKETS)[0]

    def renamed(trace):
        calls = trace.extern_calls
        if len(calls) > 2:
            assert calls[2].name == "bridge_map_get"
            calls[2] = calls[2]._replace(name="bridge_map_put")
        return trace

    seen = _compare(workload.harness, contract, workload.stimuli, doctor=renamed)
    assert "miss" not in seen
