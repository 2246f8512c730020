"""The address stream is built only when a cache model reads it.

A structure's handlers build the addresses a call touched only while its
``record_accesses`` flag is on, and an NF harness writes its own flag
through to the structures it owns.  Replay under count-only models must
therefore compute no address at all, and replay under the cache
simulator must still record exactly one address per counted access.
"""

import random

import pytest

from repro import cli
from repro.hw import ConservativeModel, RealisticModel
from repro.net import GraphReplayer
from repro.nf import NF_MATRIX
from repro.nfil import Memory
from repro.structures import (
    ChainingHashMap,
    CountMinSketch,
    ExpiringMap,
    LpmTrie,
    MaglevTable,
    PortAllocator,
    Structure,
)
from repro.traffic.replayer import Replayer

SEED = 11
PACKETS = 200

#: Every function that computes a structure's model addresses.
ADDRESS_HELPERS = (
    (Structure, "slot_addr"),
    (LpmTrie, "_path_touched"),
    (ChainingHashMap, "chain_touched"),
    (CountMinSketch, "_counter_touched"),
    (MaglevTable, "_fill_touched"),
)


def _no_address(*args, **kwargs):
    raise AssertionError("an address was computed with no model recording them")


def _keep_traces(harness):
    """Shadow ``harness.run`` on the instance; return the list it fills."""
    traces = []
    run = harness.run

    def kept(stimulus):
        value, trace = run(stimulus)
        traces.append(trace)
        return value, trace

    harness.run = kept
    return traces


def _assert_one_address_per_access(traces, where):
    assert traces, where
    for number, trace in enumerate(traces):
        assert len(trace.accesses) == trace.total_memory_accesses(), (where, number)


@pytest.mark.parametrize("nf_name", [spec.name for spec, _ in NF_MATRIX])
def test_count_only_replay_computes_no_address(nf_name, nf_specs, gate_targets, monkeypatch):
    for owner, helper in ADDRESS_HELPERS:
        monkeypatch.setattr(owner, helper, _no_address)
    spec, workloads = nf_specs[nf_name]
    contract, _ = gate_targets[nf_name]
    families = workloads(seed=SEED, packets=PACKETS, **spec.bench)
    assert len(families) == 5
    for workload in families:
        models = (ConservativeModel(), RealisticModel())
        result = Replayer(workload.harness, contract, models=models).replay(
            workload.stimuli, workload=workload.name
        )
        assert result.ok, (workload.name, result.violations[:3])
    # The sabotage is live: the last stream, recorded, does reach a helper.
    last = families[-1]
    last.harness.record_accesses = True
    with pytest.raises(AssertionError, match="an address was computed"):
        Replayer(last.harness, contract).replay(last.stimuli)


@pytest.mark.parametrize("nf_name", [spec.name for spec, _ in NF_MATRIX])
def test_recorded_replay_has_one_address_per_counted_access(nf_name, nf_specs, gate_targets):
    spec, workloads = nf_specs[nf_name]
    contract, _ = gate_targets[nf_name]
    for workload in workloads(seed=SEED, packets=PACKETS, **spec.bench):
        # The replayer switches recording on after the harness was built.
        replayer = Replayer(workload.harness, contract, models=cli._bench_models())
        traces = _keep_traces(workload.harness)
        result = replayer.replay(workload.stimuli, workload=workload.name)
        assert result.ok, (workload.name, result.violations[:3])
        _assert_one_address_per_access(traces, workload.name)


@pytest.mark.parametrize("spec", cli.GRAPH_MATRIX, ids=lambda spec: spec.name)
def test_recorded_graph_replay_has_one_address_per_counted_access(spec):
    (workload,) = spec.bench_workloads(SEED, PACKETS)
    replayer = GraphReplayer(workload.graph, models=cli._bench_models())
    kept = {name: _keep_traces(node.harness) for name, node in workload.graph.nodes.items()}
    result = replayer.replay(workload.stream, schedule=workload.schedule)
    assert result.ok, result.violations[:3]
    for name, traces in kept.items():
        _assert_one_address_per_access(traces, name)


def _trie():
    trie = LpmTrie("rt")
    for prefix, length in ((0x0A000000, 8), (0x0A010000, 16), (0x0A010100, 24)):
        trie.add_route(prefix, length, length)
    return trie


def _map_args(rng, method):
    if method == "expire":
        return (rng.randrange(60),)
    key = rng.randrange(8)
    return (key, rng.randrange(100)) if method == "put" else (key,)


def _address_args(rng, method):
    prefix = rng.choice((0, 0x0A000000, 0x0A010000, 0x0A010100))
    return (prefix | rng.randrange(256),)


#: kind -> (a fresh instance, random arguments of one call of a method).
OP_STREAMS = {
    "chaining_hash_map": (lambda: ChainingHashMap("hm", capacity=4, buckets=2), _map_args),
    "expiring_map": (lambda: ExpiringMap("em", capacity=4, timeout=5, buckets=2), _map_args),
    "lpm_trie": (_trie, _address_args),
    "port_allocator": (
        lambda: PortAllocator("ports", pool=range(1024, 1028)),
        lambda rng, method: () if method == "alloc" else (rng.randrange(1022, 1030),),
    ),
    "maglev_table": (
        lambda: MaglevTable("lb", table_size=7, max_backends=3),
        lambda rng, method: (rng.randrange(1 << 20 if method == "lookup" else 6),),
    ),
    "count_min_sketch": (
        lambda: CountMinSketch("cms", depth=2, width=4, counter_max=3),
        lambda rng, method: (rng.randrange(6),),
    ),
}


@pytest.mark.parametrize("kind", sorted(OP_STREAMS))
def test_recording_changes_only_the_reported_addresses(kind):
    make, args_of = OP_STREAMS[kind]
    recording, counting = make(), make()
    assert recording.kind == kind and recording.record_accesses
    counting.record_accesses = False
    methods = [op.method for op in recording.ops()]
    rng = random.Random(SEED)
    memory = Memory()
    for _ in range(300):
        method = rng.choice(methods)
        args = args_of(rng, method)
        on = recording.handle(recording.extern_name(method), args, memory)
        off = counting.handle(counting.extern_name(method), args, memory)
        where = (kind, method, args)
        # Value, instructions, memory accesses and PCVs are identical.
        assert off == on._replace(accesses=()), where
        assert len(on.accesses) == on.memory_accesses > 0, where
