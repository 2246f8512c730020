"""Dedicated coverage for contract composition (`repro.core.composition`),
including the end-to-end chain check: composing the two real NF contracts
as a linear chain and cross-checking the chain bound against chained
concrete execution."""

import random

import pytest

from repro.core import (
    ContractEntry,
    InputClass,
    Metric,
    PCV,
    PCVRegistry,
    PerfExpr,
    PerformanceContract,
    compose_graph_contracts,
    naive_add_contracts,
    route_class_name,
)
from repro.nf.bridge import (
    BRIDGE_FUNCTION,
    PKT_BASE,
    bridge_replay_env,
    build_bridge_module,
    generate_bridge_contract,
    make_bridge_table,
)
from repro.nf.router import (
    ROUTER_FUNCTION,
    build_router_module,
    generate_router_contract,
    ipv4_packet,
    make_routing_table,
    router_replay_env,
)
from repro.nfil import Interpreter, Memory


def _contract(name, entries, pcvs=()):
    return PerformanceContract(name, registry=PCVRegistry(pcvs), entries=entries)


def _entry(name, instr, mem=None):
    exprs = {Metric.INSTRUCTIONS: instr}
    if mem is not None:
        exprs[Metric.MEMORY_ACCESSES] = mem
    return ContractEntry(input_class=InputClass(name), exprs=exprs)


def _chain(**contracts):
    """Compose a linear chain of named nodes: every class forwards to the next."""
    names = list(contracts)
    following = dict(zip(names, names[1:]))
    return compose_graph_contracts(
        "chain", contracts, names[0], lambda node, _: following.get(node)
    )


# --------------------------------------------------------------------------- #
# Unit coverage
# --------------------------------------------------------------------------- #
def test_compose_sums_expressions_per_combination():
    a = _contract(
        "a",
        [_entry("x", PerfExpr.from_terms(t=2, const=5), PerfExpr.constant(1))],
        [PCV("t", "traversals", max_value=4)],
    )
    b = _contract(
        "b",
        [
            _entry("y", PerfExpr.constant(7), PerfExpr.constant(2)),
            _entry("z", PerfExpr.from_terms(d=3), PerfExpr.constant(0)),
        ],
        [PCV("d", "depth", max_value=33)],
    )
    chain = _chain(a=a, b=b)
    assert chain.class_names() == ["a:x > b:y", "a:x > b:z"]
    xy = chain.entry_for("a:x > b:y")
    assert xy.expr(Metric.INSTRUCTIONS) == PerfExpr.from_terms(t=2, const=12)
    assert xy.expr(Metric.MEMORY_ACCESSES) == PerfExpr.constant(3)
    xz = chain.entry_for("a:x > b:z")
    assert xz.expr(Metric.INSTRUCTIONS) == PerfExpr.from_terms(t=2, d=3, const=5)
    # The merged registry carries both NFs' PCVs (and hence their bounds).
    assert chain.registry.names() == ["d", "t"]
    assert chain.upper_bound(Metric.INSTRUCTIONS) == 2 * 4 + 3 * 33 + 5


def test_compose_rejects_degenerate_inputs():
    a = _contract("a", [_entry("x", PerfExpr.constant(1))])
    with pytest.raises(ValueError, match="has no contract"):
        compose_graph_contracts("chain", {"a": a}, "b", lambda node, _: None)
    with pytest.raises(ValueError, match="no entries to compose"):
        _chain(empty=_contract("empty", []))
    with pytest.raises(ValueError, match="unknown node"):
        compose_graph_contracts("chain", {"a": a}, "a", lambda node, _: "ghost")
    with pytest.raises(ValueError, match="cyclic route a -> a"):
        compose_graph_contracts("chain", {"a": a}, "a", lambda node, _: "a")


def test_compose_single_contract_is_identity_on_exprs():
    a = _contract("a", [_entry("x", PerfExpr.constant(9))])
    chain = _chain(a=a)
    assert chain.class_names() == ["a:x"]
    assert chain.entry_for("a:x").expr(Metric.INSTRUCTIONS) == PerfExpr.constant(9)


def test_naive_add_takes_per_contract_envelopes():
    a = _contract(
        "a",
        [
            _entry("cheap", PerfExpr.constant(5)),
            _entry("dear", PerfExpr.from_terms(t=6, const=2)),
        ],
        [PCV("t", "traversals", max_value=8)],
    )
    b = _contract("b", [_entry("only", PerfExpr.constant(11))])
    summed = naive_add_contracts("chain", [a, b])
    assert summed.class_names() == ["worst_case"]
    entry = summed.entry_for("worst_case")
    # Envelope of a is max(5, 2) + 6t monomial-wise, plus b's 11.
    assert entry.expr(Metric.INSTRUCTIONS) == PerfExpr.from_terms(t=6, const=16)


def test_naive_add_rejects_empty_input():
    with pytest.raises(ValueError):
        naive_add_contracts("chain", [])


def test_composed_entries_classify_by_name_only():
    a = _contract("a", [_entry("x", PerfExpr.constant(1))])
    chain = _chain(a=a)
    # No paths and no predicate: the entry covers everything.
    assert chain.entry_for("a:x").covers({"anything": 42})


# --------------------------------------------------------------------------- #
# End-to-end: bridge → router chain
# --------------------------------------------------------------------------- #
def test_chain_of_real_nf_contracts_bounds_chained_execution():
    """Compose the bridge and router contracts as a chain (every bridge
    class forwards to the router), then run both NFs back to back
    concretely: the composed entry for the observed class pair must bound
    the summed traced cost of each chained execution."""
    bridge_contract = generate_bridge_contract(capacity=16, timeout=50)
    router_contract = generate_router_contract()
    chain = _chain(bridge=bridge_contract, router=router_contract)
    assert len(chain) == len(bridge_contract) * len(router_contract)

    bridge = Interpreter(build_bridge_module(), handler=make_bridge_table(16, timeout=50))
    fib = make_routing_table()
    fib.add_route(0x0A000000, 8, 1)
    fib.add_route(0xC0A80000, 16, 2)
    router = Interpreter(build_router_module(), handler=fib)

    rng = random.Random(11)
    macs = [bytes(rng.randrange(256) for _ in range(6)) for _ in range(8)]
    ips = [0x0A000001 + rng.randrange(1 << 16) for _ in range(4)] + [
        rng.randrange(1 << 32) for _ in range(4)
    ]
    pairs_seen = set()
    for n in range(120):
        frame = rng.choice(macs) + rng.choice(macs) + b"\x08\x00" + bytes(40)
        port = rng.randrange(64)
        memory = Memory()
        memory.write_bytes(PKT_BASE, frame)
        _, bridge_trace = bridge.run(
            BRIDGE_FUNCTION, [PKT_BASE, len(frame), port, n * 2], memory=memory
        )
        packet = ipv4_packet(rng.choice(ips), ttl=rng.choice((1, 64)))
        memory = Memory()
        memory.write_bytes(PKT_BASE, packet)
        _, router_trace = router.run(ROUTER_FUNCTION, [PKT_BASE, len(packet)], memory=memory)

        bridge_entry = bridge_contract.classify(
            bridge_replay_env(frame, len(frame), port, n * 2, bridge_trace)
        )
        router_entry = router_contract.classify(
            router_replay_env(packet, len(packet), router_trace)
        )
        assert bridge_entry is not None and router_entry is not None
        pair = route_class_name(
            (("bridge", bridge_entry.input_class.name), ("router", router_entry.input_class.name))
        )
        pairs_seen.add(pair)
        chained = chain.entry_for(pair)

        bindings = {"bridge_map.e": 0, "bridge_map.t": 0, "bridge_map.w": 0, "rt.d": 0}
        bindings.update(bridge_trace.pcv_bindings())
        bindings.update(router_trace.pcv_bindings())
        total_instr = bridge_trace.total_instructions() + router_trace.total_instructions()
        total_mem = (
            bridge_trace.total_memory_accesses() + router_trace.total_memory_accesses()
        )
        assert chained.evaluate(Metric.INSTRUCTIONS, bindings) >= total_instr
        assert chained.evaluate(Metric.MEMORY_ACCESSES, bindings) >= total_mem

    assert len(pairs_seen) >= 3  # the workload exercised several class pairs