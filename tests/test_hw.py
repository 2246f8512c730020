"""Hardware cycle models: pricing, derivation, and measured ≤ predicted."""

from fractions import Fraction

import pytest

from repro.core import ContractEntry, InputClass, Metric, PerfExpr, PerformanceContract
from repro.core.pcv import PCV, PCVRegistry
from repro.hw import ConservativeModel, HwSpec, RealisticModel
from repro.nf.workloads import bridge_workloads
from repro.nf.bridge import BRIDGE, generate_bridge_contract
from repro.nfil.tracer import ExecutionTrace
from repro.structures import ChainingHashMap
from repro.traffic import Replayer

SPEC = HwSpec(issue_width=2, l1_latency=4, dram_latency=100)


# The toy contract is written over the instance-qualified PCV the map
# instance "flow_map" emits, so hit-rate pricing can resolve its owner.
T = "flow_map.t"


def _toy_entry():
    return ContractEntry(
        input_class=InputClass("all"),
        exprs={
            Metric.INSTRUCTIONS: PerfExpr.from_terms(const=5, **{T: 6}),
            Metric.MEMORY_ACCESSES: PerfExpr.from_terms(const=2, **{T: 2}),
        },
    )


def _toy_contract():
    registry = PCVRegistry([PCV(T, "traversals", structure="flow_map", max_value=8)])
    contract = PerformanceContract("toy", registry=registry)
    contract.add_entry(_toy_entry())
    return contract


def test_hw_spec_validation():
    with pytest.raises(ValueError):
        HwSpec(issue_width=0)
    with pytest.raises(ValueError):
        HwSpec(l1_latency=200, dram_latency=100)


def test_conservative_prices_every_access_at_dram():
    model = ConservativeModel(SPEC)
    expr = model.cycles_expr(_toy_entry())
    # 6t + 5 instructions at CPI 1, (2t + 2) accesses at 100 cycles.
    assert expr == PerfExpr.from_terms(const=205, **{T: 206})


def test_realistic_prices_structure_accesses_by_hit_rate():
    table = ChainingHashMap("flow_map", capacity=8)
    model = RealisticModel(SPEC, hit_rates={"chaining_hash_map": Fraction(1, 2)})
    expr = model.cycles_expr(_toy_entry(), structures=(table,))
    blended = Fraction(1, 2) * 4 + Fraction(1, 2) * 100  # 52
    # Instructions amortise over the issue width; the t term belongs to
    # the map; the constant term is priced at max(stateless, structure).
    expected = (
        PerfExpr.from_terms(const=5, **{T: 6}).scaled(Fraction(1, 2))
        + PerfExpr.from_terms(**{T: 2}).scaled(blended)
        + PerfExpr.constant(2 * blended)
    )
    assert expr == expected


def test_realistic_unknown_structure_gets_no_locality():
    model = RealisticModel(SPEC)
    # No structures given: the PCV has no owner, so its accesses are
    # priced at the unknown-producer worst case (DRAM).
    expr = model.cycles_expr(_toy_entry())
    assert expr.coefficient(T) == Fraction(6, 2) + 2 * 100


def test_realistic_hit_rate_validation():
    with pytest.raises(ValueError):
        RealisticModel(SPEC, hit_rates={"lpm_trie": 1.5})


def test_hit_rate_resolution_prefers_instance_over_kind():
    table = ChainingHashMap("flow_map", capacity=8)
    model = RealisticModel(
        SPEC, hit_rates={"chaining_hash_map": Fraction(1, 2), "flow_map": Fraction(1, 4)}
    )
    assert model.hit_rate(table) == Fraction(1, 4)


def test_measure_prices_a_hand_built_trace():
    table = ChainingHashMap("flow_map", capacity=8)
    trace = ExecutionTrace()
    for _ in range(10):
        trace.record_instruction("binop")
    trace.record_access(0x1000, 4, "load")
    trace.record_access(0x1000, 4, "store")
    trace.record_extern("flow_map_get", (7,), 3, instructions=11, memory_accesses=4, pcvs={"t": 1})
    conservative = ConservativeModel(SPEC)
    # (10 stateless + 11 extern) instructions + 6 accesses at DRAM.
    assert conservative.measure(trace, structures=(table,)) == 21 + 6 * 100
    realistic = RealisticModel(SPEC, hit_rates={"chaining_hash_map": Fraction(1, 2)})
    blended = Fraction(52)
    assert realistic.measure(trace, structures=(table,)) == (
        Fraction(21, 2) + 2 * 4 + 4 * blended
    )


def test_call_owner_resolution_is_by_exact_extern_name():
    """An instance whose name prefixes another's must not steal its calls."""
    fib = ChainingHashMap("fib", capacity=8)
    fib_cache = ChainingHashMap("fib_cache", capacity=8)
    model = RealisticModel(SPEC)
    owners = model.call_owners((fib, fib_cache))
    assert owners["fib_get"] is fib
    assert owners["fib_cache_get"] is fib_cache
    trace = ExecutionTrace()
    trace.record_extern("fib_cache_get", (1,), 2, memory_accesses=10, pcvs={"t": 0})
    priced = RealisticModel(
        SPEC, hit_rates={"fib": Fraction(1), "fib_cache": Fraction(0)}
    ).measure(trace, structures=(fib, fib_cache))
    # All-miss pricing for fib_cache, not fib's all-hit pricing.
    assert priced == 10 * SPEC.dram_latency


def test_derive_adds_a_cycles_column():
    contract = _toy_contract()
    model = ConservativeModel(SPEC)
    derived = model.derive(contract)
    assert derived.nf_name == "toy@conservative"
    assert derived.class_names() == contract.class_names()
    entry = derived.entry_for("all")
    assert Metric.CYCLES in entry.exprs
    assert entry.expr(Metric.INSTRUCTIONS) == _toy_entry().expr(Metric.INSTRUCTIONS)
    assert "cycles" in derived.render()


def test_envelope_bounds_any_binding():
    contract = _toy_contract()
    cycles = ConservativeModel(SPEC).cycles_expr(contract.entry_for("all"))
    envelope = cycles.upper_bound(contract.registry.default_bounds())
    for t in range(9):
        assert cycles.evaluate({T: t}) <= envelope
    assert cycles.evaluate({T: 8}) == envelope


def test_bridge_replay_measured_within_predicted_for_both_models():
    """The evaluation-loop invariant, directly: for every replayed packet
    the model-priced trace is bounded by the model-priced contract entry."""
    contract = generate_bridge_contract(16, 50)
    models = (ConservativeModel(SPEC), RealisticModel(SPEC))
    for workload in bridge_workloads(packets=60):
        result = Replayer(workload.harness, contract, models=models).replay(
            workload.stimuli, workload=workload.name
        )
        assert result.ok, result.violations[:3]
        for outcome in result.outcomes:
            for name, (measured, predicted) in outcome.cycles.items():
                assert measured <= predicted, (workload.name, outcome.index, name)


def test_conservative_never_cheaper_than_realistic_on_a_trace():
    harness = BRIDGE.harness(capacity=16, timeout=50)
    contract = generate_bridge_contract(16, 50)
    conservative, realistic = ConservativeModel(SPEC), RealisticModel(SPEC)
    workload = bridge_workloads(packets=40)[0]
    result = Replayer(
        workload.harness, contract, models=(conservative, realistic)
    ).replay(workload.stimuli)
    assert harness.structures  # the harness exposes its structures
    for outcome in result.outcomes:
        assert outcome.cycles["conservative"][0] >= outcome.cycles["realistic"][0]
