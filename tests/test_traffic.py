"""Traffic layer: packet builders, samplers, workloads and the replayer."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from repro.core import Metric
from repro.hw import ConservativeModel, RealisticModel, SimulatedModel
from repro.nf import NF_MATRIX
from repro.nf import workloads as nf_workloads
from repro.nf.bridge import generate_bridge_contract
from repro.nf.router import generate_router_contract, ipv4_packet
from repro.nf.workloads import (
    bridge_adversarial,
    bridge_workloads,
    colliding_keys,
    colliding_mac_keys,
    monitor_scan_sweep,
    monitor_workloads,
    router_adversarial,
    router_scan_sweep,
    router_workloads,
)
from repro.structures import ChainingHashMap
from repro.traffic import (
    ClassSummary,
    Replayer,
    Stimulus,
    ethernet_frame,
    ipv4_address,
    ipv4_frame,
    mac_bytes,
    uniform_indices,
    zipf_indices,
    zipf_weights,
)


# --------------------------------------------------------------------------- #
# Packets
# --------------------------------------------------------------------------- #
def test_mac_bytes_little_endian_roundtrip():
    assert mac_bytes(0x0000A1B2C3D4E5F6 & ((1 << 48) - 1)) == bytes(
        [0xF6, 0xE5, 0xD4, 0xC3, 0xB2, 0xA1]
    )
    with pytest.raises(ValueError):
        mac_bytes(1 << 48)


def test_ethernet_frame_layout():
    frame = ethernet_frame(0x1122, 0x3344, payload=10)
    assert len(frame) == 14 + 10
    assert frame[0:6] == mac_bytes(0x1122)
    assert frame[6:12] == mac_bytes(0x3344)
    assert frame[12:14] == b"\x08\x00"
    with pytest.raises(ValueError):
        ethernet_frame(b"\x00" * 5, 0)


def test_ipv4_frame_layout_and_delegation():
    frame = ipv4_frame([10, 20, 30, 40], ttl=7)
    assert frame[12:14] == b"\x08\x00"
    assert frame[22] == 7
    assert frame[30:34] == bytes([10, 20, 30, 40])
    # The router's historical helper is the same builder.
    assert ipv4_packet([10, 20, 30, 40], ttl=7) == frame
    with pytest.raises(ValueError):
        ipv4_frame([1, 2, 3])
    with pytest.raises(ValueError):
        ipv4_frame(0, ttl=300)
    assert ipv4_address(0x0A141E28) == ipv4_address([10, 20, 30, 40])


# --------------------------------------------------------------------------- #
# Samplers
# --------------------------------------------------------------------------- #
def test_samplers_are_deterministic_under_a_seed():
    assert uniform_indices(random.Random(7), 10, 50) == uniform_indices(random.Random(7), 10, 50)
    assert zipf_indices(random.Random(7), 10, 50) == zipf_indices(random.Random(7), 10, 50)


def test_zipf_is_head_heavy():
    draws = zipf_indices(random.Random(3), 50, 4000)
    head = draws.count(0)
    tail = draws.count(49)
    assert head > 10 * max(tail, 1)


def test_sampler_validation():
    with pytest.raises(ValueError):
        uniform_indices(random.Random(0), 0, 1)
    with pytest.raises(ValueError):
        zipf_weights(10, s=0)


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def test_colliding_mac_keys_share_one_bucket():
    keys = colliding_mac_keys(16)
    probe = ChainingHashMap("probe", capacity=16)
    buckets = {probe._hash(key) for key in keys}
    assert len(keys) == 16 and len(set(keys)) == 16
    assert len(buckets) == 1


def test_colliding_keys_may_end_on_the_last_key_before_stop():
    # 1, 5 and 9 share a bucket of 4; 9 is the last key below stop.
    assert colliding_keys(3, buckets=4, start=1, stop=10) == [1, 5, 9]
    with pytest.raises(RuntimeError, match="colliding keys"):
        colliding_keys(4, buckets=4, start=1, stop=10)


def test_adversarial_expectations_match_registry_bounds():
    bridge = bridge_adversarial(capacity=16, timeout=50)
    registry = bridge.harness.structures[0].registry()
    for pcv, bound in bridge.expected_worst.items():
        assert registry.get(pcv).max_value == bound
    router = router_adversarial()
    assert router.expected_worst == {"rt.d": 33}
    assert router.harness.structures[0].registry().get("rt.d").max_value == 33


def test_bridge_adversarial_hits_every_pcv_bound():
    workload = bridge_adversarial(capacity=16, timeout=50)
    contract = generate_bridge_contract(16, 50)
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    for pcv, bound in workload.expected_worst.items():
        assert result.max_pcvs[pcv] == bound, pcv


def test_router_adversarial_walks_the_full_trie_depth():
    workload = router_adversarial()
    contract = generate_router_contract()
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    assert result.max_pcvs["rt.d"] == 33
    routed = [outcome for outcome in result.outcomes if outcome.class_name == "routed"]
    worst = max(routed, key=lambda outcome: outcome.pcvs.get("rt.d", 0))
    assert worst.note == "worst_d"


def test_workload_streams_cover_every_contract_class():
    bridge_classes = set()
    for workload in bridge_workloads(packets=120):
        contract = generate_bridge_contract(16, 50)
        result = Replayer(workload.harness, contract).replay(workload.stimuli)
        assert result.ok
        bridge_classes.update(result.classes_seen())
    assert bridge_classes >= {"short", "miss", "hairpin", "hit"}
    router_classes = set()
    for workload in router_workloads(packets=120):
        contract = generate_router_contract()
        result = Replayer(workload.harness, contract).replay(workload.stimuli)
        assert result.ok
        router_classes.update(result.classes_seen())
    assert router_classes >= {"short", "non_ip", "ttl_expired", "no_route", "routed"}


@pytest.mark.parametrize("spec, factory", NF_MATRIX, ids=[spec.name for spec, _ in NF_MATRIX])
def test_factories_build_each_stream_on_its_first_read(spec, factory, monkeypatch):
    made = []

    def counted(*args, **kwargs):
        made.append(Stimulus(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(nf_workloads, "Stimulus", counted)
    workloads = {w.name: w for w in factory(seed=7, packets=200, **spec.bench)}
    # Only the adversarial stream, a few dozen crafted frames, is built eagerly.
    assert len(made) == len(workloads["adversarial"].stimuli)
    zipf_alone = workloads["zipf"].stimuli
    again = {w.name: w for w in factory(seed=7, packets=200, **spec.bench)}
    assert again["uniform"].stimuli and again["zipf"].stimuli == zipf_alone


@pytest.mark.parametrize("spec, factory", NF_MATRIX, ids=[spec.name for spec, _ in NF_MATRIX])
def test_reading_zipf_builds_only_zipf(spec, factory, monkeypatch):
    """Zipf takes uniform's draws from the shared RNG, not its stimuli."""
    made = []

    def counted(*args, **kwargs):
        made.append(Stimulus(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(nf_workloads, "Stimulus", counted)
    workloads = {w.name: w for w in factory(seed=7, packets=200, **spec.bench)}
    eager = len(made)
    zipf = workloads["zipf"].stimuli
    assert len(made) - eager == len(zipf)
    uniform_after_zipf = workloads["uniform"].stimuli
    alone = {w.name: w for w in factory(seed=7, packets=200, **spec.bench)}
    assert uniform_after_zipf == alone["uniform"].stimuli


@pytest.mark.parametrize(
    "factory", [router_workloads, monitor_workloads], ids=["router", "monitor"]
)
def test_router_and_monitor_streams_hold_one_stimulus_per_distinct_frame_and_note(factory):
    for workload in factory(seed=2019, packets=2000):
        if workload.name not in ("uniform", "zipf", "header_flood"):
            continue
        stimuli = workload.stimuli
        distinct = {(stimulus.packet, stimulus.note) for stimulus in stimuli}
        assert len({id(stimulus) for stimulus in stimuli}) == len(distinct), workload.name
        assert len(distinct) < len(stimuli), workload.name


@pytest.mark.parametrize(
    "factory", [router_scan_sweep, monitor_scan_sweep], ids=["router", "monitor"]
)
def test_scalar_free_sweeps_share_one_scalars_mapping(factory):
    stimuli = factory(packets=2000).stimuli
    assert len({id(stimulus.scalars) for stimulus in stimuli}) == 1


def _load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_streams_match_their_golden_digests():
    """Every NF and graph stream at seeds 2019 and 7, 150 and 2,000 packets,
    hashes as recorded in tests/golden/streams.json."""
    tool = _load_tool("stream_digests")
    golden = json.loads(Path(tool.GOLDEN).read_text())
    fresh = tool.stream_digests()
    assert sorted(fresh) == sorted(golden), "the set of pinned streams changed"
    moved = [key for key, digest in golden.items() if fresh[key] != digest]
    assert not moved, f"streams moved (rerun tools/stream_digests.py if on purpose): {moved}"


# --------------------------------------------------------------------------- #
# Replayer
# --------------------------------------------------------------------------- #
def test_replayer_summaries_and_json():
    workload = bridge_workloads(packets=60)[0]
    contract = generate_bridge_contract(16, 50)
    result = Replayer(workload.harness, contract).replay(workload.stimuli, workload="uniform")
    assert result.packets == 60
    summary = result.summaries[result.classes_seen()[0]]
    assert summary.max_measured[Metric.INSTRUCTIONS] <= summary.max_predicted[Metric.INSTRUCTIONS]
    text = result.table()
    assert "bridge / uniform" in text and "input class" in text
    payload = result.to_json()
    assert payload["ok"] is True
    assert set(payload["classes"]) == set(result.classes_seen())


def _row_reads(row):
    return row.max_measured, row.max_predicted, row.max_cycles, row.cycle_tails, row.to_json()


def test_a_row_read_absorbed_into_and_read_again_equals_a_fresh_row():
    """A row derives its maxima and tails again after an absorb: reading it
    between absorbs gives what a row built over all its outcomes gives."""
    workload = bridge_workloads(packets=200)[1]
    contract = generate_bridge_contract(16, 50)
    models = [ConservativeModel(), SimulatedModel()]
    result = Replayer(workload.harness, contract, models=models).replay(workload.stimuli)
    grew = 0
    for name, row in result.summaries.items():
        outcomes = sorted(row.outcomes, key=lambda outcome: outcome.measured_values)
        grown, fresh = ClassSummary(name), ClassSummary(name)
        grown.absorb(outcomes[0])
        first = _row_reads(grown)
        for outcome in outcomes[1:]:
            grown.absorb(outcome)
        for outcome in outcomes:
            fresh.absorb(outcome)
        assert _row_reads(grown) == _row_reads(fresh), name
        assert fresh.cycle_tails and set(fresh.cycle_tails) == {"conservative", "simulated"}
        grew += first != _row_reads(fresh)
    # The later outcomes moved the maxima or tails of some row.
    assert grew


def test_replayer_records_unclassified_executions():
    """A contract that does not cover the NF's executions is a recorded
    violation, not a crash."""
    from repro.core import PerformanceContract

    workload = bridge_workloads(packets=20)[0]
    empty_contract = PerformanceContract("empty")
    result = Replayer(workload.harness, empty_contract).replay(workload.stimuli)
    assert not result.ok
    assert "<unclassified>" in result.summaries
    assert all("no contract entry" in message for message in result.violations)


def test_replayer_flags_a_wrong_nf_contract():
    """Classifying bridge traffic against the router contract surfaces
    measured > predicted violations instead of silently passing."""
    workload = bridge_workloads(packets=20)[0]
    result = Replayer(workload.harness, generate_router_contract()).replay(workload.stimuli)
    assert not result.ok


def test_a_bound_one_third_below_the_measured_count_turns_replay_red():
    """Counts compare exactly against the class bound: ttl_expired runs
    exactly 11 instructions, so a bound of 11 − 1/3 must go red even
    though its ceiling is still 11."""
    from fractions import Fraction

    from repro.core import ContractEntry, PerfExpr, PerformanceContract

    contract = generate_router_contract()
    assert contract.entry_for("ttl_expired").expr(Metric.INSTRUCTIONS) == PerfExpr.constant(11)

    def lowered(entry):
        if entry.input_class.name != "ttl_expired":
            return entry
        exprs = dict(entry.exprs)
        exprs[Metric.INSTRUCTIONS] = PerfExpr.constant(11 - Fraction(1, 3))
        return ContractEntry(input_class=entry.input_class, exprs=exprs, paths=entry.paths)

    doctored = PerformanceContract(
        contract.nf_name,
        registry=contract.registry,
        entries=[lowered(entry) for entry in contract.entries],
    )
    workload = router_workloads(packets=60)[0]
    result = Replayer(workload.harness, doctored).replay(workload.stimuli)
    assert not result.ok
    assert {name for name, s in result.summaries.items() if s.violations} == {"ttl_expired"}
    assert all(
        "(ttl_expired): measured instructions 11 exceeds predicted 10" in message
        for message in result.violations
    )


def test_a_pcv_observed_above_its_declared_bound_turns_replay_red():
    """The class bound evaluated at the observed PCVs is not the whole
    contract: the adversarial stream walks a ``bridge_map.t = 16`` chain,
    so a registry declaring at most 15 links must fail the replay by name,
    even though every count stays under its class bound."""
    from dataclasses import replace

    from repro.core import PCVRegistry, PerformanceContract

    contract = generate_bridge_contract(16, 50)
    lowered = PCVRegistry(
        replace(pcv, max_value=15) if pcv.name == "bridge_map.t" else pcv
        for pcv in contract.registry
    )
    doctored = PerformanceContract(
        contract.nf_name, registry=lowered, entries=contract.entries
    )
    workload = bridge_adversarial(capacity=16, timeout=50)
    result = Replayer(workload.harness, doctored).replay(workload.stimuli)
    assert not result.ok
    assert result.violations
    assert all(
        "PCV bridge_map.t observed at 16 exceeds its declared bound 15" in message
        for message in result.violations
    )


def test_an_observed_pcv_the_contract_does_not_declare_turns_replay_red():
    """Every bridge execution expires its table, so it observes
    ``bridge_map.w``: a registry without it must fail each packet by name,
    while a registry declaring it without a bound stays green."""
    from dataclasses import replace

    from repro.core import PCVRegistry, PerformanceContract

    contract = generate_bridge_contract(16, 50)

    def replayed(registry):
        doctored = PerformanceContract("bridge", registry=registry, entries=contract.entries)
        workload = bridge_workloads(packets=40)[0]
        return Replayer(workload.harness, doctored).replay(workload.stimuli)

    result = replayed(PCVRegistry(p for p in contract.registry if p.name != "bridge_map.w"))
    assert not result.ok
    assert len(result.violations) == result.packets
    for outcome in result.outcomes:
        (message,) = outcome.violations
        where = f"packet {outcome.index} ({outcome.class_name})"
        assert message.startswith(f"{where}: PCV bridge_map.w observed at ")
        assert message.endswith(" is not declared by the contract")
    unbounded = PCVRegistry(
        replace(p, max_value=None) if p.name == "bridge_map.w" else p for p in contract.registry
    )
    assert replayed(unbounded).ok


class _OverpricedModel(ConservativeModel):
    """Conservative pricing whose measuring side charges twice its predicting side."""

    name = "overpriced"

    def compile_measure(self, structures=(), *, scale=1):
        measure = super().compile_measure(structures, scale=scale)
        return lambda trace: 2 * measure(trace)


def _only_overpriced_cycles_fail(outcome):
    """Every message of ``outcome`` is the overpriced model's; all other checks hold."""
    for message in outcome.violations:
        assert message.startswith(
            f"packet {outcome.index} ({outcome.class_name}): overpriced measured "
        ), message
    for metric, value in outcome.measured.items():
        assert value <= outcome.predicted[metric]
    for model, (measured, predicted) in outcome.cycles_scaled.items():
        assert model == "overpriced" or measured <= predicted, model


def test_a_cycle_bound_violation_alone_turns_replay_red():
    """The counts hold and three models price within their predictions;
    a fourth whose measurement exceeds its own prediction must still turn
    the replay red, naming itself and the class."""
    models = (ConservativeModel(), RealisticModel(), SimulatedModel(), _OverpricedModel())
    workload = bridge_workloads(packets=60)[1]
    result = Replayer(workload.harness, generate_bridge_contract(16, 50), models=models).replay(
        workload.stimuli
    )
    assert not result.ok
    for outcome in result.outcomes:
        _only_overpriced_cycles_fail(outcome)
    failed = {name for name, summary in result.summaries.items() if summary.violations}
    assert failed >= {"hit", "miss"}


def test_a_hop_cycle_bound_violation_alone_turns_graph_replay_red():
    """The same through a graph: each hop's message, prefixed by its node."""
    from repro.net import GraphReplayer, lb_nat_router_workloads

    workload = lb_nat_router_workloads(0, 40)[0]
    replayer = GraphReplayer(workload.graph, models=[ConservativeModel(), _OverpricedModel()])
    result = replayer.replay(workload.stream, schedule=workload.schedule)
    assert not result.ok
    nodes = set()
    for outcome in result.outcomes:
        assert outcome.route_name is not None
        for node, hop in outcome.hops:
            _only_overpriced_cycles_fail(hop)
            if hop.violations:
                nodes.add(node)
        assert outcome.violations == tuple(
            f"{node}: {message}" for node, hop in outcome.hops for message in hop.violations
        )
    assert nodes == set(workload.graph.nodes)


def test_stimulus_defaults_len_to_packet_length():
    workload = bridge_workloads(packets=10)[0]
    stimulus = Stimulus(packet=b"\x01\x02\x03", scalars={"in_port": 0, "time": 0})
    scalars = workload.harness.scalars_for(stimulus)
    assert scalars["len"] == 3
    with pytest.raises(KeyError):
        workload.harness.scalars_for(Stimulus(packet=b"", scalars={}))
