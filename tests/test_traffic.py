"""Traffic layer: packet builders, samplers, workloads and the replayer."""

import random

import pytest

from repro.core import Metric
from repro.nf.bridge import generate_bridge_contract
from repro.nf.router import generate_router_contract, ipv4_packet
from repro.nf.workloads import (
    bridge_adversarial,
    bridge_workloads,
    colliding_mac_keys,
    router_adversarial,
    router_workloads,
)
from repro.structures import ChainingHashMap
from repro.traffic import (
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


def test_stimulus_defaults_len_to_packet_length():
    workload = bridge_workloads(packets=10)[0]
    stimulus = Stimulus(packet=b"\x01\x02\x03", scalars={"in_port": 0, "time": 0})
    scalars = workload.harness.scalars_for(stimulus)
    assert scalars["len"] == 3
    with pytest.raises(KeyError):
        workload.harness.scalars_for(Stimulus(packet=b"", scalars={}))
