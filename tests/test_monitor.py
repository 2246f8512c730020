"""End-to-end tests for the heavy-hitter monitor.

The monitor is the NF whose contract is interesting for what it lacks:
the count-min sketch contributes no PCVs, so every class costs a
constant, and the hot/cold verdict pair prices *identically* — the
property the constant-time audit proves as a zero polynomial.  The tests
cover the concrete flagging semantics, replay bounded by the contract,
and the flood workloads saturating the sketch's counters.
"""

import random

import pytest

from repro.core import Metric
from repro.nf.monitor import (
    DROP_NON_IP,
    DROP_SHORT,
    FLAG_COLD,
    FLAG_HOT,
    MIN_MON_FRAME,
    MON_COUNTER_MAX,
    MON_THRESHOLD,
    MONITOR,
    MONITOR_FUNCTION,
    PKT_BASE,
    build_monitor_module,
    generate_monitor_contract,
    make_sketch,
)
from repro.nf.replay import replay_env
from repro.nf.workloads import (
    WAN_SERVER,
    monitor_adversarial,
    monitor_header_flood,
    monitor_scan_sweep,
    monitor_workloads,
)
from repro.nfil import Interpreter, Memory
from repro.traffic import Replayer, Stimulus, nat_frame

MON_CLASSES = {"short", "non_ip", "cold_flow", "hot_flow"}


def _flow_key(src_ip, src_port):
    return (src_ip << 16) | src_port


@pytest.fixture(scope="module")
def contract():
    return generate_monitor_contract()


def _interp():
    sketch = make_sketch()
    return Interpreter(build_monitor_module(), handler=sketch), sketch


def _run(interp, packet):
    memory = Memory()
    memory.write_bytes(PKT_BASE, packet)
    return interp.run(MONITOR_FUNCTION, [PKT_BASE, len(packet)], memory=memory)


def test_contract_has_the_four_monitor_classes_and_no_pcvs(contract):
    assert set(contract.class_names()) == MON_CLASSES
    assert contract.variables() == set()  # the whole point of the sketch
    for entry in contract:
        assert entry.paths
        assert all(path.feasibility == "sat" for path in entry.paths)


def test_hot_and_cold_entries_price_identically(contract):
    """The verdict must be timing-invisible: both data classes carry the
    same constant polynomials, which is what the ct-audit proves."""
    hot = contract.entry_for("hot_flow")
    cold = contract.entry_for("cold_flow")
    for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
        assert hot.expr(metric) == cold.expr(metric)
        assert not hot.expr(metric).variables()  # constant, not coincidence


def test_monitor_concrete_behaviour():
    interp, sketch = _interp()

    # A single flow is cold until its estimate reaches the threshold.
    frame = nat_frame(0xC0A80001, 40001, WAN_SERVER, 80)
    for _ in range(MON_THRESHOLD - 1):
        result, _ = _run(interp, frame)
        assert result == FLAG_COLD
    result, _ = _run(interp, frame)
    assert result == FLAG_HOT
    assert sketch.estimate(_flow_key(0xC0A80001, 40001)) == MON_THRESHOLD

    # Another flow's estimate is untouched (modulo row collisions).
    other = nat_frame(0x0A000001, 12001, WAN_SERVER, 80)
    result, _ = _run(interp, other)
    assert result == FLAG_COLD

    # Malformed frames never reach the sketch.
    result, trace = _run(interp, frame[: MIN_MON_FRAME - 1])
    assert result == DROP_SHORT
    assert trace.extern_calls == []
    v6 = nat_frame(0xC0A80001, 40001, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
    result, trace = _run(interp, v6)
    assert result == DROP_NON_IP
    assert trace.extern_calls == []


def test_contract_bounds_150_replayed_packets(contract):
    interp, _ = _interp()
    rng = random.Random(2019)
    flows = [(rng.randrange(1 << 32), rng.randrange(1024, 1 << 16)) for _ in range(10)]

    replayed = 0
    classes_seen = set()
    for n in range(150):
        src_ip, src_port = flows[rng.randrange(len(flows))]
        if n % 17 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)[: rng.randrange(0, 37)]
        elif n % 11 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        elif n % 3 == 0:
            # One elephant flow recurs often enough to cross the threshold.
            packet = nat_frame(*flows[0], WAN_SERVER, 80)
        else:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)
        _, trace = _run(interp, packet)

        env = replay_env(packet, MONITOR.sym_bytes, trace, len=len(packet))
        entry = contract.classify(env)
        assert entry is not None, f"replay {n} not covered by any contract entry"
        classes_seen.add(entry.input_class.name)

        for metric, measured in (
            (Metric.INSTRUCTIONS, trace.total_instructions()),
            (Metric.MEMORY_ACCESSES, trace.total_memory_accesses()),
        ):
            predicted = entry.evaluate(metric, {})
            assert predicted >= measured, (
                f"replay {n} ({entry.input_class.name}): {predicted} < {measured}"
            )

        path = entry.matching_path(env)
        assert path is not None
        assert path.instructions == trace.instructions
        assert path.memory_accesses == trace.memory_accesses
        replayed += 1

    assert replayed == 150
    assert {"short", "non_ip", "cold_flow", "hot_flow"} <= classes_seen


def test_adversarial_saturates_the_hot_flow_and_covers_every_class(contract):
    """No bound to pin (no PCVs) — instead the stream forces every
    verdict and the saturated-update fast path."""
    workload = monitor_adversarial()
    assert workload.expected_worst == {}
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    assert set(result.classes_seen()) == MON_CLASSES
    # The blasted flow crossed the threshold and hit the counter ceiling.
    sketch = workload.harness.structures[0]
    assert sketch.saturated(_flow_key(0xC0A80001, 40001))
    flood = [o for o in result.outcomes if o.note == "flood"]
    assert flood[0].class_name == "cold_flow"
    assert flood[-1].class_name == "hot_flow"
    # The fresh flow stays cold even with the sketch this hot.
    cold = next(o for o in result.outcomes if o.note == "cold")
    assert cold.class_name == "cold_flow"


def test_header_flood_pins_every_counter_to_the_ceiling(contract):
    """The satellite's saturation assertion: enough flood frames pin the
    flow's estimate at ``counter_max`` exactly — never past it."""
    workload = monitor_header_flood(packets=300)
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    assert "hot_flow" in result.classes_seen()
    sketch = workload.harness.structures[0]
    key = _flow_key(0xC6336417, 6667)
    assert sketch.saturated(key)
    assert sketch.estimate(key) == MON_COUNTER_MAX


def test_scan_sweep_of_distinct_sources_stays_cold(contract):
    workload = monitor_scan_sweep(packets=150)
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    # No flow repeats, so no estimate approaches the threshold.
    assert set(result.classes_seen()) == {"cold_flow"}


def test_workload_streams_cover_every_contract_class(contract):
    classes = set()
    for workload in monitor_workloads(packets=150):
        result = Replayer(workload.harness, contract).replay(workload.stimuli)
        assert result.ok, result.violations[:3]
        classes.update(result.classes_seen())
    assert classes == MON_CLASSES


def test_harness_scalar_order_and_defaults():
    harness = MONITOR.harness()
    assert harness.scalar_order == ("len",)
    stimulus = Stimulus(packet=nat_frame(0xC0A80001, 40001, WAN_SERVER, 80))
    assert harness.scalars_for(stimulus) == {"len": MIN_MON_FRAME + 12}
