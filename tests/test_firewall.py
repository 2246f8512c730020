"""End-to-end tests for the connection-tracking firewall.

The firewall closes the matrix's enforcement column: a stateless egress
rule plus an ``ExpiringMap`` connection table fronted by a slot pool, so
table exhaustion is an observable contract class.  The tests cover the
concrete default-deny semantics, per-packet replay bounded by the
contract, the adversarial stream pinning every ``fw_conn`` bound, and
the scan sweep draining the slot pool into ``conn_full``.
"""

import random

import pytest

from repro.core import Metric
from repro.nf.firewall import (
    DENY_PORT,
    DROP_CONN_FULL,
    DROP_DENIED,
    DROP_NON_IP,
    DROP_SHORT,
    DROP_UNSOLICITED,
    FIREWALL,
    FIREWALL_FUNCTION,
    LAN_PORT,
    MIN_FW_FRAME,
    PKT_BASE,
    build_firewall_module,
    generate_firewall_contract,
    make_firewall_state,
)
from repro.nf.replay import replay_env
from repro.nf.workloads import (
    WAN_CLIENT,
    WAN_SERVER,
    firewall_adversarial,
    firewall_header_flood,
    firewall_scan_sweep,
    firewall_workloads,
)
from repro.nfil import ExternHandler, Interpreter, Memory
from repro.traffic import Replayer, Stimulus, nat_frame

CAPACITY = 16
TIMEOUT = 50

FW_CLASSES = {
    "short",
    "non_ip",
    "denied",
    "outbound_established",
    "outbound_new",
    "conn_full",
    "inbound_established",
    "unsolicited",
}

#: Every namespaced PCV of the firewall contract, zeroed.  The slot
#: allocator is constant-time and contributes none.
ZERO_PCVS = {"fw_conn.t": 0, "fw_conn.e": 0, "fw_conn.w": 0}

LAN_HOST = 0x0A000001  # 10.0.0.1


@pytest.fixture(scope="module")
def contract():
    return generate_firewall_contract(CAPACITY, TIMEOUT)


def _interp(capacity=CAPACITY, timeout=TIMEOUT, slots=None):
    conn, pool = make_firewall_state(capacity, timeout, slots=slots)
    handler = ExternHandler().merge(conn).merge(pool)
    return Interpreter(build_firewall_module(), handler=handler), (conn, pool)


def _run(interp, packet, in_port=LAN_PORT, time=0):
    memory = Memory()
    memory.write_bytes(PKT_BASE, packet)
    return interp.run(
        FIREWALL_FUNCTION, [PKT_BASE, len(packet), in_port, time], memory=memory
    )


def test_contract_has_the_eight_firewall_classes(contract):
    assert set(contract.class_names()) == FW_CLASSES
    for entry in contract:
        assert entry.paths, "every firewall entry must carry its symbolic path"
        assert all(path.feasibility == "sat" for path in entry.paths)


def test_contract_charges_tracking_only_on_tracking_paths(contract):
    """Policy drops never touch the connection chain; the established
    fast path walks it twice (get + refreshing put); and the two inbound
    classes price identically — the constant-time default-deny."""
    assert contract.variables() == set(ZERO_PCVS)
    denied = contract.entry_for("denied")
    assert denied.expr(Metric.INSTRUCTIONS).coefficient("fw_conn.t") == 0
    established = contract.entry_for("outbound_established")
    assert established.expr(Metric.INSTRUCTIONS).coefficient("fw_conn.t") == 12
    inbound = contract.entry_for("inbound_established")
    assert inbound.expr(Metric.INSTRUCTIONS).coefficient("fw_conn.t") == 6
    unsolicited = contract.entry_for("unsolicited")
    for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
        assert inbound.expr(metric) == unsolicited.expr(metric)
    # Bounds come from the connection table's registry.
    assert contract.registry.get("fw_conn.t").max_value == CAPACITY
    assert contract.registry.get("fw_conn.e").max_value == CAPACITY
    assert contract.registry.get("fw_conn.w").max_value == TIMEOUT + 1


def test_firewall_concrete_behaviour():
    interp, (conn, pool) = _interp()

    # An admitted outbound flow leases a slot and is remembered.
    flow = nat_frame(LAN_HOST, 40000, WAN_SERVER, 80)
    result, _ = _run(interp, flow, time=0)
    slot = result
    assert slot not in (DROP_CONN_FULL, DROP_UNSOLICITED)
    assert conn.occupancy() == 1

    # Repeats ride the established fast path and return the same state.
    for time in (1, 2):
        result, _ = _run(interp, flow, time=time)
        assert result == slot
    assert conn.occupancy() == 1  # refreshed, not re-admitted

    # A WAN frame to the tracked endpoint is forwarded read-only...
    probe = nat_frame(WAN_CLIENT, 443, LAN_HOST, 40000)
    result, _ = _run(interp, probe, in_port=1, time=3)
    assert result == slot
    # ...and to an untracked endpoint is default-denied.
    stray = nat_frame(WAN_CLIENT, 443, LAN_HOST, 40001)
    result, _ = _run(interp, stray, in_port=1, time=3)
    assert result == DROP_UNSOLICITED

    # The egress rule fires before any table work.
    smtp = nat_frame(LAN_HOST, 40002, WAN_SERVER, DENY_PORT)
    result, trace = _run(interp, smtp, time=4)
    assert result == DROP_DENIED
    assert len(trace.extern_calls) == 1  # only the expiry sweep ran

    # Truncated and non-IP frames are dropped before parsing endpoints.
    result, _ = _run(interp, flow[: MIN_FW_FRAME - 1], time=5)
    assert result == DROP_SHORT
    v6 = nat_frame(LAN_HOST, 40000, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
    result, _ = _run(interp, v6, time=5)
    assert result == DROP_NON_IP

    # Draining the slot pool makes admission fail observably.
    for n in range(1, CAPACITY):
        result, _ = _run(interp, nat_frame(LAN_HOST + n, 40000, WAN_SERVER, 80), time=6)
        assert result not in (DROP_CONN_FULL,)
    result, _ = _run(interp, nat_frame(LAN_HOST + CAPACITY, 40000, WAN_SERVER, 80), time=6)
    assert result == DROP_CONN_FULL


def test_contract_bounds_150_replayed_packets(contract):
    """The acceptance check: for 150 replayed mixed packets the matched
    entry upper-bounds the traced counts, and the matched symbolic path
    predicts the stateless counts exactly."""
    interp, _ = _interp(slots=range(1, 200))
    rng = random.Random(2019)
    flows = [(rng.randrange(1 << 32), rng.randrange(1024, 1 << 16)) for _ in range(10)]

    replayed = 0
    classes_seen = set()
    for n in range(150):
        src_ip, src_port = flows[rng.randrange(len(flows))]
        in_port = LAN_PORT
        if n % 17 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)[: rng.randrange(0, 37)]
        elif n % 11 == 0:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        elif n % 23 == 6:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, DENY_PORT)
        elif n % 5 == 0:
            packet = nat_frame(WAN_CLIENT, 443, src_ip, src_port)
            in_port = 1 + rng.randrange(3)
        else:
            packet = nat_frame(src_ip, src_port, WAN_SERVER, 80)
        time = n * 3
        _, trace = _run(interp, packet, in_port=in_port, time=time)

        env = replay_env(
            packet, FIREWALL.sym_bytes, trace, len=len(packet), in_port=in_port, time=time
        )
        entry = contract.classify(env)
        assert entry is not None, f"replay {n} not covered by any contract entry"
        classes_seen.add(entry.input_class.name)

        bindings = dict(ZERO_PCVS)
        bindings.update(trace.pcv_bindings())
        for metric, measured in (
            (Metric.INSTRUCTIONS, trace.total_instructions()),
            (Metric.MEMORY_ACCESSES, trace.total_memory_accesses()),
        ):
            predicted = entry.evaluate(metric, bindings)
            assert predicted >= measured, (
                f"replay {n} ({entry.input_class.name}): {predicted} < {measured}"
            )

        path = entry.matching_path(env)
        assert path is not None
        assert path.instructions == trace.instructions
        assert path.memory_accesses == trace.memory_accesses
        replayed += 1

    assert replayed == 150
    assert {
        "short",
        "non_ip",
        "denied",
        "outbound_new",
        "outbound_established",
        "unsolicited",
    } <= classes_seen


def test_adversarial_pins_every_conn_table_bound(contract):
    """The acceptance criterion: the adversarial stream pins ``fw_conn.t``,
    ``fw_conn.e`` and ``fw_conn.w`` exactly at their registry bounds."""
    workload = firewall_adversarial(capacity=CAPACITY, timeout=TIMEOUT)
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    registry = contract.registry
    assert set(workload.expected_worst) == set(ZERO_PCVS)
    for pcv, bound in workload.expected_worst.items():
        assert registry.get(pcv).max_value == bound
        assert result.max_pcvs[pcv] == bound, pcv
    # The chain bound is hit by the established-flow fast path itself.
    worst = next(o for o in result.outcomes if o.note == "worst_t")
    assert worst.class_name == "outbound_established"
    assert worst.pcvs["fw_conn.t"] == CAPACITY
    # Admission with the pool drained is the observable exhaustion class.
    full = next(o for o in result.outcomes if o.note == "conn_full")
    assert full.class_name == "conn_full"
    # One doom-jump sweep advances the full wheel and expires everything.
    doom = next(o for o in result.outcomes if o.note == "worst_e")
    assert doom.pcvs["fw_conn.e"] == CAPACITY
    assert doom.pcvs["fw_conn.w"] == TIMEOUT + 1


def test_scan_sweep_exhausts_the_connection_table(contract):
    """A ZMap-style source sweep drains the slot pool front to back: the
    first ``capacity`` admissions succeed, everything after is
    ``conn_full`` — exhaustion under realistic scanner traffic."""
    workload = firewall_scan_sweep(capacity=CAPACITY, timeout=TIMEOUT, packets=150)
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    assert set(result.classes_seen()) == {"outbound_new", "conn_full"}
    assert result.summaries["outbound_new"].packets == CAPACITY
    assert result.summaries["conn_full"].packets == 150 - CAPACITY
    # Slots lease for the stream's lifetime: once drained, always full.
    tail = [o.class_name for o in result.outcomes[CAPACITY:]]
    assert set(tail) == {"conn_full"}


def test_header_flood_hammers_the_default_deny(contract):
    workload = firewall_header_flood(capacity=CAPACITY, timeout=TIMEOUT, packets=150)
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    assert set(result.classes_seen()) == {"short", "denied", "unsolicited"}
    # The blast is dominated by unsolicited WAN probes, none of which
    # install state: the table stays empty throughout.
    assert result.summaries["unsolicited"].packets > 100
    conn = workload.harness.structures[0]
    assert conn.occupancy() == 0


def test_workload_streams_cover_every_contract_class(contract):
    classes = set()
    for workload in firewall_workloads(packets=150):
        result = Replayer(workload.harness, contract).replay(workload.stimuli)
        assert result.ok, result.violations[:3]
        classes.update(result.classes_seen())
    assert classes == FW_CLASSES


def test_harness_scalar_order_and_defaults():
    harness = FIREWALL.harness(capacity=CAPACITY, timeout=TIMEOUT)
    assert harness.scalar_order == ("len", "in_port", "time")
    stimulus = Stimulus(
        packet=nat_frame(LAN_HOST, 40000, WAN_SERVER, 80),
        scalars={"in_port": LAN_PORT, "time": 0},
    )
    scalars = harness.scalars_for(stimulus)
    assert scalars["len"] == MIN_FW_FRAME + 12
