"""End-to-end tests for the Maglev-style load balancer.

The LB is the first NF with a control-plane cost in its contract: backend
add/remove frames charge ``lb_tbl.f`` (table repopulation), while data
frames charge only the connection table's ``conn.*`` PCVs.  The tests
cover both sides: per-packet replay bounded by the contract, and the
adversarial stream pinning the repopulation bound exactly.
"""

import random

import pytest

from repro.core import Metric
from repro.nf.lb import (
    CMD_ADD,
    CMD_DATA,
    CMD_REMOVE,
    CTRL_DONE,
    DROP_NO_BACKENDS,
    DROP_NON_IP,
    DROP_SHORT,
    LB,
    LB_FUNCTION,
    MIN_LB_FRAME,
    PKT_BASE,
    build_lb_module,
    generate_lb_contract,
    make_lb_state,
)
from repro.nf.replay import replay_env
from repro.nf.workloads import lb_adversarial, lb_workloads
from repro.nfil import ExternHandler, Interpreter, Memory
from repro.structures import max_fill_iterations
from repro.traffic import Replayer, Stimulus, nat_frame

CAPACITY = 16
TIMEOUT = 50
TABLE_SIZE = 13
MAX_BACKENDS = 4

LB_CLASSES = {
    "short",
    "non_ip",
    "reconfig",
    "new_flow",
    "existing_flow",
    "backend_drained",
    "no_backends",
}

#: Every namespaced PCV of the LB contract, zeroed.
ZERO_PCVS = {"conn.t": 0, "conn.w": 0, "conn.e": 0, "lb_tbl.f": 0}

LAN_HOST = 0x0A000001  # 10.0.0.1
VIP = 0xC6336401  # 198.51.100.1


@pytest.fixture(scope="module")
def contract():
    return generate_lb_contract(
        CAPACITY, TIMEOUT, table_size=TABLE_SIZE, max_backends=MAX_BACKENDS
    )


def _interp(capacity=CAPACITY, timeout=TIMEOUT):
    tbl, conn = make_lb_state(
        capacity, timeout, table_size=TABLE_SIZE, max_backends=MAX_BACKENDS
    )
    handler = ExternHandler().merge(tbl).merge(conn)
    return Interpreter(build_lb_module(), handler=handler), (tbl, conn)


def _run(interp, packet, cmd=CMD_DATA, arg=0, time=0):
    memory = Memory()
    memory.write_bytes(PKT_BASE, packet)
    return interp.run(
        LB_FUNCTION, [PKT_BASE, len(packet), cmd, arg, time], memory=memory
    )


def test_contract_has_the_seven_lb_classes(contract):
    assert set(contract.class_names()) == LB_CLASSES
    for entry in contract:
        assert entry.paths, "every LB entry must carry its symbolic path"
        assert all(path.feasibility == "sat" for path in entry.paths)


def test_contract_separates_control_plane_from_data_plane(contract):
    """Only ``reconfig`` charges the repopulation PCV; data classes charge
    the connection table, whose lookups stay constant-time."""
    assert contract.variables() == set(ZERO_PCVS)
    reconfig = contract.entry_for("reconfig")
    assert reconfig.expr(Metric.INSTRUCTIONS).coefficient("lb_tbl.f") == 7
    assert reconfig.expr(Metric.INSTRUCTIONS).coefficient("conn.t") == 0
    for name in ("new_flow", "existing_flow", "backend_drained"):
        entry = contract.entry_for(name)
        assert entry.expr(Metric.INSTRUCTIONS).coefficient("lb_tbl.f") == 0
        # conn get + refreshing put walk the chain twice.
        assert entry.expr(Metric.INSTRUCTIONS).coefficient("conn.t") == 12
    # Bounds: the connection table's capacity and the proven fill bound.
    assert contract.registry.get("conn.t").max_value == CAPACITY
    assert contract.registry.get("lb_tbl.f").max_value == max_fill_iterations(
        MAX_BACKENDS, TABLE_SIZE
    )


def test_lb_concrete_behaviour():
    interp, (tbl, conn) = _interp()

    # Data traffic before any backend exists is dropped.
    flow = nat_frame(LAN_HOST, 40000, VIP, 80)
    result, _ = _run(interp, flow, time=0)
    assert result == DROP_NO_BACKENDS

    # Control frames activate backends (and never parse the packet).
    for i, backend in enumerate((11, 22, 33, 44)):
        result, trace = _run(interp, b"", cmd=CMD_ADD, arg=backend, time=0)
        assert result == CTRL_DONE
    assert tbl.backend_count() == 4

    # A new flow is consistent-hashed and bound; repeats stick to it.
    result, _ = _run(interp, flow, time=1)
    assert result in {11, 22, 33, 44}
    first = result
    assert conn.occupancy() == 1
    for time in (2, 3):
        result, _ = _run(interp, flow, time=time)
        assert result == first  # affinity, not re-selection

    # Draining the flow's backend forces re-selection onto a survivor.
    result, _ = _run(interp, b"", cmd=CMD_REMOVE, arg=first, time=4)
    assert result == CTRL_DONE
    result, _ = _run(interp, flow, time=5)
    assert result != first and result in {11, 22, 33, 44}

    # Truncated and non-IP frames are dropped before parsing endpoints.
    result, trace = _run(interp, flow[: MIN_LB_FRAME - 1], time=6)
    assert result == DROP_SHORT
    assert len(trace.extern_calls) == 1  # only the expiry scan ran
    v6 = nat_frame(LAN_HOST, 40000, VIP, 80, ethertype=(0x86, 0xDD))
    result, _ = _run(interp, v6, time=7)
    assert result == DROP_NON_IP

    # Draining everything drops both new and previously-bound flows.
    for backend in tbl.backends():
        _run(interp, b"", cmd=CMD_REMOVE, arg=backend, time=8)
    result, _ = _run(interp, flow, time=9)
    assert result == DROP_NO_BACKENDS
    other = nat_frame(LAN_HOST + 1, 40000, VIP, 80)
    result, _ = _run(interp, other, time=9)
    assert result == DROP_NO_BACKENDS


def test_lb_backend_rewrite_lands_in_packet_memory():
    interp, _ = _interp()
    _run(interp, b"", cmd=CMD_ADD, arg=77, time=0)
    memory = Memory()
    packet = nat_frame(LAN_HOST, 40000, VIP, 80)
    memory.write_bytes(PKT_BASE, packet)
    result, _ = interp.run(
        LB_FUNCTION, [PKT_BASE, len(packet), CMD_DATA, 0, 1], memory=memory
    )
    # The chosen backend is steered into the frame (little-endian store).
    assert memory.load(PKT_BASE, 2) == result == 77


def test_contract_bounds_100_replayed_packets(contract):
    """The acceptance check: for >=100 replayed packets (data and control
    mixed) the matched entry upper-bounds the traced counts, and the
    matched symbolic path predicts the stateless counts exactly."""
    interp, _ = _interp()
    rng = random.Random(2019)
    hosts = [(rng.randrange(1 << 32), rng.randrange(1024, 1 << 16)) for _ in range(10)]
    backends = rng.sample(range(1, 1 << 16), MAX_BACKENDS)

    replayed = 0
    classes_seen = set()
    for n in range(150):
        src_ip, src_port = hosts[rng.randrange(len(hosts))]
        cmd, arg = CMD_DATA, 0
        if n % 19 == 0:
            cmd = CMD_ADD if (n // 19) % 2 == 0 else CMD_REMOVE
            arg = backends[(n // 19) % len(backends)]
            packet = b""
        elif n % 13 == 0:
            packet = nat_frame(src_ip, src_port, VIP, 80)[: rng.randrange(0, 37)]
        else:
            packet = nat_frame(src_ip, src_port, VIP, 80)
        time = n * 2
        _, trace = _run(interp, packet, cmd=cmd, arg=arg, time=time)

        env = replay_env(
            packet, LB.sym_bytes, trace, len=len(packet), cmd=cmd, arg=arg, time=time
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

    assert replayed >= 100
    assert {"reconfig", "new_flow", "existing_flow", "short"} <= classes_seen


def test_adversarial_pins_data_and_control_plane_bounds(contract):
    """The acceptance criterion: the adversarial stream pins the
    connection-table bounds AND the repopulation bound exactly."""
    workload = lb_adversarial(
        capacity=CAPACITY, timeout=TIMEOUT, table_size=TABLE_SIZE, max_backends=MAX_BACKENDS
    )
    result = Replayer(workload.harness, contract).replay(workload.stimuli)
    assert result.ok, result.violations[:3]
    registry = contract.registry
    assert set(workload.expected_worst) == set(ZERO_PCVS)
    for pcv, bound in workload.expected_worst.items():
        assert registry.get(pcv).max_value == bound
        assert result.max_pcvs[pcv] == bound, pcv
    # The repopulation bound is hit by a *control* frame (reconfig class),
    # never by a data frame — control-plane cost stays on control paths.
    for outcome in result.outcomes:
        if outcome.pcvs.get("lb_tbl.f"):
            assert outcome.class_name == "reconfig"
    # The worst_t packet walks the full connection chain.
    worst = next(o for o in result.outcomes if o.note == "worst_t")
    assert worst.pcvs["conn.t"] == CAPACITY
    assert worst.class_name == "existing_flow"
    # The drained phase re-selects through the Maglev table.
    drained = next(
        o for o in result.outcomes if o.note == "drained" and o.class_name != "reconfig"
    )
    assert drained.class_name == "backend_drained"


def test_workload_streams_cover_every_contract_class(contract):
    classes = set()
    for workload in lb_workloads(packets=120):
        result = Replayer(workload.harness, contract).replay(workload.stimuli)
        assert result.ok, result.violations[:3]
        classes.update(result.classes_seen())
    assert classes == LB_CLASSES


def test_harness_scalar_order_and_defaults():
    harness = LB.harness(capacity=CAPACITY, timeout=TIMEOUT)
    assert harness.scalar_order == ("len", "cmd", "arg", "time")
    stimulus = Stimulus(
        packet=nat_frame(LAN_HOST, 40000, VIP, 80),
        scalars={"cmd": CMD_DATA, "arg": 0, "time": 0},
    )
    scalars = harness.scalars_for(stimulus)
    assert scalars["len"] == MIN_LB_FRAME + 12
