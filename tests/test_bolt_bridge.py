"""End-to-end tests: BOLT on the MAC bridge, cross-checked against the
concrete interpreter + tracer (the acceptance gate of the vertical slice).
"""

import random

import pytest

from repro.core import Distiller, Metric
from repro.nf.bridge import (
    BRIDGE,
    BRIDGE_FUNCTION,
    DROP,
    FLOOD,
    PKT_BASE,
    build_bridge_module,
    generate_bridge_contract,
    make_bridge_table,
)
from repro.nf.replay import replay_env
from repro.nfil import Interpreter, Memory

CAPACITY = 16

#: Every (instance-qualified) PCV of the bridge contract, zeroed (traces
#: fill in observations).
ZERO_PCVS = {"bridge_map.e": 0, "bridge_map.t": 0, "bridge_map.w": 0}


@pytest.fixture(scope="module")
def contract():
    return generate_bridge_contract(capacity=CAPACITY)


def _packet(dst: bytes, src: bytes) -> bytes:
    assert len(dst) == len(src) == 6
    return dst + src + b"\x08\x00" + bytes(50)


def _run(interp, packet, port, time):
    memory = Memory()
    memory.write_bytes(PKT_BASE, packet)
    result, trace = interp.run(BRIDGE_FUNCTION, [PKT_BASE, len(packet), port, time], memory=memory)
    return result, trace


def test_contract_has_the_four_bridge_classes(contract):
    assert sorted(contract.class_names()) == ["hairpin", "hit", "miss", "short"]
    for entry in contract:
        assert entry.paths, "every bridge entry must carry its symbolic path"
        assert all(path.feasibility == "sat" for path in entry.paths)


def test_contract_expressions_use_the_declared_pcvs(contract):
    assert contract.variables() <= {"bridge_map.e", "bridge_map.t", "bridge_map.w"}
    # The short path never touches the MAC table: no t term.
    short = contract.entry_for("short")
    assert short.expr(Metric.INSTRUCTIONS).coefficient("bridge_map.t") == 0
    # Lookup paths charge both puts and gets: t coefficient is the sum of
    # the per-op slopes (6 + 6 instructions, 2 + 2 accesses).
    hit = contract.entry_for("hit")
    assert hit.expr(Metric.INSTRUCTIONS).coefficient("bridge_map.t") == 12
    assert hit.expr(Metric.MEMORY_ACCESSES).coefficient("bridge_map.t") == 4


def test_bridge_concrete_behaviour():
    module = build_bridge_module()
    table = make_bridge_table(CAPACITY, timeout=1000)
    interp = Interpreter(module, handler=table)
    a, b = b"\xaa" * 6, b"\xbb" * 6

    # Unknown destination floods and learns the source.
    result, _ = _run(interp, _packet(a, b), port=1, time=0)
    assert result == FLOOD
    assert table.occupancy() == 1
    # Reply towards the learned MAC is forwarded to its port.
    result, _ = _run(interp, _packet(b, a), port=2, time=1)
    assert result == 1
    # Same-port (hairpin) traffic is dropped.
    result, _ = _run(interp, _packet(a, b), port=2, time=2)
    assert result == DROP
    # Truncated frames are dropped before parsing.
    result, trace = _run(interp, b"\x01\x02\x03", port=0, time=3)
    assert result == DROP
    assert len(trace.extern_calls) == 1  # only the expiry scan ran


def test_bridge_expiry_reports_e():
    module = build_bridge_module()
    table = make_bridge_table(CAPACITY, timeout=10)
    interp = Interpreter(module, handler=table)
    _run(interp, _packet(b"\x01" * 6, b"\x02" * 6), port=0, time=0)
    assert table.occupancy() == 1
    # Much later, the learned entry has expired: the expiry call reports e=1.
    _, trace = _run(interp, _packet(b"\x01" * 6, b"\x03" * 6), port=0, time=100)
    expire_call = trace.extern_calls[0]
    assert expire_call.name == "bridge_map_expire"
    assert expire_call.pcvs["bridge_map.e"] == 1
    # The wheel never advances more than one revolution per sweep.
    assert expire_call.pcvs["bridge_map.w"] <= table.wheel_slots
    assert table.occupancy() == 1  # the fresh source MAC was re-learned


def test_contract_bounds_100_replayed_packets(contract):
    """The acceptance check: for >=100 replayed packets, the contract entry
    the execution falls into (found by matching the trace back to a symbolic
    path) upper-bounds the traced instruction and memory counts, and the
    stateless portion matches the symbolic path exactly."""
    module = build_bridge_module()
    table = make_bridge_table(CAPACITY, timeout=50)
    interp = Interpreter(module, handler=table)
    rng = random.Random(2019)
    macs = [bytes(rng.randrange(256) for _ in range(6)) for _ in range(12)]

    replayed = 0
    classes_seen = set()
    for n in range(150):
        dst, src = rng.choice(macs), rng.choice(macs)
        if n % 17 == 0:
            packet = dst[: rng.randrange(0, 13)]  # truncated frame
        else:
            packet = _packet(dst, src)
        port = rng.randrange(64)
        time = n * 3
        result, trace = _run(interp, packet, port, time)

        env = replay_env(
            packet, BRIDGE.sym_bytes, trace, len=len(packet), in_port=port, time=time
        )
        entry = contract.classify(env)
        assert entry is not None, f"replay {n} not covered by any contract entry"
        classes_seen.add(entry.input_class.name)

        bindings = dict(ZERO_PCVS)
        bindings.update(trace.pcv_bindings())
        predicted_instr = entry.evaluate(Metric.INSTRUCTIONS, bindings)
        predicted_mem = entry.evaluate(Metric.MEMORY_ACCESSES, bindings)
        assert predicted_instr >= trace.total_instructions(), (
            f"replay {n} ({entry.input_class.name}): "
            f"{predicted_instr} < {trace.total_instructions()}"
        )
        assert predicted_mem >= trace.total_memory_accesses()

        # The matched symbolic path predicts the stateless counts exactly.
        path = entry.matching_path(env)
        assert path is not None
        assert path.instructions == trace.instructions
        assert path.memory_accesses == trace.memory_accesses
        replayed += 1

    assert replayed >= 100
    # The workload must have exercised every contract row.
    assert classes_seen == {"short", "miss", "hairpin", "hit"}


def test_contract_worst_case_bounds_everything(contract):
    """Evaluating at the PCV upper bounds dominates any concrete run."""
    module = build_bridge_module()
    table = make_bridge_table(CAPACITY, timeout=25)
    interp = Interpreter(module, handler=table)
    rng = random.Random(7)
    macs = [bytes(rng.randrange(256) for _ in range(6)) for _ in range(30)]
    worst_instr = contract.upper_bound(Metric.INSTRUCTIONS)
    worst_mem = contract.upper_bound(Metric.MEMORY_ACCESSES)
    for n in range(200):
        packet = _packet(rng.choice(macs), rng.choice(macs))
        _, trace = _run(interp, packet, rng.randrange(64), n)
        assert worst_instr >= trace.total_instructions()
        assert worst_mem >= trace.total_memory_accesses()


def test_short_path_prediction_is_exact(contract):
    """With nothing to expire, the short-frame entry predicts exactly."""
    module = build_bridge_module()
    table = make_bridge_table(CAPACITY, timeout=10_000)
    interp = Interpreter(module, handler=table)
    _, trace = _run(interp, b"\x00" * 5, port=3, time=1)
    entry = contract.entry_for("short")
    bindings = dict(ZERO_PCVS)
    bindings.update(trace.pcv_bindings())
    assert entry.evaluate(Metric.INSTRUCTIONS, bindings) == trace.total_instructions()
    assert entry.evaluate(Metric.MEMORY_ACCESSES, bindings) == trace.total_memory_accesses()


def test_distilled_bridge_contract_renders(contract):
    report = Distiller(contract).distill(Metric.INSTRUCTIONS)
    assert len(report.entries) == 4
    text = report.render()
    assert "bridge_process" in text
