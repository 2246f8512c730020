"""Property-based bound checks: "any trace ≤ contract", not just samples.

The per-structure tests in ``test_structures.py`` replay hand-picked
streams; here seeded random op-sequence generators drive each of the six
structures through 500+ traced operations across several seeds, asserting
the charged cost of *every* call stays under its hand-contract entry (with
at least one strictly-cheaper fast path per sequence, so the bound is not
a tautology).  The NF half replays random packet streams through every
registered NF at bench geometry and asserts the generated contract is
never violated under either hardware model.
"""

import random

import pytest

from repro import cli
from repro.nf import NF_MATRIX
from repro.nfil import ExecutionTrace, Interpreter
from repro.structures import (
    NOT_FOUND,
    ChainingHashMap,
    CountMinSketch,
    ExpiringMap,
    LpmTrie,
    MaglevTable,
    PortAllocator,
)
from repro.structures.lpm import MAX_DEPTH
from repro.traffic.replayer import Replayer
from structure_drivers import assert_calls_bounded, operation_module

SEEDS = (7, 1009, 20190226)
OPS_PER_SEED = 180  # × 3 seeds ⇒ 540 traced ops per structure


class OpDriver:
    """Replays random ops through a structure's NFIL extern drivers.

    The (module, function) pair per method is built once and reused —
    ``operation_module`` is pure per (structure, method) and rebuilding it
    540 times would dominate the runtime of these tests.
    """

    def __init__(self, structure):
        self.structure = structure
        self.ops = tuple(structure.ops())
        self.trace = ExecutionTrace()
        self._drivers = {}

    def call(self, method, *args):
        driver = self._drivers.get(method)
        if driver is None:
            driver = operation_module(self.structure, method)
            self._drivers[method] = driver
        module, function = driver
        interp = Interpreter(module, handler=self.structure)
        result, _ = interp.run(function, list(args), trace=self.trace)
        return result

    def assert_bounded(self, *, min_ops):
        """Every traced call ≤ its hand-contract entry; ≥1 strict somewhere."""
        # The op table does not depend on what the sequence stored.
        assert tuple(self.structure.ops()) == self.ops
        assert_calls_bounded(self.structure, self.trace, min_ops=min_ops)


# --------------------------------------------------------------------------- #
# Structures
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_hashmap_random_sequences_stay_bounded(seed):
    driver = OpDriver(ChainingHashMap("flow", capacity=16, buckets=4))
    rng = random.Random(seed)
    for n in range(OPS_PER_SEED):
        key = rng.randrange(32)  # 2× capacity: drops and misses happen
        roll = rng.random()
        if roll < 0.45:
            driver.call("put", key, rng.randrange(NOT_FOUND))
        elif roll < 0.85:
            driver.call("get", key)
        else:
            driver.call("remove", key)
    driver.assert_bounded(min_ops=OPS_PER_SEED)


@pytest.mark.parametrize("seed", SEEDS)
def test_expiring_map_random_sequences_stay_bounded(seed):
    driver = OpDriver(ExpiringMap("table", capacity=16, timeout=50, buckets=4))
    rng = random.Random(seed)
    now = 0
    for n in range(OPS_PER_SEED):
        key = rng.randrange(32)
        roll = rng.random()
        if roll < 0.4:
            driver.call("put", key, rng.randrange(NOT_FOUND))
        elif roll < 0.75:
            driver.call("get", key)
        else:
            # Time only moves forward; occasional full-revolution jumps
            # exercise the capped-sweep worst case (w = wheel_slots).
            now += rng.choice((0, 1, 3, 7, 120))
            driver.call("expire", now)
    driver.assert_bounded(min_ops=OPS_PER_SEED)


@pytest.mark.parametrize("seed", SEEDS)
def test_lpm_trie_random_sequences_stay_bounded(seed):
    trie = LpmTrie("fib")
    rng = random.Random(seed)
    for _ in range(24):  # routes installed host-side, then looked up
        length = rng.randrange(0, 33)
        prefix = rng.randrange(1 << 32) & (((1 << length) - 1) << (32 - length))
        trie.add_route(prefix, length, rng.randrange(1, 1 << 32))
    driver = OpDriver(trie)
    for _ in range(OPS_PER_SEED):
        driver.call("lookup", rng.randrange(1 << 32))
    driver.assert_bounded(min_ops=OPS_PER_SEED)
    assert max(
        call.pcvs.get("fib.d", 0) for call in driver.trace.extern_calls
    ) <= MAX_DEPTH


@pytest.mark.parametrize("seed", SEEDS)
def test_port_allocator_random_sequences_stay_bounded(seed):
    pool = list(range(1024, 1024 + 12))
    driver = OpDriver(PortAllocator("ports", pool=pool))
    rng = random.Random(seed)
    leased = []
    for _ in range(OPS_PER_SEED):
        if rng.random() < 0.6:
            port = driver.call("alloc")
            if port != NOT_FOUND:
                leased.append(port)
        else:
            # Mostly valid releases, sometimes a bogus port (fast path).
            if leased and rng.random() < 0.8:
                driver.call("release", leased.pop(rng.randrange(len(leased))))
            else:
                driver.call("release", rng.randrange(1 << 16))
    driver.assert_bounded(min_ops=OPS_PER_SEED)


@pytest.mark.parametrize("seed", SEEDS)
def test_maglev_random_sequences_stay_bounded(seed):
    driver = OpDriver(MaglevTable("lb", table_size=13, max_backends=4))
    rng = random.Random(seed)
    for _ in range(OPS_PER_SEED):
        roll = rng.random()
        backend = rng.randrange(8)  # collides with the 4-backend cap
        if roll < 0.15:
            driver.call("add", backend)
        elif roll < 0.25:
            driver.call("remove", backend)
        elif roll < 0.35:
            driver.call("active", backend)
        else:
            driver.call("lookup", rng.randrange(1 << 32))
    driver.assert_bounded(min_ops=OPS_PER_SEED)


@pytest.mark.parametrize("seed", SEEDS)
def test_sketch_random_sequences_stay_bounded(seed):
    """A small geometry (width 16, ceiling 8) over 32 keys guarantees both
    fast paths fire: early queries see zero counters, and sustained
    updates saturate rows — each strictly under the constant formula."""
    driver = OpDriver(CountMinSketch("cms", depth=4, width=16, counter_max=8))
    rng = random.Random(seed)
    for _ in range(OPS_PER_SEED):
        key = rng.randrange(32)
        if rng.random() < 0.6:
            driver.call("update", key)
        else:
            driver.call("query", key)
    driver.assert_bounded(min_ops=OPS_PER_SEED)


# --------------------------------------------------------------------------- #
# NFs: random packet streams never violate the generated contract
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("nf_name", [spec.name for spec, _ in NF_MATRIX])
@pytest.mark.parametrize("seed", (3, 404))
def test_random_streams_never_violate_nf_contracts(nf_name, seed, nf_specs, gate_targets):
    """Replay every bench workload family at a fresh seed: zero violations
    under both hardware models — the statement the bench samples, asserted
    at seeds the bench never ran."""
    spec, workloads = nf_specs[nf_name]
    contract, _ = gate_targets[nf_name]
    models = cli._bench_models()
    for workload in workloads(seed=seed, packets=250, **spec.bench):
        result = Replayer(workload.harness, contract, models=models).replay(
            workload.stimuli, workload=workload.name
        )
        assert result.ok, result.violations[:3]
        assert result.violations == []
