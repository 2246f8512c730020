"""Tests for the Vigor-style structure library: concrete semantics, the
per-operation hand contracts (replayed against 100+ traced operations per
structure), and the base-class machinery."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from repro import cli
from repro.core import PCV, Metric, PerfExpr
from repro.nfil import ExecutionTrace, ExternHandler, ExternResult, Interpreter, Memory
from repro.structures import (
    NOT_FOUND,
    ChainingHashMap,
    CountMinSketch,
    ExpiringMap,
    LpmTrie,
    MaglevTable,
    OpSpec,
    PortAllocator,
    Structure,
    StructureModel,
)
from repro.structures.lpm import MAX_DEPTH
from structure_drivers import assert_calls_bounded, operation_module


def traced_call(structure, method, *args, trace):
    """Drive one operation through the interpreter on its NFIL driver.

    Returns the concrete result; the call's instrumented cost lands in
    ``trace`` exactly as it would during an NF replay.
    """
    module, function = operation_module(structure, method)
    interp = Interpreter(module, handler=structure)
    result, _ = interp.run(function, list(args), trace=trace)
    return result


# --------------------------------------------------------------------------- #
# Chaining hash map
# --------------------------------------------------------------------------- #
def test_hashmap_semantics():
    m = ChainingHashMap("m", capacity=4, buckets=2)
    assert m.lookup(1) == (None, 0)
    assert m.insert(1, 10) == ("inserted", 0)
    assert m.insert(1, 11)[0] == "refreshed"
    assert m.lookup(1)[0] == 11
    assert m.delete(1) == (True, 1)
    assert m.delete(1)[0] is False
    assert m.occupancy() == 0


def test_hashmap_capacity_drops_new_keys():
    m = ChainingHashMap("m", capacity=2, buckets=1)
    assert m.insert(1, 1)[0] == "inserted"
    assert m.insert(2, 2)[0] == "inserted"
    assert m.insert(3, 3)[0] == "dropped"
    # Refreshing an existing key still works at capacity.
    assert m.insert(2, 20)[0] == "refreshed"
    assert m.lookup(2)[0] == 20
    assert m.lookup(3) == (None, 2)


def test_hashmap_chains_report_traversals():
    m = ChainingHashMap("m", capacity=8, buckets=1)  # everything collides
    for key in range(4):
        m.insert(key, key * 10)
    value, traversed = m.lookup(3)
    assert value == 30
    assert traversed == 4  # walked the whole chain


def test_hashmap_contract_bounds_100_traced_operations():
    m = ChainingHashMap("flow", capacity=16, buckets=4)  # force collisions
    rng = random.Random(42)
    trace = ExecutionTrace()
    for n in range(150):
        key = rng.randrange(24)
        roll = rng.random()
        if roll < 0.5:
            traced_call(m, "put", key, n, trace=trace)
        elif roll < 0.85:
            result = traced_call(m, "get", key, trace=trace)
            expected = m.lookup(key)[0]
            assert result == (NOT_FOUND if expected is None else expected)
        else:
            traced_call(m, "remove", key, trace=trace)
    assert_calls_bounded(m, trace, min_ops=150)
    # Collisions must actually have happened for the bound to mean much.
    assert max(call.pcvs.get("flow.t", 0) for call in trace.extern_calls) >= 2


# --------------------------------------------------------------------------- #
# Expiring (time-wheel) map
# --------------------------------------------------------------------------- #
def test_expiring_map_expires_on_deadline():
    m = ExpiringMap("em", capacity=8, timeout=5)
    m.insert(1, 10, now=0)
    assert m.sweep(4) == (4, 0)  # deadline is 0 + 5: not yet reached
    assert m.occupancy() == 1
    advanced, expired = m.sweep(5)
    assert (advanced, expired) == (1, 1)
    assert m.occupancy() == 0


def test_expiring_map_refresh_postpones_expiry():
    m = ExpiringMap("em", capacity=8, timeout=5)
    m.insert(1, 10, now=0)
    m.sweep(3)
    m.insert(1, 10, now=3)  # refresh: new deadline 8
    assert m.sweep(7) == (4, 0)
    assert m.occupancy() == 1
    assert m.sweep(9)[1] == 1


def test_expiring_map_wheel_advance_is_capped():
    m = ExpiringMap("em", capacity=8, timeout=5, wheel_slots=10)
    m.insert(1, 10, now=0)
    advanced, expired = m.sweep(1_000_000)
    assert advanced == 10  # one full revolution covers every slot
    assert expired == 1


def test_expiring_map_insert_never_skips_wheel_ticks():
    """A time-travelling insert must sweep, not jump the cursor: entries
    due in the skipped slots would otherwise outlive their deadline by a
    full wheel revolution."""
    m = ExpiringMap("em", capacity=8, timeout=300)
    m.insert(1, 10, now=0)  # deadline 300
    m.insert(2, 20, now=500)  # cursor moves 0 -> 500: key 1 must expire
    assert m.occupancy() == 1
    assert m._map.lookup(1) == (None, 0)
    assert m.sweep(501) == (1, 0)


def test_expiring_map_rejects_undersized_wheel():
    with pytest.raises(ValueError):
        ExpiringMap("em", timeout=10, wheel_slots=10)


def test_expiring_map_contract_bounds_100_traced_operations():
    m = ExpiringMap("mac", capacity=16, timeout=20, buckets=4)
    rng = random.Random(7)
    trace = ExecutionTrace()
    now = 0
    for n in range(60):
        now += rng.randrange(0, 8)
        traced_call(m, "expire", now, trace=trace)
        key = rng.randrange(24)
        traced_call(m, "put", key, n % 64, trace=trace)
        result = traced_call(m, "get", rng.randrange(24), trace=trace)
        assert result == NOT_FOUND or result < 64
    assert_calls_bounded(m, trace, min_ops=180)
    # The workload must have exercised expiry and wheel advancement.
    assert max(call.pcvs.get("mac.e", 0) for call in trace.extern_calls) >= 1
    assert max(call.pcvs.get("mac.w", 0) for call in trace.extern_calls) >= 1


# --------------------------------------------------------------------------- #
# LPM trie
# --------------------------------------------------------------------------- #
def _ip(a, b, c, d):
    return (a << 24) | (b << 16) | (c << 8) | d


def test_lpm_longest_prefix_wins():
    t = LpmTrie("rt")
    t.add_route(_ip(10, 0, 0, 0), 8, 1)
    t.add_route(_ip(10, 1, 0, 0), 16, 2)
    t.add_route(_ip(10, 1, 2, 0), 24, 3)
    assert t.lookup(_ip(10, 9, 9, 9))[0] == 1
    assert t.lookup(_ip(10, 1, 9, 9))[0] == 2
    assert t.lookup(_ip(10, 1, 2, 9))[0] == 3
    assert t.lookup(_ip(11, 0, 0, 0))[0] is None
    assert t.route_count() == 3


def test_lpm_default_route_and_host_route():
    t = LpmTrie("rt")
    t.add_route(0, 0, 9)  # default route at the trie root
    t.add_route(_ip(192, 168, 0, 1), 32, 5)
    value, visited = t.lookup(_ip(8, 8, 8, 8))
    assert (value, visited) == (9, 1)
    value, visited = t.lookup(_ip(192, 168, 0, 1))
    assert value == 5
    assert visited == MAX_DEPTH


def test_lpm_rejects_bad_routes():
    t = LpmTrie("rt")
    with pytest.raises(ValueError):
        t.add_route(0, 33, 1)
    with pytest.raises(ValueError):
        t.add_route(1 << 32, 8, 1)
    with pytest.raises(ValueError):
        t.add_route(0, 0, NOT_FOUND)


def test_lpm_contract_bounds_100_traced_operations():
    t = LpmTrie("rt", value_bound=64)
    rng = random.Random(2019)
    # No default route: random addresses must be able to miss, so the
    # lookup bound stays strict somewhere (the miss fast path).
    for _ in range(40):
        length = rng.choice((8, 12, 16, 24, 32))
        prefix = rng.randrange(1 << 32) & ~((1 << (32 - length)) - 1 if length < 32 else 0)
        t.add_route(prefix, length, rng.randrange(64))
    trace = ExecutionTrace()
    depths = set()
    for _ in range(120):
        address = rng.randrange(1 << 32)
        result = traced_call(t, "lookup", address, trace=trace)
        expected = t.lookup(address)[0]
        assert result == (NOT_FOUND if expected is None else expected)
        depths.add(trace.extern_calls[-1].pcvs["rt.d"])
    assert_calls_bounded(t, trace, min_ops=120)
    assert len(depths) > 1  # the workload explored different prefix depths
    assert max(depths) <= MAX_DEPTH


# --------------------------------------------------------------------------- #
# Port allocator
# --------------------------------------------------------------------------- #
def test_port_allocator_leases_in_pool_order_and_reuses_releases():
    alloc = PortAllocator("ports", pool=[100, 200, 300])
    assert [alloc.take() for _ in range(3)] == [100, 200, 300]
    assert alloc.take() == NOT_FOUND
    assert alloc.give_back(200) is True
    assert alloc.give_back(200) is False  # double free refused
    assert alloc.take() == 200
    assert alloc.available() == 0 and alloc.leased() == 3


def test_port_allocator_validates_its_pool():
    with pytest.raises(ValueError):
        PortAllocator("ports", pool=[])
    with pytest.raises(ValueError):
        PortAllocator("ports", pool=[1, 1])
    with pytest.raises(ValueError):
        PortAllocator("ports", pool=[1 << 16])


def test_port_allocator_contract_bounds_100_traced_operations():
    alloc = PortAllocator("ports", pool=range(1024, 1024 + 8))
    rng = random.Random(5)
    trace = ExecutionTrace()
    held = []
    for _ in range(120):
        if held and rng.random() < 0.4:
            traced_call(alloc, "release", held.pop(rng.randrange(len(held))), trace=trace)
        else:
            result = traced_call(alloc, "alloc", trace=trace)
            if result != NOT_FOUND:
                held.append(result)
    assert_calls_bounded(alloc, trace, min_ops=120)
    # Exhaustion must have been exercised (the alloc fast path).
    assert any(call.result == NOT_FOUND for call in trace.extern_calls)


# --------------------------------------------------------------------------- #
# Base-class machinery
# --------------------------------------------------------------------------- #
def test_structure_requires_handlers_for_declared_ops():
    class Incomplete(Structure):
        kind = "broken"

        def ops(self):
            return (OpSpec("poke", 1, False),)

    with pytest.raises(TypeError):
        Incomplete("b")


def test_structure_rejects_bad_instance_names():
    # The error must teach the rule: it quotes the allowed character set.
    with pytest.raises(ValueError, match="letters, digits and underscores"):
        ChainingHashMap("no spaces")
    # Dots are reserved as the PCV namespace separator.
    with pytest.raises(ValueError, match="letters, digits and underscores"):
        ChainingHashMap("dotted.name")
    # Digit-leading names would only fail later, at PCV qualification —
    # the constructor must fail fast instead.
    with pytest.raises(ValueError, match="not starting with a digit"):
        ChainingHashMap("2tbl")


@pytest.mark.parametrize("kind", [structure.kind for structure in cli.smoke_structures()])
def test_op_table_is_a_pure_function_of_constructor_arguments(kind):
    """The hand contract and Bolt's symbolic model both read the op table,
    so nothing compares them; that holds only while the table cannot drift
    between reads, between instances built alike, or from the snapshot
    ``op()`` answers from."""
    def build():
        return next(s for s in cli.smoke_structures() if s.kind == kind)

    first, second = build(), build()
    ops = tuple(first.ops())
    assert tuple(first.ops()) == ops
    assert tuple(second.ops()) == ops
    assert [first.op(spec.method) for spec in ops] == list(ops)
    assert first.operation_contract().render() == second.operation_contract().render()


def test_charge_rejects_bad_discounts():
    m = ChainingHashMap("m", capacity=4)
    with pytest.raises(ValueError):
        m.charge("get", 0, t=0, discount_instructions=99)


def test_charge_rejects_pcv_keywords_that_differ_from_its_operation():
    em = ExpiringMap("em", capacity=4, timeout=5)
    # A missing PCV would be charged at 0, understating the cost.
    with pytest.raises(TypeError, match=r"em\.charge\('expire'\): missing PCV 'e'"):
        em.charge("expire", w=1)
    # A misspelt one would be dropped silently.
    with pytest.raises(TypeError, match=r"em\.charge\('get'\): unexpected PCV 'tt'"):
        em.charge("get", 0, t=1, tt=3)
    with pytest.raises(TypeError, match=r"unexpected PCV 't'"):
        PortAllocator("ports", pool=[1, 2]).charge("alloc", 1, t=0)
    assert em.charge("get", 0, t=1).pcvs == {"em.t": 1}


class _Fractional(Structure):
    """One op whose cost coefficients are fractions, so charges round up."""

    kind = "fractional"

    def ops(self):
        cost = {
            Metric.INSTRUCTIONS: PerfExpr({("t",): Fraction(3, 2), (): Fraction(1, 3)}),
            Metric.MEMORY_ACCESSES: PerfExpr({("t",): Fraction(5, 4), ("t", "u"): 1, (): 2}),
        }
        return (OpSpec("walk", 1, False, cost, ("t", "u")),)

    def pcvs(self):
        return (
            PCV("t", "steps", structure=self.name, max_value=9),
            PCV("u", "rounds", structure=self.name, max_value=3),
        )

    def _op_walk(self, args, memory):  # pragma: no cover - never replayed
        return self.charge("walk", t=0, u=0)


def _every_structure_kind():
    return (
        ChainingHashMap("hm", capacity=4),
        ExpiringMap("em", capacity=4, timeout=5),
        LpmTrie("rt"),
        PortAllocator("ports", pool=range(1024, 1030)),
        MaglevTable("lb", table_size=7, max_backends=3),
        CountMinSketch("cms", depth=2, width=8),
        _Fractional("frac"),
    )


def test_compiled_charges_equal_evaluate_int_at_every_pcv_value():
    """Whole results: counts at the formulas' ceilings, the discount, the
    qualified PCVs in op order, and the recorded addresses — padded to the
    count with recording on, an error past it, ``()`` with it off."""
    for structure in _every_structure_kind():
        bounds = {pcv.name: pcv.max_value for pcv in structure.pcvs()}
        heap = structure.heap_base
        for op in structure.ops():
            qualified = [structure.pcv_name(symbol) for symbol in op.pcvs]
            for values in itertools.product(*(range(bounds[s] + 1) for s in op.pcvs)):
                bindings = dict(zip(op.pcvs, values))
                where = (structure.kind, op.method, bindings)
                instructions = op.cost[Metric.INSTRUCTIONS].evaluate_int(bindings)
                count = op.cost[Metric.MEMORY_ACCESSES].evaluate_int(bindings)
                pcvs = dict(zip(qualified, values))
                discount = 1 if instructions > 1 else 0
                structure.record_accesses = True
                for touched in ((), tuple(range(8, 8 + count // 2))):
                    accesses = touched + (heap,) * (count - len(touched))
                    result = structure.charge(
                        op.method, 7, discount_instructions=discount, touched=touched, **bindings
                    )
                    want = ExternResult(7, instructions - discount, count, pcvs, accesses)
                    assert type(result) is ExternResult and result == want, where
                    assert list(result.pcvs) == qualified, where
                too_many = (
                    f"{structure.name}.charge({op.method!r}) recorded {count + 4} "
                    f"addresses but its formula charges {count}"
                )
                with pytest.raises(ValueError, match=re.escape(too_many)):
                    structure.charge(op.method, touched=tuple(range(8, 12 + count)), **bindings)
                structure.record_accesses = False
                result = structure.charge(op.method, touched=(1, 2, 3), **bindings)
                assert result == ExternResult(None, instructions, count, pcvs, ()), where
                with pytest.raises(ValueError, match="bad instruction discount"):
                    structure.charge(op.method, discount_instructions=instructions, **bindings)
    # The fractional op really exercises the rounding.
    frac = _Fractional("frac2")
    assert frac.charge("walk", t=1, u=0).instructions == 2  # ceil(3/2 + 1/3)
    assert frac.charge("walk", t=1, u=1).memory_accesses == 5  # ceil(5/4 + 1 + 2)


def test_structure_model_merges_registries_and_dispatches():
    em = ExpiringMap("mac", capacity=8, timeout=10)
    rt = LpmTrie("fib")
    model = StructureModel(em, rt)
    names = model.registry().names()
    assert names == ["fib.d", "mac.e", "mac.t", "mac.w"]


def test_structure_model_keeps_same_symbol_instances_disjoint():
    """Two structures declaring the same local symbol (both map kinds use
    ``t``) stay disjoint in the merged registry — each under its own
    instance namespace, each with its own bound."""
    em = ExpiringMap("mac", capacity=8, timeout=10)
    hm = ChainingHashMap("flow", capacity=32)
    registry = StructureModel(em, hm).registry()
    assert registry.names() == ["flow.t", "mac.e", "mac.t", "mac.w"]
    assert registry.get("mac.t").max_value == 8
    assert registry.get("flow.t").max_value == 32
    assert registry.get("mac.t").structure == "mac"
    assert registry.get("flow.t").structure == "flow"


def test_maps_reject_the_not_found_sentinel_as_value():
    """A stored NOT_FOUND would be indistinguishable from a miss, so the
    maps refuse it — mirroring LpmTrie.add_route's guard."""
    with pytest.raises(ValueError, match="NOT_FOUND"):
        ChainingHashMap("m", capacity=4).insert(1, NOT_FOUND)
    with pytest.raises(ValueError, match="NOT_FOUND"):
        ExpiringMap("em", capacity=4, timeout=5).insert(1, NOT_FOUND, now=0)


def test_extern_handler_merge_composes_structures():
    em = ExpiringMap("mac", capacity=8, timeout=10)
    rt = LpmTrie("fib")
    combined = ExternHandler().merge(em).merge(rt)
    for method in ("expire", "put", "get"):
        assert combined.knows(f"mac_{method}")
    assert combined.knows("fib_lookup")
    # Colliding extern names must be rejected, not silently shadowed.
    with pytest.raises(ValueError):
        combined.merge(LpmTrie("fib"))


def test_operation_contract_lists_every_op():
    em = ExpiringMap("mac", capacity=8, timeout=10)
    contract = em.operation_contract()
    assert contract.class_names() == ["expire", "put", "get"]
    text = contract.render()
    assert "time-wheel" in text


@pytest.mark.parametrize("record", [True, False], ids=["recording", "counting"])
def test_each_sketch_call_hashes_every_row_once(record, monkeypatch):
    """An update or a query computes each row's counter index once, on
    every path: the never-seen query, an unsaturated update, the saturated
    update's fast path and a query of a counted key."""
    sketch = CountMinSketch("cms", depth=3, width=8, counter_max=2)
    sketch.record_accesses = record
    hashed = []
    index = CountMinSketch._index

    def counted(self, row, key):
        hashed.append(row)
        return index(self, row, key)

    monkeypatch.setattr(CountMinSketch, "_index", counted)
    memory = Memory()
    calls = [("query", 0), ("update", 1), ("update", 2), ("update", 2), ("query", 2)]
    for method, estimate in calls:
        hashed.clear()
        result = sketch.handle(sketch.extern_name(method), (5,), memory)
        assert result.value == estimate, method
        assert hashed == list(range(sketch.depth)), method
        assert len(result.accesses) == (result.memory_accesses if record else 0)
