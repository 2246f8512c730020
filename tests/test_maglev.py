"""Tests for the Maglev-style consistent-hash table.

The interesting property is the control-plane PCV ``f``: the fill-
iteration bound ``N·(M−N) + N·(N+1)/2`` is proven in the module docstring
and must be (a) never exceeded by any backend set and (b) attained
*exactly* by backends with identical permutation parameters — that
tightness is what lets the LB adversarial stream pin the bound.
"""

import random

import pytest

from repro.nf.workloads import colliding_backends
from repro.nfil import ExecutionTrace, Interpreter
from repro.structures import NOT_FOUND, MaglevTable, max_fill_iterations
from structure_drivers import assert_calls_bounded, operation_module

TABLE_SIZE = 13
MAX_BACKENDS = 4


def table(**kwargs):
    defaults = dict(table_size=TABLE_SIZE, max_backends=MAX_BACKENDS)
    defaults.update(kwargs)
    return MaglevTable("tbl", **defaults)


def colliding_ids(count, *, table_size=TABLE_SIZE):
    ids = colliding_backends(count, table_size=table_size)
    probe = MaglevTable("probe", table_size=table_size, max_backends=count)
    params = {probe.permutation_params(b) for b in ids}
    assert len(params) == 1, "colliding_backends must return one permutation class"
    return ids


# --------------------------------------------------------------------------- #
# Construction and geometry validation
# --------------------------------------------------------------------------- #
def test_geometry_is_validated():
    with pytest.raises(ValueError, match="prime"):
        MaglevTable("t", table_size=12, max_backends=4)
    with pytest.raises(ValueError, match="max_backends"):
        MaglevTable("t", table_size=3, max_backends=5)
    with pytest.raises(ValueError, match="positive"):
        MaglevTable("t", table_size=13, max_backends=0)


def test_max_fill_iterations_formula():
    assert max_fill_iterations(0, 13) == 13  # clearing pass
    assert max_fill_iterations(1, 13) == 13  # one backend probes every slot
    assert max_fill_iterations(2, 13) == 25
    assert max_fill_iterations(4, 13) == 46
    assert max_fill_iterations(13, 13) == 13 * 14 // 2
    with pytest.raises(ValueError):
        max_fill_iterations(14, 13)


def test_permutation_covers_every_slot():
    t = table()
    for backend in (1, 77, 999, 65535):
        offset, skip = t.permutation_params(backend)
        slots = {(offset + i * skip) % TABLE_SIZE for i in range(TABLE_SIZE)}
        assert slots == set(range(TABLE_SIZE))


# --------------------------------------------------------------------------- #
# Concrete semantics: fill, balance, disruption, determinism
# --------------------------------------------------------------------------- #
def test_fill_populates_every_slot_and_every_backend():
    t = table()
    for backend in (11, 22, 33, 44):
        status, probes = t.add_backend(backend)
        assert status == "added" and probes > 0
    snapshot = t.table()
    assert NOT_FOUND not in snapshot
    assert set(snapshot) == {11, 22, 33, 44}  # M >= N: everyone owns slots


def test_add_semantics():
    t = table()
    assert t.add_backend(7)[0] == "added"
    assert t.add_backend(7) == ("present", 0)
    for backend in (8, 9, 10):
        t.add_backend(backend)
    assert t.add_backend(11) == ("dropped", 0)  # at max_backends
    with pytest.raises(ValueError):
        t.add_backend(1 << 16)


def test_remove_and_empty_table():
    t = table()
    assert t.remove_backend(5) == (False, 0)
    t.add_backend(5)
    removed, probes = t.remove_backend(5)
    assert removed and probes == TABLE_SIZE  # empty repop = clearing pass
    assert t.select(12345) is None
    assert t.table() == (NOT_FOUND,) * TABLE_SIZE


def test_remove_readd_is_deterministic():
    t = table()
    for backend in (11, 22, 33, 44):
        t.add_backend(backend)
    before = t.table()
    t.remove_backend(22)
    t.add_backend(22)
    assert t.table() == before


def test_removal_is_minimally_disruptive():
    t = table()
    for backend in (11, 22, 33, 44):
        t.add_backend(backend)
    before = t.table()
    t.remove_backend(22)
    after = t.table()
    # Every slot of the removed backend is reassigned to a survivor ...
    assert all(after[i] != 22 for i in range(TABLE_SIZE))
    assert all(after[i] in {11, 33, 44} for i in range(TABLE_SIZE))
    # ... and flows on surviving backends mostly stay put (Maglev's
    # minimal-disruption property; exact count for this deterministic set).
    moved = sum(1 for b, a in zip(before, after) if b != 22 and b != a)
    assert moved <= 2


def test_select_is_consistent_and_affine_to_the_table():
    t = table()
    for backend in (11, 22, 33, 44):
        t.add_backend(backend)
    flows = [random.Random(3).randrange(1 << 48) for _ in range(64)]
    chosen = {flow: t.select(flow) for flow in flows}
    assert set(chosen.values()) <= {11, 22, 33, 44}
    assert all(t.select(flow) == backend for flow, backend in chosen.items())


# --------------------------------------------------------------------------- #
# The f bound: never exceeded, exactly attained
# --------------------------------------------------------------------------- #
def test_fill_iterations_never_exceed_the_per_n_bound():
    rng = random.Random(2019)
    for _ in range(200):
        t = MaglevTable("t", table_size=13, max_backends=8)
        for backend in rng.sample(range(1, 1 << 16), rng.randrange(1, 9)):
            status, probes = t.add_backend(backend)
            assert status == "added"
            assert probes <= max_fill_iterations(t.backend_count(), 13)
        victim = rng.choice(t.backends())
        removed, probes = t.remove_backend(victim)
        assert removed
        assert probes <= max_fill_iterations(t.backend_count(), 13)


def test_identical_permutations_attain_the_bound_exactly():
    ids = colliding_ids(MAX_BACKENDS)
    t = table()
    for n, backend in enumerate(ids, start=1):
        status, probes = t.add_backend(backend)
        assert status == "added"
        assert probes == max_fill_iterations(n, TABLE_SIZE), n
    # The declared PCV bound is the N = max_backends case.
    (pcv,) = t.registry()
    assert pcv.name == "tbl.f"
    assert pcv.max_value == max_fill_iterations(MAX_BACKENDS, TABLE_SIZE) == 46


# --------------------------------------------------------------------------- #
# Contract surface: hand contract, traced replay
# --------------------------------------------------------------------------- #
def test_contract_bounds_100_traced_operations():
    t = table()
    trace = ExecutionTrace()
    interps = {}
    for op in t.ops():
        module, function = operation_module(t, op.method)
        interps[op.method] = (Interpreter(module, handler=t), function)

    def call(method, *args):
        interp, function = interps[method]
        result, _ = interp.run(function, list(args), trace=trace)
        return result

    rng = random.Random(7)
    active = []
    for _ in range(150):
        roll = rng.random()
        if roll < 0.25 and len(active) < MAX_BACKENDS:
            backend = rng.randrange(1, 1 << 16)
            call("add", backend)
            if t.is_active(backend):
                active.append(backend)
        elif roll < 0.4 and active:
            call("remove", active.pop(rng.randrange(len(active))))
        elif roll < 0.5:
            call("active", rng.randrange(1, 1 << 16))
        else:
            result = call("lookup", rng.randrange(1 << 48))
            if active:
                assert result in set(active)
            else:
                assert result == NOT_FOUND
    # Fast paths (no-op add/remove, empty lookup) make the bound strict.
    assert_calls_bounded(t, trace, min_ops=100)


def test_repopulation_cost_lands_in_traces_as_qualified_pcv():
    t = table()
    trace = ExecutionTrace()
    module, function = operation_module(t, "add")
    interp = Interpreter(module, handler=t)
    for backend in colliding_ids(MAX_BACKENDS):
        interp.run(function, [backend], trace=trace)
    observed = [call.pcvs["tbl.f"] for call in trace.extern_calls]
    assert observed == [max_fill_iterations(n, TABLE_SIZE) for n in range(1, MAX_BACKENDS + 1)]
    assert trace.pcv_bindings()["tbl.f"] == 46
