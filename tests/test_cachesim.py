"""The cache simulator: LRU invariants, conflict patterns, simulated pricing.

Three seeded property families over random access streams (the LRU
invariants the simulated hardware backend's soundness story leans on),
one directed test pinning a classic conflict-miss pattern exactly, the
hierarchy's level semantics, and the :class:`~repro.hw.SimulatedModel`
pricing rules (observed levels, shortfall at DRAM, warm-state reset).
"""

import random
from fractions import Fraction

import pytest

from repro.hw import (
    DEFAULT_L1_GEOMETRY,
    DEFAULT_LLC_GEOMETRY,
    CacheGeometry,
    CacheHierarchy,
    HwSpec,
    RealisticModel,
    SetAssociativeCache,
    SimulatedModel,
    geometry_to_json,
)
from repro.nfil.interpreter import ExternResult
from repro.nfil.tracer import ExecutionTrace
from repro.structures import LpmTrie

SEEDS = (7, 99, 2019)


# --------------------------------------------------------------------------- #
# LRU invariants over seeded random streams
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_reaccess_within_associativity_window_always_hits(seed):
    """If fewer than ``ways`` distinct conflicting lines were touched since
    an address was last accessed, true LRU cannot have evicted it."""
    geometry = CacheGeometry(sets=8, ways=2, line_size=64)
    cache = SetAssociativeCache(geometry)
    rng = random.Random(seed)
    history = []  # (set index, tag) per access, in order
    last_seen = {}  # (set index, tag) -> position in history
    checked = 0
    for _ in range(800):
        addr = rng.randrange(1 << 13)
        tag = addr // geometry.line_size
        index = tag % geometry.sets
        hit = cache.access(addr)
        previous = last_seen.get((index, tag))
        if previous is not None:
            conflicting = {
                t for s, t in history[previous + 1 :] if s == index and t != tag
            }
            if len(conflicting) < geometry.ways:
                assert hit, (addr, sorted(conflicting))
                checked += 1
        last_seen[(index, tag)] = len(history)
        history.append((index, tag))
    assert checked > 50  # the stream actually exercised the invariant


@pytest.mark.parametrize("seed", SEEDS)
def test_working_set_within_capacity_converges_to_all_hits(seed):
    """A working set that fits (≤ ways distinct lines per set) only ever
    takes cold misses, in any access order: pass k of n hits (n−1)/n."""
    geometry = CacheGeometry(sets=8, ways=2, line_size=64)
    cache = SetAssociativeCache(geometry)
    rng = random.Random(seed)
    lines = [i * geometry.line_size for i in range(geometry.sets * geometry.ways)]
    passes = 5
    for _ in range(passes):
        order = lines[:]
        rng.shuffle(order)
        for addr in order:
            cache.access(addr)
    assert cache.misses == len(lines)  # one cold miss per line, nothing else
    assert cache.hit_rate == Fraction(passes - 1, passes)
    for addr in lines:  # steady state: 100% hits
        assert cache.access(addr)


@pytest.mark.parametrize("seed", SEEDS)
def test_hit_count_is_monotone_in_associativity(seed):
    """LRU is a stack algorithm per set: at fixed set count, more ways can
    never turn a hit into a miss (the inclusion property)."""
    rng = random.Random(seed)
    stream = [rng.randrange(1 << 14) for _ in range(3000)]
    hits = []
    for ways in (1, 2, 4, 8):
        cache = SetAssociativeCache(CacheGeometry(sets=16, ways=ways, line_size=64))
        for addr in stream:
            cache.access(addr)
        assert cache.accesses == len(stream)
        hits.append(cache.hits)
    assert hits == sorted(hits)
    assert hits[0] < hits[-1]  # the stream actually conflicts somewhere


# --------------------------------------------------------------------------- #
# Directed conflict-miss pattern
# --------------------------------------------------------------------------- #
def test_directed_conflict_thrash_pattern_is_reproduced_exactly():
    """Three lines in one 2-way set, accessed in rotation: the classic LRU
    thrash where *every* access misses — then dropping one line from the
    rotation restores hits, in exactly the expected positions."""
    geometry = CacheGeometry(sets=2, ways=2, line_size=64)
    cache = SetAssociativeCache(geometry)
    a, b, c = 0, 128, 256  # tags 0, 2, 4 -> all set 0
    assert [cache.access(addr) for addr in [a, b, c] * 4] == [False] * 12
    # The set holds {b, c} now; retiring c makes {a, b} fit.
    assert [cache.access(addr) for addr in (a, b, a, b)] == [False, False, True, True]
    assert cache.hits == 2 and cache.misses == 14


def test_hierarchy_levels_and_inclusive_fill():
    """L1 hit, LLC hit (with L1 refill) and DRAM are told apart correctly."""
    hierarchy = CacheHierarchy(
        CacheGeometry(sets=1, ways=1), CacheGeometry(sets=1, ways=2)
    )
    a, b = 0, 64
    assert hierarchy.access(a) == "dram"  # cold machine
    assert hierarchy.access(a) == "l1"  # resident
    assert hierarchy.access(b) == "dram"  # evicts a from the 1-line L1
    assert hierarchy.access(a) == "llc"  # still held by the 2-way LLC...
    assert hierarchy.access(a) == "l1"  # ...and the LLC hit refilled L1
    hierarchy.reset()
    assert hierarchy.access(a) == "dram"
    assert hierarchy.l1.accesses == 1 and hierarchy.llc.accesses == 1


# --------------------------------------------------------------------------- #
# SimulatedModel pricing
# --------------------------------------------------------------------------- #
# --------------------------------------------------------------------------- #
# The batch walk against one access at a time
# --------------------------------------------------------------------------- #
def _stream(rng, lines, length):
    """Addresses over ``lines`` distinct 64-byte lines; most repeat a recent
    line, in runs on one line, and some repeat the last address exactly."""
    recent = [0]
    stream = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.1 and stream:
            stream.append(stream[-1])
            continue
        if roll < 0.4:
            line = recent[-1]
        elif roll < 0.7:
            line = rng.choice(recent[-8:])
        else:
            line = rng.randrange(lines)
        recent.append(line)
        stream.append(0x4000 + 64 * line + rng.randrange(64))
    return stream


@pytest.mark.parametrize(
    "l1, llc, lines",
    [
        (DEFAULT_L1_GEOMETRY, DEFAULT_LLC_GEOMETRY, 3000),
        (CacheGeometry(sets=8, ways=1), CacheGeometry(sets=32, ways=1), 200),
        (CacheGeometry(sets=512, ways=2), CacheGeometry(sets=1024, ways=4), 300),
        (CacheGeometry(sets=16, ways=2), CacheGeometry(sets=64, ways=4, line_size=128), 400),
        (CacheGeometry(sets=16, ways=2), CacheGeometry(sets=128, ways=4, line_size=32), 400),
        (CacheGeometry(sets=8, ways=1), CacheGeometry(sets=64, ways=8), 300),
    ],
    ids=[
        "default",
        "direct_mapped",
        "more_sets_than_lines",
        "llc_wider_lines",
        "llc_narrower_lines",
        "one_way_l1",
    ],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_walk_matches_one_access_at_a_time(l1, llc, lines, seed):
    """Per stream: the same per-level counts; after it: the same counters and
    every set's lines in LRU order, at both levels."""
    rng = random.Random(seed)
    batch, single = CacheHierarchy(l1, llc), CacheHierarchy(l1, llc)
    for _ in range(60):
        stream = _stream(rng, lines, rng.randrange(80))
        served = [single.access(addr) for addr in stream]
        assert batch.access_stream(stream) == tuple(
            served.count(level) for level in ("l1", "llc", "dram")
        )
        for walked, stepped in ((batch.l1, single.l1), (batch.llc, single.llc)):
            assert (walked.hits, walked.misses) == (stepped.hits, stepped.misses)
            assert walked._sets == stepped._sets
    assert single.l1.hits and single.llc.misses
    # Only a cache with a set per line never evicts, so its LLC never hits.
    assert bool(single.llc.hits) == (lines > l1.sets)


def test_simulated_measure_prices_observed_levels():
    spec = HwSpec()
    model = SimulatedModel(
        spec, l1=CacheGeometry(sets=1, ways=1), llc=CacheGeometry(sets=1, ways=2)
    )
    trace = ExecutionTrace(record_accesses=True)
    trace.record_instruction("alu")
    trace.record_instruction("alu")
    for addr in (0, 0, 64, 0):
        trace.record_access(addr, "load")
    # Levels served: dram, l1, dram, llc (see the hierarchy test above).
    expected = (
        Fraction(2, spec.issue_width)
        + spec.dram_latency
        + spec.l1_latency
        + spec.dram_latency
        + spec.llc_latency
    )
    assert model.measure(trace) == expected


def test_simulated_compile_measure_matches_measure_and_prices_shortfall():
    """Counted-but-unrecorded accesses pay DRAM (the over-pricing side of
    the soundness argument), identically in both measure implementations."""
    spec = HwSpec()
    trace = ExecutionTrace(record_accesses=True)
    trace.record_access(0, "load")
    trace.record_extern(
        "m_get", (1,), ExternResult(2, instructions=5, memory_accesses=3, accesses=(64, 128))
    )
    # 4 accesses counted (1 stateless + 3 extern), 3 recorded: shortfall 1.
    # All three recorded lines are distinct and cold -> DRAM each.
    expected = Fraction(5, spec.issue_width) + 3 * spec.dram_latency + spec.dram_latency
    assert SimulatedModel(spec).measure(trace) == expected
    compiled = SimulatedModel(spec).compile_measure(scale=2)
    assert Fraction(compiled(trace), 2) == expected
    with pytest.raises(ValueError, match="does not clear"):
        SimulatedModel(spec).compile_measure(scale=1)  # 1/2-cycle instructions


def test_simulated_model_reset_restores_cold_measurement():
    model = SimulatedModel()
    trace = ExecutionTrace(record_accesses=True)
    for addr in (0, 64, 128):
        trace.record_access(addr, "load")
    cold = model.measure(trace)
    warm = model.measure(trace)
    assert warm < cold  # the second replay found the lines resident
    model.reset()
    assert model.measure(trace) == cold


@pytest.mark.parametrize("seed", SEEDS)
def test_simulated_measurement_never_exceeds_dram_prediction(seed):
    """The per-packet soundness inequality: every simulated access costs at
    most DRAM, so measured ≤ the prediction-side all-DRAM price — whatever
    the (warm, shared) cache state happens to be."""
    rng = random.Random(seed)
    model = SimulatedModel()
    for _ in range(20):
        trace = ExecutionTrace(record_accesses=True)
        count = rng.randrange(1, 40)
        for _ in range(count):
            trace.record_access(rng.randrange(1 << 12), "load")
        assert model.measure(trace) <= Fraction(count * model.spec.dram_latency)


# --------------------------------------------------------------------------- #
# Configuration validation and the realistic model's hit-rate guard
# --------------------------------------------------------------------------- #
def test_geometry_validation_and_json():
    with pytest.raises(ValueError, match="at least one set"):
        CacheGeometry(sets=0, ways=1)
    with pytest.raises(ValueError, match="at least one way"):
        CacheGeometry(sets=1, ways=0)
    with pytest.raises(ValueError, match="power of two"):
        CacheGeometry(sets=1, ways=1, line_size=48)
    assert geometry_to_json(CacheGeometry(sets=32, ways=2, line_size=64)) == {
        "sets": 32,
        "ways": 2,
        "line_size": 64,
        "capacity_bytes": 4096,
    }


def test_hwspec_rejects_misordered_latencies():
    with pytest.raises(ValueError, match="l1_latency <= llc_latency"):
        HwSpec(l1_latency=40, llc_latency=30)
    with pytest.raises(ValueError, match="llc_latency <= dram_latency"):
        HwSpec(llc_latency=200)


def test_realistic_model_rejects_undeclared_structure_kinds():
    """An unknown kind must fail loudly, not be silently priced at DRAM."""

    class NovelStructure(LpmTrie):
        kind = "novel_structure"

    structure = NovelStructure("novel", value_bound=4)
    model = RealisticModel()
    with pytest.raises(KeyError, match="novel_structure"):
        model.structure_access_cycles(structure)
    # None still means "unknown producer, price all-miss" — that path is
    # a deliberate worst case, not a modelling gap.
    assert model.structure_access_cycles(None) == Fraction(model.spec.dram_latency)
    # Declaring a rate — per kind or per instance — resolves the guard.
    by_kind = RealisticModel(hit_rates={"novel_structure": Fraction(1, 2)})
    assert by_kind.hit_rate(structure) == Fraction(1, 2)
    by_name = RealisticModel(hit_rates={"novel": Fraction(1, 4)})
    assert by_name.hit_rate(structure) == Fraction(1, 4)
