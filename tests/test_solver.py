"""Tests for the conservative constraint solver (repro.sym.solver)."""

import random
from collections import Counter

from repro.sym import expr as E
from repro.sym.expr import Const, Sym
from repro.sym.solver import CheckResult, Solver


def _verify(constraints, model):
    return all(E.evaluate(c, model) == 1 for c in constraints)


def test_trivial_sat_and_unsat():
    solver = Solver()
    assert solver.solve([]) == (CheckResult.SAT, {})
    assert solver.solve([Const(1, 1)]) == (CheckResult.SAT, {})
    assert solver.solve([Const(0, 1)]) == (CheckResult.UNSAT, None)


def test_unit_propagation_contradiction():
    x = Sym("x", 16)
    constraints = [E.eq(x, Const(3, 16)), E.eq(x, Const(4, 16))]
    assert Solver().solve(constraints) == (CheckResult.UNSAT, None)


def test_empty_interval_is_unsat():
    x = Sym("x", 16)
    constraints = [E.ult(x, Const(5, 16)), E.ugt(x, Const(9, 16))]
    assert Solver().solve(constraints) == (CheckResult.UNSAT, None)


def test_model_satisfies_constraints():
    x, y = Sym("x", 16), Sym("y", 16)
    constraints = [
        E.ugt(x, Const(10, 16)),
        E.ult(x, Const(20, 16)),
        E.eq(y, E.add(x, Const(1, 16))),
    ]
    result, model = Solver().solve(constraints)
    assert result is CheckResult.SAT
    assert model is not None
    assert _verify(constraints, model)
    assert 10 < model["x"] < 20


def test_equality_between_symbols():
    a, b = Sym("a", 32), Sym("b", 32)
    constraints = [E.eq(a, b), E.ugt(a, Const(100, 32))]
    result, model = Solver().solve(constraints)
    assert result is CheckResult.SAT
    assert _verify(constraints, model)


def test_sentinel_style_disjunction():
    # The shape the bridge model produces: result is a sentinel or small.
    sentinel = (1 << 64) - 1
    r = Sym("r", 64)
    valid = E.bool_or(E.eq(r, Const(sentinel, 64)), E.ult(r, Const(64, 64)))
    _, model_hit = Solver().solve([valid, E.ne(r, Const(sentinel, 64))])
    assert model_hit is not None and model_hit["r"] < 64
    _, model_miss = Solver().solve([valid, E.uge(r, Const(64, 64))])
    assert model_miss is not None and model_miss["r"] == sentinel


def test_an_undecided_query_is_unknown_without_a_model(monkeypatch):
    # A nonlinear relation the bounded search may not crack is UNKNOWN,
    # never UNSAT (the conservative reading BOLT relies on).
    x = Sym("x", 64)
    hard = [E.eq(E.mul(x, x), Const(12345678987654321, 64))]
    monkeypatch.setattr(Solver, "MAX_SEARCH_NODES", 10)
    monkeypatch.setattr(Solver, "RANDOM_TRIES", 5)
    assert Solver().solve(hard) == (CheckResult.UNKNOWN, None)


def test_an_operand_anded_or_ored_with_itself_is_decided():
    x = Sym("x", 16)
    assert Solver().solve([E.ne(E.band(x, x), x)]) == (CheckResult.UNSAT, None)
    assert Solver().solve([E.ne(E.bor(x, x), x)]) == (CheckResult.UNSAT, None)


def test_a_masked_term_never_reaches_a_constant_above_its_mask():
    x, y = Sym("x", 16), Sym("y", 16)
    masked = E.band(x, Const(84, 16))
    assert Solver().solve([E.ult(Const(241, 16), masked)]) == (CheckResult.UNSAT, None)
    nested = E.band(E.band(x, Const(0xF0, 16)), y)
    for build in (E.ugt, E.uge, E.eq):
        assert Solver().solve([build(nested, Const(0xF1, 16))]) == (CheckResult.UNSAT, None)
    # The mask itself stays reachable.
    result, model = Solver().solve([E.uge(nested, Const(0xF0, 16))])
    assert result is CheckResult.SAT and _verify([E.uge(nested, Const(0xF0, 16))], model)


def _random_term(rng, x, depth):
    if depth == 0 or rng.random() < 0.3:
        return x if rng.random() < 0.6 else Const(rng.randrange(256), 8)
    build = rng.choice([E.add, E.sub, E.band, E.bor, E.bxor])
    a = _random_term(rng, x, depth - 1)
    return build(a, a if rng.random() < 0.25 else _random_term(rng, x, depth - 1))


def test_a_seeded_width_8_corpus_is_decided_soundly():
    """Every UNSAT verdict holds at all 256 values of the one symbol, and
    every SAT model satisfies its constraints."""
    rng = random.Random(32)
    x = Sym("x", 8)
    verdicts = Counter()
    for _ in range(200):
        constraints = []
        for _ in range(rng.randrange(1, 4)):
            build = rng.choice([E.eq, E.ne, E.ult, E.ule, E.ugt, E.uge])
            bound = Const(rng.randrange(256), 8) if rng.random() < 0.6 else _random_term(rng, x, 1)
            constraints.append(build(_random_term(rng, x, 2), bound))
        verdict, model = Solver().solve(constraints)
        verdicts[verdict] += 1
        where = [E.render(constraint) for constraint in constraints]
        if verdict is CheckResult.UNSAT:
            assert not any(_verify(constraints, {"x": value}) for value in range(256)), where
        elif verdict is CheckResult.SAT:
            assert _verify(constraints, model), where
    assert verdicts[CheckResult.UNSAT] and verdicts[CheckResult.SAT]
