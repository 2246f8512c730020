"""Tests for the conservative constraint solver (repro.sym.solver)."""

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
