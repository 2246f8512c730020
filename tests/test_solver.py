"""Tests for the conservative constraint solver (repro.sym.solver)."""

from repro.sym import expr as E
from repro.sym.expr import Const, Sym
from repro.sym.solver import CheckResult, Solver


def _verify(constraints, model):
    return all(E.evaluate(c, model) == 1 for c in constraints)


def test_trivial_sat_and_unsat():
    solver = Solver()
    assert solver.check([]) is CheckResult.SAT
    assert solver.check([Const(1, 1)]) is CheckResult.SAT
    assert solver.check([Const(0, 1)]) is CheckResult.UNSAT


def test_unit_propagation_contradiction():
    x = Sym("x", 16)
    constraints = [E.eq(x, Const(3, 16)), E.eq(x, Const(4, 16))]
    assert Solver().check(constraints) is CheckResult.UNSAT


def test_empty_interval_is_unsat():
    x = Sym("x", 16)
    constraints = [E.ult(x, Const(5, 16)), E.ugt(x, Const(9, 16))]
    assert Solver().check(constraints) is CheckResult.UNSAT


def test_model_satisfies_constraints():
    x, y = Sym("x", 16), Sym("y", 16)
    constraints = [
        E.ugt(x, Const(10, 16)),
        E.ult(x, Const(20, 16)),
        E.eq(y, E.add(x, Const(1, 16))),
    ]
    solver = Solver()
    assert solver.check(constraints) is CheckResult.SAT
    model = solver.model(constraints)
    assert model is not None
    assert _verify(constraints, model)
    assert 10 < model["x"] < 20


def test_equality_between_symbols():
    a, b = Sym("a", 32), Sym("b", 32)
    constraints = [E.eq(a, b), E.ugt(a, Const(100, 32))]
    model = Solver().model(constraints)
    assert model is not None
    assert _verify(constraints, model)


def test_sentinel_style_disjunction():
    # The shape the bridge model produces: result is a sentinel or small.
    sentinel = (1 << 64) - 1
    r = Sym("r", 64)
    valid = E.bool_or(E.eq(r, Const(sentinel, 64)), E.ult(r, Const(64, 64)))
    model_hit = Solver().model([valid, E.ne(r, Const(sentinel, 64))])
    assert model_hit is not None and model_hit["r"] < 64
    model_miss = Solver().model([valid, E.uge(r, Const(64, 64))])
    assert model_miss is not None and model_miss["r"] == sentinel


def test_is_feasible_treats_unknown_as_feasible(monkeypatch):
    # A nonlinear relation the bounded search may not crack is still
    # reported feasible (the conservative reading BOLT relies on).
    x = Sym("x", 64)
    hard = [E.eq(E.mul(x, x), Const(12345678987654321, 64))]
    monkeypatch.setattr(Solver, "MAX_SEARCH_NODES", 10)
    monkeypatch.setattr(Solver, "RANDOM_TRIES", 5)
    solver = Solver()
    assert solver.is_feasible(hard)  # not provably UNSAT
    assert solver.check(hard) is not CheckResult.UNSAT


def test_implied():
    x = Sym("x", 16)
    background = [E.eq(x, Const(7, 16))]
    solver = Solver()
    assert solver.implied(background, E.ult(x, Const(10, 16)))
    assert not solver.implied(background, E.ult(x, Const(5, 16)))


def test_stats_counters_update():
    solver = Solver()
    solver.check([Const(1, 1)])
    solver.check([Const(0, 1)])
    assert solver.stats.checks == 2
    assert solver.stats.sat == 1
    assert solver.stats.unsat == 1
