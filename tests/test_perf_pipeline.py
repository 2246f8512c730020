"""The throughput pipeline: solver memoisation and compiled evaluators.

The performance layers must be invisible in the results: the memoising
solver has to produce contracts identical to from-scratch solving, the
compiled evaluators have to agree bit-for-bit with the interpreting
``evaluate``, and the scaled-integer pricing has to agree exactly with
the ``Fraction`` arithmetic it replaced.
"""

import math
import random
from fractions import Fraction

import pytest

from repro.core import PerfExpr
from repro.hw import ConservativeModel, RealisticModel
from repro.nf.bridge import generate_bridge_contract
from repro.nf.lb import generate_lb_contract
from repro.nf.nat import generate_nat_contract
from repro.nf.router import generate_router_contract
from repro.nf.workloads import bridge_workloads
from repro.sym import expr as E
from repro.sym.expr import (
    Const,
    Sym,
    compile_conjunction,
    compile_evaluator,
    evaluate,
    render,
)
from repro.sym.solver import CheckResult, Solver


# --------------------------------------------------------------------------- #
# solver memoisation
# --------------------------------------------------------------------------- #
def test_exact_verdict_cache_answers_repeat_queries():
    x = Sym("x", 16)
    constraints = [E.ult(x, Const(10, 16))]
    solver = Solver()
    assert solver.check(constraints) is CheckResult.SAT
    assert solver.check(constraints) is CheckResult.SAT
    assert solver.stats.checks == 2
    assert solver.stats.cache_hits == 1
    assert solver.stats.cache_misses == 1


def test_duplicate_conjuncts_are_dropped_before_solving():
    x = Sym("x", 16)
    shared = E.ult(x, Const(10, 16))
    solver = Solver()
    # One duplicate by node identity, one by canonical equality.
    assert solver.check([shared, shared, E.ult(x, Const(10, 16))]) is CheckResult.SAT
    assert solver.stats.dedup_dropped == 2


def test_normal_forms_are_reused_by_node_identity():
    x = Sym("x", 16)
    shared = E.ult(E.add(x, Const(1, 16)), Const(10, 16))
    solver = Solver()
    solver.check([shared])
    reused = solver.stats.simplify_reused
    solver.check([shared])
    assert solver.stats.simplify_reused > reused


def test_cached_sat_models_are_reused():
    x = Sym("x", 16)
    constraints = [E.eq(x, Const(7, 16))]
    solver = Solver()
    assert solver.model(constraints) == {"x": 7}
    assert solver.model(constraints) == {"x": 7}
    assert solver.stats.cache_hits == 1


def test_disabled_cache_keeps_counters_at_zero_and_verdicts_equal():
    x = Sym("x", 16)
    queries = [
        [E.ult(x, Const(10, 16))],
        [E.eq(x, Const(3, 16)), E.eq(x, Const(4, 16))],
        [E.ult(x, Const(10, 16))],
    ]
    cached, uncached = Solver(), Solver(cache=False)
    for query in queries:
        assert cached.check(query) is uncached.check(query)
    assert uncached.stats.cache_hits == 0
    assert uncached.stats.cache_misses == 0
    assert cached.stats.cache_hits == 1


def _contract_signature(contract):
    """Everything observable about a contract, in a comparable form."""
    signature = []
    for entry in contract:
        paths = tuple(
            (
                path.pid,
                path.feasibility,
                tuple(render(constraint) for constraint in path.constraints),
                None if path.model is None else tuple(sorted(path.model.items())),
                path.instructions,
                path.memory_accesses,
            )
            for path in entry.paths
        )
        exprs = tuple(sorted((str(metric), expr) for metric, expr in entry.exprs.items()))
        signature.append((entry.input_class.name, exprs, paths))
    return signature


@pytest.mark.parametrize(
    "generate",
    [
        generate_bridge_contract,
        generate_router_contract,
        generate_nat_contract,
        generate_lb_contract,
    ],
)
def test_contracts_identical_with_and_without_solver_cache(generate, monkeypatch):
    monkeypatch.setattr(Solver, "CACHE_DEFAULT", True)
    with_cache = _contract_signature(generate())
    monkeypatch.setattr(Solver, "CACHE_DEFAULT", False)
    without_cache = _contract_signature(generate())
    assert with_cache == without_cache


# --------------------------------------------------------------------------- #
# compiled evaluators
# --------------------------------------------------------------------------- #
_WIDTHS = (1, 8, 16, 32, 64)


def _random_value(rng, width):
    return rng.randrange(1 << width)


def _random_arith(rng, width, symbols, depth):
    if depth <= 0 or rng.random() < 0.3:
        if symbols and rng.random() < 0.6:
            return Sym(rng.choice(symbols), width)
        return Const(_random_value(rng, width), width)
    choice = rng.random()
    if choice < 0.1:
        inner_width = rng.choice([w for w in _WIDTHS if w > width] or [width])
        inner = _random_arith(rng, inner_width, symbols, depth - 1)
        lo = rng.randrange(inner_width - width + 1)
        return E.extract(inner, lo, width)
    if choice < 0.2 and width > 1:
        lo = rng.randrange(1, width)
        return E.concat(
            [
                _random_arith(rng, width - lo, symbols, depth - 1),
                _random_arith(rng, lo, symbols, depth - 1),
            ]
        )
    if choice < 0.3 and width > 1:
        narrower = rng.choice([w for w in _WIDTHS if w < width] or [width])
        return E.zext(_random_arith(rng, narrower, symbols, depth - 1), width)
    if choice < 0.4:
        cond = _random_predicate(rng, symbols, depth - 1)
        return E.ite(
            cond,
            _random_arith(rng, width, symbols, depth - 1),
            _random_arith(rng, width, symbols, depth - 1),
        )
    op = rng.choice([E.add, E.sub, E.mul, E.udiv, E.urem, E.band, E.bor, E.bxor, E.shl, E.lshr])
    return op(
        _random_arith(rng, width, symbols, depth - 1),
        _random_arith(rng, width, symbols, depth - 1),
    )


def _random_predicate(rng, symbols, depth):
    if depth <= 0 or rng.random() < 0.4:
        width = rng.choice(_WIDTHS)
        op = rng.choice([E.eq, E.ne, E.ult, E.ule, E.ugt, E.uge, E.slt, E.sle, E.sgt, E.sge])
        return op(
            _random_arith(rng, width, symbols, depth - 1),
            _random_arith(rng, width, symbols, depth - 1),
        )
    choice = rng.random()
    if choice < 0.3:
        return E.bnot(_random_predicate(rng, symbols, depth - 1))
    combine = E.bool_and if choice < 0.65 else E.bool_or
    return combine(
        _random_predicate(rng, symbols, depth - 1),
        _random_predicate(rng, symbols, depth - 1),
    )


def test_compiled_evaluators_match_evaluate_on_random_trees():
    rng = random.Random(1905)
    symbols = ["a", "b", "c", "pkt[0]"]
    for _ in range(300):
        width = rng.choice(_WIDTHS)
        tree = (
            _random_predicate(rng, symbols, 3)
            if rng.random() < 0.5
            else _random_arith(rng, width, symbols, 3)
        )
        compiled = compile_evaluator(tree)
        for _ in range(4):
            env = {name: rng.randrange(1 << 64) for name in symbols if rng.random() < 0.8}
            assert compiled(env) == evaluate(tree, env), render(tree)


def test_compiled_conjunction_matches_constraintwise_evaluate():
    rng = random.Random(512)
    symbols = ["a", "b", "c"]
    for _ in range(100):
        constraints = [_random_predicate(rng, symbols, 2) for _ in range(rng.randrange(1, 5))]
        compiled = compile_conjunction(constraints)
        for _ in range(4):
            env = {name: rng.randrange(1 << 32) for name in symbols}
            expected = all(evaluate(constraint, env) == 1 for constraint in constraints)
            assert compiled(env) is expected


def test_compiled_conjunction_accepts_empty_and_missing_symbols():
    always_true = compile_conjunction([])
    assert always_true({}) is True
    x = Sym("x", 8)
    # Missing symbols default to 0, exactly like ``evaluate``.
    assert compile_conjunction([E.eq(x, Const(0, 8))])({}) is True


# --------------------------------------------------------------------------- #
# scaled-integer pricing
# --------------------------------------------------------------------------- #
def test_perfexpr_compile_scaled_matches_fraction_evaluation():
    expr = (
        PerfExpr.constant(Fraction(7, 3))
        + PerfExpr.var("t") * Fraction(5, 6)
        + PerfExpr.var("t") * PerfExpr.var("w") * 2
    )
    scale = 12  # a multiple of denominator_lcm() == 6
    assert expr.denominator_lcm() == 6
    compiled = expr.compile_scaled(scale)
    floor = expr.compile_floor()
    for bindings in ({"t": 0, "w": 0}, {"t": 3, "w": 1}, {"t": 16, "w": 51}):
        assert compiled(bindings) == expr.evaluate(bindings) * scale
        assert floor(bindings) == math.floor(expr.evaluate(bindings))


def test_perfexpr_compile_scaled_rejects_insufficient_scale():
    expr = PerfExpr.var("t") * Fraction(1, 3)
    with pytest.raises(ValueError):
        expr.compile_scaled(2)


@pytest.mark.parametrize("model_factory", [ConservativeModel, RealisticModel])
def test_compiled_measure_matches_fraction_measure_on_real_traces(model_factory):
    model = model_factory()
    workload = bridge_workloads(seed=7, capacity=8, timeout=20, packets=30)[0]
    structures = workload.harness.structures
    scale = model.price_denominator(structures)
    compiled = model.compile_measure(structures, scale=scale)
    for stimulus in workload.stimuli:
        _, trace = workload.harness.run(stimulus)
        expected = model.measure(trace, structures=structures)
        assert Fraction(compiled(trace), scale) == expected
