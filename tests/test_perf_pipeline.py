"""The throughput pipeline: witness reuse and compiled evaluators.

The performance layers must be invisible in the results: reusing each
path's last feasibility model as its witness has to produce contracts
identical to solving every final path condition again, the compiled
classifier has to agree bit-for-bit with the interpreting ``evaluate``,
and the scaled-integer pricing has to agree exactly with the
``Fraction`` arithmetic it replaced.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core import PerfExpr
from repro.hw import ConservativeModel, RealisticModel, SimulatedModel
from repro.nf import NF_MATRIX
from repro.nf.workloads import bridge_workloads
from repro.sym import expr as E
from repro.sym.engine import SymbolicEngine
from repro.sym.expr import Const, Sym, compile_first_match, evaluate, render
from repro.sym.state import UNCHECKED


# --------------------------------------------------------------------------- #
# witness reuse
# --------------------------------------------------------------------------- #
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


@pytest.mark.parametrize("spec", [spec for spec, _ in NF_MATRIX], ids=lambda spec: spec.name)
def test_witness_reuse_matches_re_solving_every_final_path_condition(spec, monkeypatch):
    """Every path ends with its last branch check's model, which the
    reference discards so that finalisation solves its condition again."""
    reused = _contract_signature(spec.contract(**spec.bench))
    finalise = SymbolicEngine._finalise
    witnessed = []

    def re_solving(self, state, function_name, pid):
        witnessed.append(state.witness is not UNCHECKED)
        state.witness = UNCHECKED
        return finalise(self, state, function_name, pid)

    monkeypatch.setattr(SymbolicEngine, "_finalise", re_solving)
    assert _contract_signature(spec.contract(**spec.bench)) == reused
    assert witnessed and all(witnessed)


@pytest.mark.parametrize("spec", [spec for spec, _ in NF_MATRIX], ids=lambda spec: spec.name)
def test_contract_builds_the_nf_module_once(spec):
    built = []

    def counted():
        built.append(spec.build_module())
        return built[-1]

    replace(spec, build_module=counted).contract(**spec.bench)
    assert len(built) == 1


# --------------------------------------------------------------------------- #
# the compiled classifier
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


def _first_match(conjunctions):
    """Replay's compiled classifier over an environment mapping."""
    return compile_first_match(
        conjunctions, params="env", read=lambda name: f"env.get({name!r}, 0)", prologue=()
    )


def test_compiled_evaluators_match_evaluate_on_random_trees():
    """A predicate tree is one constraint; an arithmetic tree one equating it with ``r``."""
    rng = random.Random(1905)
    symbols = ["a", "b", "c", "pkt[0]"]
    for _ in range(300):
        width = rng.choice(_WIDTHS)
        predicate = rng.random() < 0.5
        if predicate:
            tree = _random_predicate(rng, symbols, 3)
            compiled = _first_match([[tree]])
        else:
            tree = _random_arith(rng, width, symbols, 3)
            compiled = _first_match([[E.eq(tree, Sym("r", width))]])
        for _ in range(4):
            env = {name: rng.randrange(1 << 64) for name in symbols if rng.random() < 0.8}
            value = evaluate(tree, env)
            if predicate:
                assert compiled(env) == (0 if value == 1 else None), render(tree)
            else:
                assert compiled({**env, "r": value}) == 0, render(tree)
                assert compiled({**env, "r": value ^ 1}) is None, render(tree)


def test_compiled_conjunction_matches_constraintwise_evaluate():
    """The index of the first conjunction whose constraints all evaluate to 1."""
    rng = random.Random(512)
    symbols = ["a", "b", "c"]
    seen = set()
    for _ in range(100):
        conjunctions = [
            [_random_predicate(rng, symbols, 2) for _ in range(rng.randrange(1, 4))]
            for _ in range(rng.randrange(1, 4))
        ]
        compiled = _first_match(conjunctions)
        for _ in range(4):
            env = {name: rng.randrange(1 << 32) for name in symbols}
            expected = next(
                (
                    index
                    for index, constraints in enumerate(conjunctions)
                    if all(evaluate(constraint, env) == 1 for constraint in constraints)
                ),
                None,
            )
            assert compiled(env) == expected
            seen.add(expected)
    assert {None, 0, 1, 2} <= seen


def test_compiled_conjunction_accepts_empty_and_missing_symbols():
    assert _first_match([])({}) is None
    assert _first_match([[]])({}) == 0
    x = Sym("x", 8)
    # Missing symbols default to 0, exactly like ``evaluate``.
    assert _first_match([[E.eq(x, Const(1, 8))], [E.eq(x, Const(0, 8))]])({}) == 1
    assert _first_match([[E.eq(x, Const(1, 8))], []])({}) == 1


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
    compiled = eval("lambda b: " + expr.scaled_source(scale))
    floor = eval("lambda b: " + expr.floor_source())
    for bindings in ({"t": 0, "w": 0}, {"t": 3, "w": 1}, {"t": 16, "w": 51}):
        assert compiled(bindings) == expr.evaluate(bindings) * scale
        assert floor(bindings) == math.floor(expr.evaluate(bindings))


def test_perfexpr_compile_scaled_rejects_insufficient_scale():
    expr = PerfExpr.var("t") * Fraction(1, 3)
    with pytest.raises(ValueError):
        expr.scaled_source(2)


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


def test_simulated_compiled_measure_matches_its_reference_on_real_traces():
    """Two cold machines: one prices each trace in one batch walk, the
    reference one access at a time; prices and cache counters agree."""
    walked, stepped = SimulatedModel(), SimulatedModel()
    workload = bridge_workloads(seed=7, capacity=8, timeout=20, packets=60)[1]
    workload.harness.record_accesses = True
    structures = workload.harness.structures
    scale = walked.price_denominator(structures)
    compiled = walked.compile_measure(structures, scale=scale)
    for stimulus in workload.stimuli:
        _, trace = workload.harness.run(stimulus)
        assert trace.accesses
        assert Fraction(compiled(trace), scale) == stepped.measure(trace, structures=structures)
    for level in ("l1", "llc"):
        batch, single = getattr(walked.hierarchy, level), getattr(stepped.hierarchy, level)
        assert (batch.hits, batch.misses) == (single.hits, single.misses)
