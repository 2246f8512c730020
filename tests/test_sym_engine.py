"""Tests for the symbolic engine (repro.sym.engine / state / paths)."""

import pytest

from repro.nfil import FunctionBuilder, Interpreter, Module
from repro.sym import expr as E
from repro.sym.engine import (
    ExplorationLimit,
    ModelOutcome,
    SymbolicEngine,
    SymbolicModel,
)
from repro.sym.expr import Const, Sym
from repro.sym.solver import Solver
from repro.sym.state import SymbolicAddressError, SymbolicMemory


def _max_module():
    b = FunctionBuilder("umax", params=("a", "b"))
    cond = b.ult(b.param("a"), b.param("b"))
    b.br(cond, "lt", "ge")
    b.block("lt")
    b.ret(b.param("b"))
    b.block("ge")
    b.ret(b.param("a"))
    module = Module("t")
    module.add_function(b.build())
    return module


def test_explores_both_sides_of_a_branch():
    engine = SymbolicEngine(_max_module())
    paths = engine.explore("umax", [Sym("a", 64), Sym("b", 64)])
    assert len(paths) == 2
    assert {path.feasibility for path in paths} == {"sat"}
    conditions = {E.render(path.constraints[0]) for path in paths}
    assert conditions == {"(a ult b)", "(a uge b)"}
    # Exact stateless counts: cmp, br, ret on both sides.
    assert all(path.instructions == 3 for path in paths)


def test_path_models_replay_concretely_to_same_branch():
    """Differential check: replaying each path's solver model through the
    concrete interpreter reproduces the path's return expression."""
    module = _max_module()
    engine = SymbolicEngine(module)
    interp = Interpreter(module)
    paths = engine.explore("umax", [Sym("a", 64), Sym("b", 64)])
    for path in paths:
        inputs = path.concrete_inputs(defaults={"a": 0, "b": 0})
        result, trace = interp.run("umax", [inputs["a"], inputs["b"]])
        assert result == E.evaluate(path.returned, inputs)
        assert trace.instructions == path.instructions


def test_concrete_branches_do_not_fork():
    b = FunctionBuilder("f", params=("x",))
    cond = b.ult(5, 10)  # constant condition
    b.br(cond, "yes", "no")
    b.block("yes")
    b.ret(b.param("x"))
    b.block("no")
    b.ret(0)
    module = Module("m")
    module.add_function(b.build())
    paths = SymbolicEngine(module).explore("f", [Sym("x", 64)])
    assert len(paths) == 1
    assert paths[0].constraints == ()


def test_infeasible_side_is_pruned():
    # With the initial constraint x < 5, the branch x >= 10 cannot be taken.
    b = FunctionBuilder("f", params=("x",))
    cond = b.uge(b.param("x"), 10)
    b.br(cond, "big", "small")
    b.block("big")
    b.ret(1)
    b.block("small")
    b.ret(0)
    module = Module("m")
    module.add_function(b.build())
    x = Sym("x", 64)
    paths = SymbolicEngine(module).explore("f", [x], constraints=[E.ult(x, Const(5, 64))])
    assert len(paths) == 1
    assert E.evaluate(paths[0].returned) == 0


def test_symbolic_memory_round_trip_through_load():
    b = FunctionBuilder("f", params=("addr",))
    b.ret(b.load(b.param("addr"), size=2))
    module = Module("m")
    module.add_function(b.build())
    memory = SymbolicMemory()
    memory.write_symbolic(0x100, 2, "pkt")
    paths = SymbolicEngine(module).explore("f", [0x100], memory=memory)
    assert len(paths) == 1
    value = E.evaluate(paths[0].returned, {"pkt[0]": 0x34, "pkt[1]": 0x12})
    assert value == 0x1234
    assert paths[0].memory_accesses == 1


def test_symbolic_address_raises():
    b = FunctionBuilder("f", params=("addr",))
    b.ret(b.load(b.param("addr"), size=1))
    module = Module("m")
    module.add_function(b.build())
    with pytest.raises(SymbolicAddressError):
        SymbolicEngine(module).explore("f", [Sym("addr", 64)])


def test_extern_model_default_havoc_and_records():
    module = Module("m")
    module.declare_extern("lookup", 1, returns_value=True, structure="map", method="get")
    b = FunctionBuilder("f", params=("k",))
    value = b.call("lookup", b.param("k"))
    b.ret(value)
    module.add_function(b.build())
    paths = SymbolicEngine(module).explore("f", [Sym("k", 64)])
    assert len(paths) == 1
    (record,) = paths[0].calls
    assert record.name == "lookup"
    assert record.result == Sym("lookup#0", 64)
    assert record.result_name == "lookup#0"
    assert record.structure == "map"
    assert paths[0].returned == Sym("lookup#0", 64)


def test_custom_model_constraints_shape_exploration():
    """A model that pins the extern output to a constant kills one branch."""

    class PinnedModel(SymbolicModel):
        def apply(self, decl, args, state, index):
            value = self.fresh(decl, index)
            return ModelOutcome(value=value, constraints=(E.eq(value, Const(7, 64)),))

    module = Module("m")
    module.declare_extern("lookup", 0, returns_value=True)
    b = FunctionBuilder("f")
    value = b.call("lookup")
    cond = b.eq(value, 7)
    b.br(cond, "yes", "no")
    b.block("yes")
    b.ret(1)
    b.block("no")
    b.ret(0)
    module.add_function(b.build())
    paths = SymbolicEngine(module, model=PinnedModel()).explore("f", [])
    assert len(paths) == 1
    assert E.evaluate(paths[0].returned) == 1


def test_internal_calls_inline_symbolically():
    module = Module("m")
    inner = FunctionBuilder("twice", params=("x",))
    inner.ret(inner.add(inner.param("x"), inner.param("x")))
    module.add_function(inner.build())
    outer = FunctionBuilder("f", params=("x",))
    doubled = outer.call("twice", outer.param("x"))
    outer.ret(doubled)
    module.add_function(outer.build())
    paths = SymbolicEngine(module).explore("f", [Sym("x", 64)])
    assert len(paths) == 1
    assert E.evaluate(paths[0].returned, {"x": 21}) == 42
    assert paths[0].instructions == 4  # call + (add, ret) + ret


def test_max_paths_budget_enforced(monkeypatch):
    # 5 independent symbolic branches => 32 paths; budget of 8 must trip.
    b = FunctionBuilder("f", params=tuple(f"x{i}" for i in range(5)))
    total = b.const(0, name="acc0")
    for i in range(5):
        cond = b.ult(b.param(f"x{i}"), 10)
        b.br(cond, f"then{i}", f"else{i}")
        b.block(f"then{i}")
        b.jmp(f"join{i}")
        b.block(f"else{i}")
        b.jmp(f"join{i}")
        b.block(f"join{i}")
    b.ret(total)
    module = Module("m")
    module.add_function(b.build())
    monkeypatch.setattr(SymbolicEngine, "MAX_PATHS", 8)
    engine = SymbolicEngine(module)
    with pytest.raises(ExplorationLimit):
        engine.explore("f", [Sym(f"x{i}", 64) for i in range(5)])


def _logged_queries(engine, monkeypatch):
    """The conditions ``engine``'s solver is asked about, in query order."""
    queries = []
    solve = engine.solver.solve

    def logged(constraints):
        queries.append([E.render(constraint) for constraint in constraints])
        return solve(constraints)

    monkeypatch.setattr(engine.solver, "solve", logged)
    return queries


def test_a_condition_grown_after_the_last_branch_is_solved_once_more(monkeypatch):
    """An extern's result constraint after the branch voids the branch's
    model; finalisation solves the whole condition once."""

    class AboveHundred(SymbolicModel):
        def apply(self, decl, args, state, index):
            value = self.fresh(decl, index)
            return ModelOutcome(value=value, constraints=(E.ugt(value, Const(100, 64)),))

    module = Module("m")
    module.declare_extern("lookup", 0, returns_value=True)
    b = FunctionBuilder("f", params=("x",))
    b.br(b.ult(b.param("x"), 10), "small", "big")
    b.block("small")
    b.jmp("join")
    b.block("big")
    b.jmp("join")
    b.block("join")
    b.ret(b.call("lookup"))
    module.add_function(b.build())
    engine = SymbolicEngine(module, model=AboveHundred())
    queries = _logged_queries(engine, monkeypatch)
    paths = engine.explore("f", [Sym("x", 64)])
    assert len(paths) == 2
    # Both branch sides, then each path's whole condition exactly once.
    assert len(queries) == 4
    assert queries[2:] == [[E.render(c) for c in path.constraints] for path in paths]
    for path in paths:
        assert path.feasibility == "sat"
        assert path.covers(path.model)
        assert path.model["lookup#0"] > 100


def test_an_unknown_side_is_kept_and_not_solved_again(monkeypatch):
    monkeypatch.setattr(Solver, "MAX_SEARCH_NODES", 10)
    monkeypatch.setattr(Solver, "RANDOM_TRIES", 5)
    b = FunctionBuilder("f", params=("x",))
    x = b.param("x")
    b.br(b.eq(b.mul(x, x), 12345678987654321), "root", "other")
    b.block("root")
    b.ret(1)
    b.block("other")
    b.ret(0)
    module = Module("m")
    module.add_function(b.build())
    engine = SymbolicEngine(module)
    queries = _logged_queries(engine, monkeypatch)
    paths = engine.explore("f", [Sym("x", 64)])
    assert [path.feasibility for path in paths] == ["unknown", "sat"]
    assert len(queries) == 2
