"""Every NFIL operator against the independent oracle, on edge values.

The package derives every operator from one table in
:mod:`repro.nfil.instructions`.  This test checks each consumer of that
table against :data:`nfil_reference.ORACLE`, which is written from the
documented semantics alone: constant folding, ``evaluate``, replay's
compiled classifier (``compile_first_match``), and, at 64 bits, the
interpreter.
The predicate facts the symbolic layer reads from the table (negation,
same-operand folding and operand swapping) are checked the same way.
"""

import pytest

from nfil_reference import ORACLE
from repro.nfil import FunctionBuilder, Interpreter, Module
from repro.nfil.instructions import BINARY_OPS, CMP_OPS, WORD_BITS
from repro.sym import expr as E
from repro.sym.expr import Const, Sym

WIDTHS = (1, 8, 16, 32, 48, WORD_BITS)


def _edge_values(w):
    half, top = 2 ** (w - 1), 2**w
    candidates = (0, 1, 2, w - 1, w, w + 1, half - 1, half, half + 1, top - 2, top - 1)
    return sorted({value for value in candidates if value < top})


def _first_match(conjunctions):
    """Replay's compiled classifier over an environment mapping."""
    return E.compile_first_match(
        conjunctions, params="env", read=lambda name: f"env.get({name!r}, 0)", prologue=()
    )


def _interpreted(op):
    """``f(a, b) = a <op> b`` as a two-parameter NFIL function."""
    builder = FunctionBuilder("f", params=("a", "b"))
    if op in BINARY_OPS:
        result = builder.binop(op, builder.param("a"), builder.param("b"))
    else:
        result = builder.cmp(op, builder.param("a"), builder.param("b"))
    builder.ret(result)
    module = Module("operator")
    module.add_function(builder.build())
    interpreter = Interpreter(module)
    return lambda a, b: interpreter.run("f", (a, b))[0]


@pytest.mark.parametrize("op", [*BINARY_OPS, *CMP_OPS])
def test_operator_agrees_with_the_oracle(op):
    predicate = op in CMP_OPS
    build = E.cmp if predicate else E.binop
    oracle = ORACLE[op]
    # The first disagreement of each consumer: (width, a, b, got, oracle).
    wrong = {}
    for w in WIDTHS:
        x, y = Sym("a", w), Sym("b", w)
        expr = build(op, x, y)
        if predicate:
            classifier = _first_match([[expr]])
            negated = E.bnot(expr)
            swapped = E.cmp(CMP_OPS[op].swapped, y, x)
        else:
            classifier = _first_match([[E.eq(expr, Sym("r", w))]])
        interpreted = _interpreted(op) if w == WORD_BITS else None
        values = _edge_values(w)
        for a in values:
            for b in values:
                want = oracle(a, b, w)
                env = {"a": a, "b": b}
                got = {
                    "folding": build(op, Const(a, w), Const(b, w)).value,
                    "evaluate": E.evaluate(expr, env),
                }
                if predicate:
                    got["compile_first_match"] = int(classifier(env) == 0)
                    got["bnot"] = 1 - E.evaluate(negated, env)
                    got["swapped"] = E.evaluate(swapped, env)
                else:
                    # The classifier only says whether the result equals ``r``.
                    matched = classifier({**env, "r": want}) == 0
                    got["compile_first_match"] = want if matched else "another value"
                if interpreted is not None:
                    got["Interpreter"] = interpreted(a, b)
                for consumer, value in got.items():
                    if value != want:
                        wrong.setdefault(consumer, (w, a, b, value, want))
        if predicate:
            # Same-operand folding decides the predicate without the values.
            folded = E.cmp(op, x, x).value
            for v in values:
                if oracle(v, v, w) != folded:
                    wrong.setdefault("same-operand folding", (w, v, v, folded, 1 - folded))
    report = "; ".join(
        f"{consumer} gives {value} for ({a}, {b}) at width {w}, the oracle {want}"
        for consumer, (w, a, b, value, want) in wrong.items()
    )
    assert not wrong, f"{op} disagrees with the oracle: {report}"
