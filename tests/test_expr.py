"""Tests for the bit-vector expression language (repro.sym.expr)."""

import pytest

from repro.sym import expr as E
from repro.sym.expr import Const, Sym, evaluate, free_symbols


def test_constant_folding_arithmetic():
    a, b = Const(7, 32), Const(5, 32)
    assert E.add(a, b) == Const(12, 32)
    assert E.sub(b, a) == Const((5 - 7) & 0xFFFFFFFF, 32)
    assert E.mul(a, b) == Const(35, 32)
    assert E.udiv(a, b) == Const(1, 32)
    assert E.urem(a, b) == Const(2, 32)


def test_division_by_zero_conventions():
    a, zero = Const(7, 16), Const(0, 16)
    assert E.udiv(a, zero) == Const(0xFFFF, 16)  # all-ones
    assert E.urem(a, zero) == Const(7, 16)  # dividend


def test_identity_simplifications():
    x = Sym("x", 32)
    assert E.add(x, Const(0, 32)) is x
    assert E.mul(x, Const(1, 32)) is x
    assert E.mul(x, Const(0, 32)) == Const(0, 32)
    assert E.band(x, Const(0xFFFFFFFF, 32)) is x
    assert E.band(x, Const(0, 32)) == Const(0, 32)
    assert E.bxor(x, x) == Const(0, 32)
    assert E.sub(x, x) == Const(0, 32)


def test_commutative_constant_canonicalisation():
    x = Sym("x", 8)
    left = E.add(Const(3, 8), x)
    right = E.add(x, Const(3, 8))
    assert left == right


def test_comparison_folding_and_same_operand():
    x = Sym("x", 16)
    assert E.eq(Const(3, 16), Const(3, 16)) == Const(1, 1)
    assert E.ult(Const(2, 16), Const(1, 16)) == Const(0, 1)
    assert E.eq(x, x) == Const(1, 1)
    assert E.ne(x, x) == Const(0, 1)
    assert E.ule(x, x) == Const(1, 1)


def test_width_mismatch_raises():
    with pytest.raises(ValueError):
        E.add(Sym("x", 8), Sym("y", 16))


def test_extract_concat_round_trip():
    x = Sym("x", 32)
    lo = E.extract(x, 0, 16)
    hi = E.extract(x, 16, 16)
    # Adjacent extracts of the same value merge back into the value.
    assert E.concat([lo, hi]) is x


def test_extract_of_constant_and_zext():
    c = Const(0xABCD, 16)
    assert E.extract(c, 8, 8) == Const(0xAB, 8)
    z = E.zext(Sym("x", 8), 32)
    assert E.extract(z, 8, 8) == Const(0, 8)
    assert E.extract(z, 0, 8) == Sym("x", 8)


def test_concat_folds_adjacent_constants():
    merged = E.concat([Const(0xCD, 8), Const(0xAB, 8)])
    assert merged == Const(0xABCD, 16)


def test_ite_folding():
    x, y = Sym("x", 8), Sym("y", 8)
    cond = Sym("c", 1)
    assert E.ite(Const(1, 1), x, y) is x
    assert E.ite(Const(0, 1), x, y) is y
    assert E.ite(cond, x, x) is x


def test_bnot_negates_comparisons():
    x, y = Sym("x", 8), Sym("y", 8)
    assert E.bnot(E.ult(x, y)) == E.uge(x, y)
    assert E.bnot(E.bnot(E.eq(x, y))) == E.eq(x, y)
    assert E.bnot(Const(1, 1)) == Const(0, 1)


def test_boolop_flattening_and_identities():
    a, b, c = Sym("a", 1), Sym("b", 1), Sym("c", 1)
    assert E.bool_and(a, Const(1, 1), b) == E.bool_and(a, b)
    assert E.bool_and(a, Const(0, 1), b) == Const(0, 1)
    assert E.bool_or(a, Const(1, 1)) == Const(1, 1)
    nested = E.bool_and(E.bool_and(a, b), c)
    assert nested == E.bool_and(a, b, c)


def test_evaluate_with_env_and_defaults():
    x, y = Sym("x", 8), Sym("y", 8)
    e = E.add(E.mul(x, Const(3, 8)), y)
    assert evaluate(e, {"x": 5, "y": 2}) == 17
    assert evaluate(e, {"x": 100}) == (300 & 0xFF)  # y defaults to 0, truncation
    assert evaluate(E.shl(Const(1, 8), Const(9, 8))) == 0  # over-shift


def test_free_symbols():
    x, y = Sym("x", 8), Sym("y", 16)
    e = E.eq(E.zext(x, 16), y)
    assert free_symbols(e) == {"x": 8, "y": 16}
