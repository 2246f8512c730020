"""Algebraic simplification and substitution for symbolic expressions.

The smart constructors in :mod:`repro.sym.expr` already fold constants; this
module adds whole-tree rewriting (useful after substituting a model back
into an expression) and symbol substitution, which the solver (§3.3 of the
paper: path-feasibility checking and witness generation) relies on for
unit propagation and search-space pruning.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.nfil.instructions import CMP_OPS
from repro.sym import expr as E
from repro.sym.expr import (
    BV,
    BinOp,
    BoolOp,
    Cmp,
    Concat,
    Const,
    Extract,
    Ite,
    Not,
    Sym,
    ZExt,
)

__all__ = ["simplify", "substitute"]


def _rebuild(node: BV, children: list[BV]) -> BV:
    """Rebuild ``node`` with new children, going through smart constructors."""
    if isinstance(node, BinOp):
        return E.binop(node.op, children[0], children[1])
    if isinstance(node, Cmp):
        return E.cmp(node.op, children[0], children[1])
    if isinstance(node, Not):
        return E.bnot(children[0])
    if isinstance(node, BoolOp):
        if node.op == "and":
            return E.bool_and(*children)
        return E.bool_or(*children)
    if isinstance(node, Ite):
        return E.ite(children[0], children[1], children[2])
    if isinstance(node, Extract):
        return E.extract(children[0], node.lo, node.width)
    if isinstance(node, Concat):
        return E.concat(children)
    if isinstance(node, ZExt):
        return E.zext(children[0], node.width)
    return node


def _post_rules(node: BV) -> BV:
    """Apply local rewrite rules that the smart constructors do not cover."""
    # (ite(c, a, b) == k) with constant a, b, k collapses to c, !c or a constant.
    if isinstance(node, Cmp) and node.op in ("eq", "ne"):
        ite_side = None
        const_side = None
        if isinstance(node.a, Ite) and isinstance(node.b, Const):
            ite_side, const_side = node.a, node.b
        elif isinstance(node.b, Ite) and isinstance(node.a, Const):
            ite_side, const_side = node.b, node.a
        if (
            ite_side is not None
            and isinstance(ite_side.then, Const)
            and isinstance(ite_side.orelse, Const)
        ):
            then_matches = ite_side.then.value == const_side.value
            else_matches = ite_side.orelse.value == const_side.value
            if node.op == "ne":
                then_matches, else_matches = not then_matches, not else_matches
            if then_matches and else_matches:
                return Const(1, 1)
            if not then_matches and not else_matches:
                return Const(0, 1)
            if then_matches:
                return ite_side.cond
            return E.bnot(ite_side.cond)
    # zext(x) compared against a constant that fits in x's width folds to a
    # comparison at the narrower width.  Sound only for equality and the
    # unsigned predicates: signed comparisons change meaning when the
    # constant's sign bit differs between the two widths.
    if (
        isinstance(node, Cmp)
        and not CMP_OPS[node.op].signed
        and isinstance(node.b, Const)
        and isinstance(node.a, ZExt)
        and node.b.value <= E.mask(node.a.value.width)
    ):
        return E.cmp(node.op, node.a.value, Const(node.b.value, node.a.value.width))
    return node


def simplify(node: BV) -> BV:
    """Simplify an expression bottom-up."""
    cache: Dict[int, BV] = {}

    def walk(current: BV) -> BV:
        key = id(current)
        if key in cache:
            return cache[key]
        children = [walk(child) for child in current.children()]
        if children:
            rebuilt = _rebuild(current, children)
        else:
            rebuilt = current
        rebuilt = _post_rules(rebuilt)
        cache[key] = rebuilt
        return rebuilt

    return walk(node)


def substitute(node: BV, bindings: Mapping[str, int | BV]) -> BV:
    """Substitute symbols by integers or expressions and simplify the result.

    Integer bindings are wrapped into constants of the symbol's width.
    """
    cache: Dict[int, BV] = {}

    def walk(current: BV) -> BV:
        key = id(current)
        if key in cache:
            return cache[key]
        if isinstance(current, Sym) and current.name in bindings:
            replacement = bindings[current.name]
            if isinstance(replacement, BV):
                if replacement.width != current.width:
                    raise ValueError(
                        f"substitution width mismatch for {current.name}: "
                        f"{replacement.width} != {current.width}"
                    )
                result: BV = replacement
            else:
                result = Const(int(replacement), current.width)
        else:
            children = [walk(child) for child in current.children()]
            result = _rebuild(current, children) if children else current
            result = _post_rules(result)
        cache[key] = result
        return result

    return walk(node)
