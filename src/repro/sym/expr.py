"""Bit-vector expression language used by the symbolic-execution engine.

The paper's BOLT symbolically executes the stateless NF code over
bit-vector expressions (§3.1); this module is the reproduction's stand-in
for the KLEE expression layer the prototype builds on.

Expressions are immutable trees of fixed-width unsigned bit-vectors.  A
width of 1 doubles as the boolean type (0 = false, 1 = true), which keeps
the machinery small without losing anything the NF code needs.

Smart constructors (:func:`add`, :func:`eq`, ...) perform constant folding
and a handful of cheap algebraic simplifications at construction time;
deeper rewrites live in :mod:`repro.sym.simplify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.nfil.instructions import BINARY_OPS, CMP_OPS, operator_source

__all__ = [
    "BV",
    "BinOp",
    "BoolOp",
    "Cmp",
    "Concat",
    "Const",
    "Extract",
    "Ite",
    "Not",
    "Sym",
    "ZExt",
    "add",
    "band",
    "bnot",
    "bool_and",
    "bool_or",
    "bor",
    "bxor",
    "compile_conjunction",
    "compile_evaluator",
    "concat",
    "const",
    "eq",
    "evaluate",
    "extract",
    "free_symbols",
    "ite",
    "lshr",
    "mul",
    "ne",
    "sge",
    "sgt",
    "shl",
    "sle",
    "slt",
    "sub",
    "udiv",
    "uge",
    "ugt",
    "ule",
    "ult",
    "urem",
    "zext",
]


def mask(width: int) -> int:
    """Return the bit mask for ``width`` bits."""
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Truncate ``value`` to an unsigned ``width``-bit integer."""
    return value & mask(width)


class BV:
    """Base class of all bit-vector expressions."""

    __slots__ = ("width",)

    width: int

    def children(self) -> Tuple["BV", ...]:
        """Return the sub-expressions of this node."""
        return ()

    def is_const(self) -> bool:
        """Return True for literal constants."""
        return isinstance(self, Const)

    # Convenience operator overloads make the builders and the symbolic
    # models considerably more readable.
    def __add__(self, other: "BV | int") -> "BV":
        return add(self, _coerce(other, self.width))

    def __sub__(self, other: "BV | int") -> "BV":
        return sub(self, _coerce(other, self.width))

    def __mul__(self, other: "BV | int") -> "BV":
        return mul(self, _coerce(other, self.width))

    def __and__(self, other: "BV | int") -> "BV":
        return band(self, _coerce(other, self.width))

    def __or__(self, other: "BV | int") -> "BV":
        return bor(self, _coerce(other, self.width))

    def __xor__(self, other: "BV | int") -> "BV":
        return bxor(self, _coerce(other, self.width))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {render(self)}>"


def _coerce(value: "BV | int", width: int) -> BV:
    if isinstance(value, BV):
        return value
    return Const(int(value), width)


@dataclass(frozen=True, slots=True)
class Const(BV):
    """A literal ``width``-bit constant."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        object.__setattr__(self, "value", truncate(self.value, self.width))


@dataclass(frozen=True, slots=True)
class Sym(BV):
    """A free symbolic variable."""

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        if not self.name:
            raise ValueError("symbol name must not be empty")


@dataclass(frozen=True, slots=True)
class BinOp(BV):
    """A binary arithmetic/bitwise operation."""

    op: str
    a: BV
    b: BV
    width: int

    def children(self) -> Tuple[BV, ...]:
        return (self.a, self.b)


@dataclass(frozen=True, slots=True)
class Cmp(BV):
    """A comparison; always of width 1."""

    op: str
    a: BV
    b: BV
    width: int = 1

    def children(self) -> Tuple[BV, ...]:
        return (self.a, self.b)


@dataclass(frozen=True, slots=True)
class Not(BV):
    """Boolean negation of a width-1 expression."""

    a: BV
    width: int = 1

    def children(self) -> Tuple[BV, ...]:
        return (self.a,)


@dataclass(frozen=True, slots=True)
class BoolOp(BV):
    """N-ary boolean conjunction/disjunction of width-1 expressions."""

    op: str  # "and" | "or"
    parts: Tuple[BV, ...]
    width: int = 1

    def children(self) -> Tuple[BV, ...]:
        return self.parts


@dataclass(frozen=True, slots=True)
class Ite(BV):
    """If-then-else on a width-1 condition."""

    cond: BV
    then: BV
    orelse: BV
    width: int

    def children(self) -> Tuple[BV, ...]:
        return (self.cond, self.then, self.orelse)


@dataclass(frozen=True, slots=True)
class Extract(BV):
    """Bit extraction: bits ``[lo, lo+width)`` of ``value``."""

    value: BV
    lo: int
    width: int

    def children(self) -> Tuple[BV, ...]:
        return (self.value,)


@dataclass(frozen=True, slots=True)
class Concat(BV):
    """Concatenation; ``parts[0]`` is the least significant part."""

    parts: Tuple[BV, ...]
    width: int

    def children(self) -> Tuple[BV, ...]:
        return self.parts


@dataclass(frozen=True, slots=True)
class ZExt(BV):
    """Zero extension to a wider bit-vector."""

    value: BV
    width: int

    def children(self) -> Tuple[BV, ...]:
        return (self.value,)


# --------------------------------------------------------------------------- #
# Smart constructors
# --------------------------------------------------------------------------- #
_COMMUTATIVE = {"add", "mul", "and", "or", "xor"}

#: ``fn(a, b, width)`` for every binary operation and predicate.
_OPERATORS = {
    op: eval(f"lambda a, b, w: {operator_source(op, 'a', 'b', 'w')}")
    for op in (*BINARY_OPS, *CMP_OPS)
}


def const(value: int, width: int) -> Const:
    """Build a constant."""
    return Const(value, width)


def _check_same_width(a: BV, b: BV) -> int:
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return a.width


def binop(op: str, a: BV, b: BV) -> BV:
    """Build a binary operation with constant folding."""
    if op not in BINARY_OPS:
        raise ValueError(f"unknown binary op {op!r}")
    width = _check_same_width(a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_OPERATORS[op](a.value, b.value, width), width)
    # Canonicalise commutative operations: constant on the right.
    if op in _COMMUTATIVE and isinstance(a, Const) and not isinstance(b, Const):
        a, b = b, a
    if isinstance(b, Const):
        bval = b.value
        if op in ("add", "sub", "or", "xor", "shl", "lshr") and bval == 0:
            return a
        if op == "mul":
            if bval == 0:
                return Const(0, width)
            if bval == 1:
                return a
        if op == "and":
            if bval == 0:
                return Const(0, width)
            if bval == mask(width):
                return a
        if op == "udiv" and bval == 1:
            return a
    if op == "sub" and a is b:
        return Const(0, width)
    if op == "xor" and a is b:
        return Const(0, width)
    return BinOp(op, a, b, width)


def cmp(op: str, a: BV, b: BV) -> BV:
    """Build a comparison with constant folding."""
    if op not in CMP_OPS:
        raise ValueError(f"unknown comparison {op!r}")
    width = _check_same_width(a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_OPERATORS[op](a.value, b.value, width), 1)
    if a == b:
        return Const(int(CMP_OPS[op].reflexive), 1)
    return Cmp(op, a, b)


def add(a: BV, b: BV) -> BV:
    return binop("add", a, b)


def sub(a: BV, b: BV) -> BV:
    return binop("sub", a, b)


def mul(a: BV, b: BV) -> BV:
    return binop("mul", a, b)


def udiv(a: BV, b: BV) -> BV:
    return binop("udiv", a, b)


def urem(a: BV, b: BV) -> BV:
    return binop("urem", a, b)


def band(a: BV, b: BV) -> BV:
    return binop("and", a, b)


def bor(a: BV, b: BV) -> BV:
    return binop("or", a, b)


def bxor(a: BV, b: BV) -> BV:
    return binop("xor", a, b)


def shl(a: BV, b: BV) -> BV:
    return binop("shl", a, b)


def lshr(a: BV, b: BV) -> BV:
    return binop("lshr", a, b)


def eq(a: BV, b: BV) -> BV:
    return cmp("eq", a, b)


def ne(a: BV, b: BV) -> BV:
    return cmp("ne", a, b)


def ult(a: BV, b: BV) -> BV:
    return cmp("ult", a, b)


def ule(a: BV, b: BV) -> BV:
    return cmp("ule", a, b)


def ugt(a: BV, b: BV) -> BV:
    return cmp("ugt", a, b)


def uge(a: BV, b: BV) -> BV:
    return cmp("uge", a, b)


def slt(a: BV, b: BV) -> BV:
    return cmp("slt", a, b)


def sle(a: BV, b: BV) -> BV:
    return cmp("sle", a, b)


def sgt(a: BV, b: BV) -> BV:
    return cmp("sgt", a, b)


def sge(a: BV, b: BV) -> BV:
    return cmp("sge", a, b)


def bnot(a: BV) -> BV:
    """Boolean negation."""
    if a.width != 1:
        raise ValueError("bnot expects a width-1 expression")
    if isinstance(a, Const):
        return Const(1 - a.value, 1)
    if isinstance(a, Not):
        return a.a
    if isinstance(a, Cmp):
        return Cmp(CMP_OPS[a.op].negation, a.a, a.b)
    return Not(a)


def _boolop(op: str, parts: Iterable[BV]) -> BV:
    flattened: list[BV] = []
    annihilator = 0 if op == "and" else 1
    identity = 1 - annihilator
    for part in parts:
        if part.width != 1:
            raise ValueError(f"boolean {op} expects width-1 operands")
        if isinstance(part, Const):
            if part.value == annihilator:
                return Const(annihilator, 1)
            continue  # identity element: drop
        if isinstance(part, BoolOp) and part.op == op:
            flattened.extend(part.parts)
        else:
            flattened.append(part)
    if not flattened:
        return Const(identity, 1)
    if len(flattened) == 1:
        return flattened[0]
    return BoolOp(op, tuple(flattened))


def bool_and(*parts: BV) -> BV:
    """Boolean conjunction."""
    return _boolop("and", parts)


def bool_or(*parts: BV) -> BV:
    """Boolean disjunction."""
    return _boolop("or", parts)


def ite(cond: BV, then: BV, orelse: BV) -> BV:
    """If-then-else."""
    if cond.width != 1:
        raise ValueError("ite condition must have width 1")
    width = _check_same_width(then, orelse)
    if isinstance(cond, Const):
        return then if cond.value else orelse
    if then == orelse:
        return then
    return Ite(cond, then, orelse, width)


def extract(value: BV, lo: int, width: int) -> BV:
    """Extract ``width`` bits starting at bit ``lo`` (little-endian)."""
    if lo < 0 or width <= 0 or lo + width > value.width:
        raise ValueError(f"invalid extract [{lo}, {lo + width}) from width {value.width}")
    if lo == 0 and width == value.width:
        return value
    if isinstance(value, Const):
        return Const((value.value >> lo) & mask(width), width)
    if isinstance(value, ZExt):
        if lo + width <= value.value.width:
            return extract(value.value, lo, width)
        if lo >= value.value.width:
            return Const(0, width)
    if isinstance(value, Extract):
        return extract(value.value, value.lo + lo, width)
    if isinstance(value, Concat):
        # Extraction fully inside one part folds to extraction of that part.
        offset = 0
        for part in value.parts:
            if offset <= lo and lo + width <= offset + part.width:
                return extract(part, lo - offset, width)
            offset += part.width
    return Extract(value, lo, width)


def concat(parts: Sequence[BV]) -> BV:
    """Concatenate parts, least significant first."""
    if not parts:
        raise ValueError("concat requires at least one part")
    if len(parts) == 1:
        return parts[0]
    flat: list[BV] = []
    for part in parts:
        if isinstance(part, Concat):
            flat.extend(part.parts)
        else:
            flat.append(part)
    # Fold adjacent constants.
    merged: list[BV] = []
    for part in flat:
        if merged and isinstance(part, Const) and isinstance(merged[-1], Const):
            prev = merged[-1]
            merged[-1] = Const(prev.value | (part.value << prev.width), prev.width + part.width)
        elif (
            merged
            and isinstance(part, Extract)
            and isinstance(merged[-1], Extract)
            and part.value == merged[-1].value
            and part.lo == merged[-1].lo + merged[-1].width
        ):
            prev = merged[-1]
            merged[-1] = extract(prev.value, prev.lo, prev.width + part.width)
        else:
            merged.append(part)
    if len(merged) == 1:
        return merged[0]
    width = sum(part.width for part in merged)
    return Concat(tuple(merged), width)


def zext(value: BV, width: int) -> BV:
    """Zero-extend ``value`` to ``width`` bits."""
    if width < value.width:
        raise ValueError("zext target width smaller than source width")
    if width == value.width:
        return value
    if isinstance(value, Const):
        return Const(value.value, width)
    return ZExt(value, width)


# --------------------------------------------------------------------------- #
# Evaluation and traversal
# --------------------------------------------------------------------------- #
def evaluate(expr: BV, env: Mapping[str, int] | None = None) -> int:
    """Evaluate ``expr`` under a concrete assignment of its symbols.

    Args:
        expr: expression to evaluate.
        env: mapping from symbol name to integer value; missing symbols
            default to 0 (useful for evaluating under partial models).

    Returns:
        The unsigned integer value of the expression, truncated to its width.
    """
    env = env or {}
    cache: Dict[int, int] = {}

    def walk(node: BV) -> int:
        key = id(node)
        if key in cache:
            return cache[key]
        if isinstance(node, Const):
            result = node.value
        elif isinstance(node, Sym):
            result = truncate(int(env.get(node.name, 0)), node.width)
        elif isinstance(node, (BinOp, Cmp)):
            result = _OPERATORS[node.op](walk(node.a), walk(node.b), node.a.width)
        elif isinstance(node, Not):
            result = 1 - walk(node.a)
        elif isinstance(node, BoolOp):
            if node.op == "and":
                result = int(all(walk(part) for part in node.parts))
            else:
                result = int(any(walk(part) for part in node.parts))
        elif isinstance(node, Ite):
            result = walk(node.then) if walk(node.cond) else walk(node.orelse)
        elif isinstance(node, Extract):
            result = (walk(node.value) >> node.lo) & mask(node.width)
        elif isinstance(node, Concat):
            result = 0
            shift = 0
            for part in node.parts:
                result |= walk(part) << shift
                shift += part.width
        elif isinstance(node, ZExt):
            result = walk(node.value)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot evaluate {type(node).__name__}")
        result = truncate(result, node.width)
        cache[key] = result
        return result

    return walk(expr)


def free_symbols(expr: BV) -> Dict[str, int]:
    """Return ``{symbol name: width}`` for every symbol in ``expr``."""
    symbols: Dict[str, int] = {}
    stack = [expr]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Sym):
            symbols[node.name] = node.width
        stack.extend(node.children())
    return symbols


# --------------------------------------------------------------------------- #
# Compilation to Python closures (the replay hot loop)
# --------------------------------------------------------------------------- #
# ``evaluate`` re-walks the expression tree per call; replaying 10^4+
# packets against the same contract makes that the dominant cost.  The
# compilers below translate a tree once into straight-line Python (one
# local per distinct node, so shared subtrees are computed once) and hand
# back a closure whose semantics match ``evaluate`` bit for bit —
# including truncation at every node, division-by-zero results, and
# missing symbols defaulting to 0.


class _Codegen:
    """Shared code emitter for :func:`compile_evaluator` and friends."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.names: Dict[int, str] = {}

    def walk(self, node: BV) -> str:
        key = id(node)
        cached = self.names.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Const):
            # Literals are inlined; no assignment needed.
            self.names[key] = str(node.value)
            return self.names[key]
        code = self._emit(node)
        name = f"v{len(self.lines)}"
        self.lines.append(f"{name} = {code}")
        self.names[key] = name
        return name

    def _emit(self, node: BV) -> str:
        m = mask(node.width)
        if isinstance(node, Sym):
            return f"env.get({node.name!r}, 0) & {m}"
        if isinstance(node, (BinOp, Cmp)):
            return operator_source(node.op, self.walk(node.a), self.walk(node.b), node.a.width)
        if isinstance(node, Not):
            return f"1 - {self.walk(node.a)}"
        if isinstance(node, BoolOp):
            joiner = " and " if node.op == "and" else " or "
            return "(1 if " + joiner.join(self.walk(p) for p in node.parts) + " else 0)"
        if isinstance(node, Ite):
            cond = self.walk(node.cond)
            then, orelse = self.walk(node.then), self.walk(node.orelse)
            return f"({then} if {cond} else {orelse})"
        if isinstance(node, Extract):
            return f"({self.walk(node.value)} >> {node.lo}) & {m}"
        if isinstance(node, Concat):
            shift = 0
            parts = []
            for part in node.parts:
                code = self.walk(part)
                parts.append(code if shift == 0 else f"({code} << {shift})")
                shift += part.width
            return " | ".join(parts)
        if isinstance(node, ZExt):
            return self.walk(node.value)
        raise TypeError(f"cannot compile {type(node).__name__}")  # pragma: no cover

    def build(self, body: Sequence[str], name: str):
        lines = [f"def {name}(env):"]
        lines += [f"    {line}" for line in self.lines]
        lines += [f"    {line}" for line in body]
        namespace: Dict[str, object] = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - generated from our own AST
        return namespace[name]


def compile_evaluator(expr: BV):
    """Compile ``expr`` into ``f(env) -> int`` equivalent to :func:`evaluate`.

    The returned closure accepts any mapping from symbol name to int
    (missing symbols read as 0, exactly like :func:`evaluate`) and is an
    order of magnitude faster on repeated calls, which is what the
    traffic replayer needs.
    """
    gen = _Codegen()
    result = gen.walk(expr)
    return gen.build([f"return {result}"], "_compiled_evaluator")


def compile_conjunction(constraints: Sequence[BV]):
    """Compile constraints into ``f(env) -> bool``: all evaluate to 1.

    Equivalent to ``all(evaluate(c, env) == 1 for c in constraints)`` (the
    :meth:`repro.sym.paths.Path.covers` loop), with shared subtrees
    computed once and later constraints skipped after the first failure.
    """
    gen = _Codegen()
    for constraint in constraints:
        value = gen.walk(constraint)
        # Emitted into the shared line stream, so each constraint's check
        # sits right after its assignments: the generated body evaluates
        # constraints in order and bails at the first failure.
        gen.lines.append(f"if {value} != 1: return False")
    return gen.build(["return True"], "_compiled_conjunction")


def render(expr: BV) -> str:
    """Render an expression as a compact string (for diagnostics)."""
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Sym):
        return expr.name
    if isinstance(expr, BinOp):
        return f"({render(expr.a)} {expr.op} {render(expr.b)})"
    if isinstance(expr, Cmp):
        return f"({render(expr.a)} {expr.op} {render(expr.b)})"
    if isinstance(expr, Not):
        return f"!{render(expr.a)}"
    if isinstance(expr, BoolOp):
        joiner = " && " if expr.op == "and" else " || "
        return "(" + joiner.join(render(part) for part in expr.parts) + ")"
    if isinstance(expr, Ite):
        return f"({render(expr.cond)} ? {render(expr.then)} : {render(expr.orelse)})"
    if isinstance(expr, Extract):
        return f"{render(expr.value)}[{expr.lo}:{expr.lo + expr.width}]"
    if isinstance(expr, Concat):
        return "concat(" + ", ".join(render(part) for part in expr.parts) + ")"
    if isinstance(expr, ZExt):
        return f"zext{expr.width}({render(expr.value)})"
    return repr(expr)  # pragma: no cover - defensive
