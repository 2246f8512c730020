"""Symbolic performance expressions over performance-critical variables.

The body of every contract entry (§2.2 of the paper): a :class:`PerfExpr`
is a multivariate polynomial with integer (or rational) coefficients over
PCV names, e.g. the bridge contract entry of Table 4::

    245·e + 144·c + 36·t + 82·e·c + 19·e·t + 882

Performance contracts map input classes to such expressions; BOLT builds
them by summing the (constant) cost of the stateless instruction trace with
the per-call contract terms of the stateful data structures.

The representation is a mapping from *monomials* (sorted tuples of PCV
names, with repetition for powers) to coefficients.  The empty monomial
``()`` is the constant term.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Tuple, Union

Number = Union[int, float, Fraction]
Monomial = Tuple[str, ...]

# A PCV name: a bare identifier ("t") or an instance-qualified one
# ("fwd.t") — the form per-instance namespaced structures emit.
_TERM_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?$")


def _as_fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**9)
    raise TypeError(f"unsupported coefficient type: {type(value).__name__}")


def _normalise_monomial(monomial: Iterable[str]) -> Monomial:
    names = tuple(sorted(monomial))
    for name in names:
        if not _TERM_RE.match(name):
            raise ValueError(f"invalid PCV name in monomial: {name!r}")
    return names


class PerfExpr:
    """An immutable multivariate polynomial over PCV names.

    Construction is most convenient through the factory helpers
    :meth:`constant`, :meth:`var` and :meth:`from_terms`, and through the
    arithmetic operators (``+``, ``-``, ``*``)::

        expr = 245 * PerfExpr.var("e") + 144 * PerfExpr.var("c") + 882
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Number] | None = None) -> None:
        normalised: Dict[Monomial, Fraction] = {}
        for monomial, coeff in (terms or {}).items():
            mono = _normalise_monomial(monomial)
            frac = _as_fraction(coeff)
            if frac == 0:
                continue
            normalised[mono] = normalised.get(mono, Fraction(0)) + frac
        self._terms: Dict[Monomial, Fraction] = {
            mono: coeff for mono, coeff in normalised.items() if coeff != 0
        }

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(cls, value: Number) -> "PerfExpr":
        """Return a constant expression."""
        return cls({(): value})

    @classmethod
    def zero(cls) -> "PerfExpr":
        """Return the zero expression."""
        return cls({})

    @classmethod
    def var(cls, name: str, coefficient: Number = 1) -> "PerfExpr":
        """Return ``coefficient * name``."""
        return cls({(name,): coefficient})

    @classmethod
    def from_terms(cls, **terms: Number) -> "PerfExpr":
        """Build an expression from keyword terms.

        The key ``const`` denotes the constant term; other keys are PCV
        monomials with ``*`` separating factors, e.g. ``PerfExpr.from_terms(
        e=245, c=144, **{"e*c": 82}, const=882)``.
        """
        mapping: Dict[Monomial, Number] = {}
        for key, coeff in terms.items():
            if key == "const":
                mapping[()] = coeff
            else:
                mapping[tuple(key.split("*"))] = coeff
        return cls(mapping)

    @classmethod
    def coerce(cls, value: "PerfExpr | Number") -> "PerfExpr":
        """Coerce a number into a constant :class:`PerfExpr`."""
        if isinstance(value, PerfExpr):
            return value
        return cls.constant(value)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """Return a copy of the term mapping."""
        return dict(self._terms)

    def variables(self) -> set[str]:
        """Return the set of PCV names appearing in the expression."""
        names: set[str] = set()
        for monomial in self._terms:
            names.update(monomial)
        return names

    def constant_term(self) -> Fraction:
        """Return the coefficient of the empty monomial."""
        return self._terms.get((), Fraction(0))

    def coefficient(self, *monomial: str) -> Fraction:
        """Return the coefficient of the given monomial (0 if absent)."""
        return self._terms.get(_normalise_monomial(monomial), Fraction(0))

    def is_constant(self) -> bool:
        """Return True when the expression has no PCV terms."""
        return all(monomial == () for monomial in self._terms)

    def degree(self) -> int:
        """Return the total degree of the polynomial (0 for constants)."""
        if not self._terms:
            return 0
        return max(len(monomial) for monomial in self._terms)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: "PerfExpr | Number") -> "PerfExpr":
        other = PerfExpr.coerce(other)
        terms: Dict[Monomial, Fraction] = dict(self._terms)
        for monomial, coeff in other._terms.items():
            terms[monomial] = terms.get(monomial, Fraction(0)) + coeff
        return PerfExpr(terms)

    __radd__ = __add__

    def __neg__(self) -> "PerfExpr":
        return PerfExpr({monomial: -coeff for monomial, coeff in self._terms.items()})

    def __sub__(self, other: "PerfExpr | Number") -> "PerfExpr":
        return self + (-PerfExpr.coerce(other))

    def __rsub__(self, other: "PerfExpr | Number") -> "PerfExpr":
        return PerfExpr.coerce(other) + (-self)

    def __mul__(self, other: "PerfExpr | Number") -> "PerfExpr":
        other = PerfExpr.coerce(other)
        terms: Dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                mono = _normalise_monomial(mono_a + mono_b)
                terms[mono] = terms.get(mono, Fraction(0)) + coeff_a * coeff_b
        return PerfExpr(terms)

    __rmul__ = __mul__

    def scaled(self, factor: Number) -> "PerfExpr":
        """Return the expression with every coefficient multiplied by ``factor``."""
        frac = _as_fraction(factor)
        return PerfExpr({mono: coeff * frac for mono, coeff in self._terms.items()})

    # ------------------------------------------------------------------ #
    # Evaluation and bounding
    # ------------------------------------------------------------------ #
    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Fraction:
        """Evaluate the expression under concrete PCV bindings.

        Raises:
            KeyError: a PCV used by the expression has no binding.
        """
        bindings = bindings or {}
        total = Fraction(0)
        for monomial, coeff in self._terms.items():
            product = coeff
            for name in monomial:
                if name not in bindings:
                    raise KeyError(f"no binding for PCV {name!r}")
                product *= _as_fraction(bindings[name])
            total += product
        return total

    def evaluate_int(self, bindings: Mapping[str, Number] | None = None) -> int:
        """Evaluate and round up to an integer (costs are counts)."""
        value = self.evaluate(bindings)
        return int(-(-value.numerator // value.denominator))  # ceil

    def denominator_lcm(self) -> int:
        """Return the LCM of all coefficient denominators (1 when empty).

        Any multiple of this value is a valid ``scale`` for
        :meth:`compile_scaled`: it clears every fraction, so the compiled
        evaluator works in exact integers.
        """
        value = 1
        for coeff in self._terms.values():
            value = math.lcm(value, coeff.denominator)
        return value

    def compile_scaled(self, scale: int) -> Callable[[Mapping[str, Number]], int]:
        """Compile into ``f(bindings) -> int`` returning ``evaluate() * scale``.

        The replay hot loop calls contract polynomials per packet;
        :meth:`evaluate` pays Fraction arithmetic and a dict-driven tree
        walk every time.  The compiled closure is a single generated
        Python expression over integer coefficients — exact, provided
        ``scale`` is a multiple of :meth:`denominator_lcm` (a
        ``ValueError`` guards this).  Divide by ``scale`` (or keep the
        scaled units) at report time only.
        """
        parts: list[str] = []
        for monomial, coeff in sorted(self._terms.items()):
            scaled = coeff * scale
            if scaled.denominator != 1:
                raise ValueError(
                    f"scale {scale} does not clear coefficient {coeff} "
                    f"(need a multiple of {self.denominator_lcm()})"
                )
            factors = [str(scaled.numerator)] + [f"b[{name!r}]" for name in monomial]
            parts.append(" * ".join(factors))
        source = "lambda b: " + (" + ".join(parts) if parts else "0")
        return eval(source, {})  # noqa: S307 - generated from our own terms

    def compile_int(self) -> Callable[[Mapping[str, Number]], int]:
        """Compile :meth:`evaluate_int` into integer arithmetic.

        The polynomial is compiled at its own clearing scale
        (:meth:`denominator_lcm`) and the ceiling taken by floor division,
        so the closure returns exactly what :meth:`evaluate_int` does
        without building a ``Fraction``.
        """
        denominator = self.denominator_lcm()
        scaled = self.compile_scaled(denominator)
        if denominator == 1:
            return scaled
        return lambda b: -(-scaled(b) // denominator)

    def compile_floor(self) -> Callable[[Mapping[str, Number]], int]:
        """Compile ``floor(evaluate())`` into integer arithmetic.

        An integer ``m`` satisfies ``m ≤ evaluate()`` exactly when
        ``m ≤ floor(evaluate())``, so this is the bound a measured count
        compares against exactly; :meth:`compile_int` rounds up instead.
        """
        denominator = self.denominator_lcm()
        scaled = self.compile_scaled(denominator)
        if denominator == 1:
            return scaled
        return lambda b: scaled(b) // denominator

    def rename(self, mapping: Mapping[str, str]) -> "PerfExpr":
        """Return the expression with PCV names replaced per ``mapping``.

        Names absent from ``mapping`` are kept.  This is how a
        :class:`~repro.structures.base.Structure` instance turns its
        kind-level cost formulas (over local symbols like ``t``) into the
        instance-qualified form (``fwd.t``) its contract emits.

        Raises:
            ValueError: the renaming is not injective over the
                expression's variables — two previously-independent PCVs
                would silently merge (into one variable, or a power
                inside a product monomial).
        """
        targets: Dict[str, str] = {}
        for name in self.variables():
            target = mapping.get(name, name)
            if target in targets and targets[target] != name:
                raise ValueError(
                    f"renaming {dict(mapping)!r} collapses distinct PCVs "
                    f"{targets[target]!r} and {name!r} into {target!r}"
                )
            targets[target] = name
        terms: Dict[Monomial, Fraction] = {}
        for monomial, coeff in self._terms.items():
            mono = tuple(sorted(mapping.get(name, name) for name in monomial))
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return PerfExpr(terms)

    def substitute(self, bindings: Mapping[str, Number]) -> "PerfExpr":
        """Partially substitute PCVs with concrete values.

        PCVs that do not appear in ``bindings`` remain symbolic.
        """
        terms: Dict[Monomial, Fraction] = {}
        for monomial, coeff in self._terms.items():
            remaining: list[str] = []
            factor = coeff
            for name in monomial:
                if name in bindings:
                    factor *= _as_fraction(bindings[name])
                else:
                    remaining.append(name)
            mono = tuple(sorted(remaining))
            terms[mono] = terms.get(mono, Fraction(0)) + factor
        return PerfExpr(terms)

    def upper_bound(self, bounds: Mapping[str, Number]) -> Fraction:
        """Evaluate the expression at the PCV upper bounds.

        All coefficients used in this code base are non-negative, so
        evaluating at the per-PCV maxima yields a sound upper bound; a
        ``ValueError`` is raised if a negative coefficient is present (in
        which case a sound bound would require per-PCV minima as well).
        """
        for monomial, coeff in self._terms.items():
            if monomial and coeff < 0:
                raise ValueError(
                    "upper_bound requires non-negative PCV coefficients; "
                    f"term {monomial} has coefficient {coeff}"
                )
        return self.evaluate(bounds)

    def dominant_pcv(self) -> str | None:
        """Return the PCV with the largest total coefficient mass, if any.

        Used by the developer use-case of §5.3: the contract for VigNAT has
        ``e`` dominant by an order of magnitude, which points at the expiry
        batching bug.
        """
        mass: Dict[str, Fraction] = {}
        for monomial, coeff in self._terms.items():
            for name in set(monomial):
                mass[name] = mass.get(name, Fraction(0)) + abs(coeff)
        if not mass:
            return None
        return max(sorted(mass), key=lambda name: mass[name])

    # ------------------------------------------------------------------ #
    # Comparison / rendering
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float, Fraction)):
            other = PerfExpr.constant(other)
        if not isinstance(other, PerfExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    @staticmethod
    def _format_coeff(coeff: Fraction) -> str:
        if coeff.denominator == 1:
            return str(coeff.numerator)
        return f"{float(coeff):.2f}"

    def render(self, *, multiplication_sign: str = "·") -> str:
        """Render the expression in the paper's human-readable style."""
        if not self._terms:
            return "0"

        def sort_key(item: tuple[Monomial, Fraction]) -> tuple[int, Monomial]:
            monomial, _ = item
            # Variables first (by degree then name), constant last.
            return (0 if monomial else 1, (-len(monomial) if False else len(monomial),) + monomial)

        parts: list[str] = []
        # Render single-variable terms first, then cross terms, constant last,
        # mirroring the layout of the paper's tables.
        singles = sorted(
            (item for item in self._terms.items() if len(item[0]) == 1),
            key=lambda item: item[0],
        )
        crosses = sorted(
            (item for item in self._terms.items() if len(item[0]) > 1),
            key=lambda item: (len(item[0]), item[0]),
        )
        for monomial, coeff in singles + crosses:
            var_part = multiplication_sign.join(monomial)
            if coeff == 1:
                parts.append(var_part)
            else:
                parts.append(f"{self._format_coeff(coeff)}{multiplication_sign}{var_part}")
        const = self.constant_term()
        if const != 0 or not parts:
            parts.append(self._format_coeff(const))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PerfExpr({self.render()!r})"
