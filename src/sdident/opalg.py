"""Exact symbolic algebra behind the constitutive equation of a network.

Three layers:

* ``ParamPoly``     sparse multivariate polynomial in the element
                    parameters, exponent-vector -> Fraction map.
* ``DiffOperator``  polynomial in the time-derivative operator; its
                    shape is the pair (highest order, lowest order).
* ``ConstitutiveEq`` the pair (eps_op, sig_op) meaning
                    ``eps_op eps = sig_op sigma`` with denominators
                    cleared; defined up to one global nonzero scalar.

Composition rules: a series connection shares the stress and adds the
strains, a parallel connection shares the strain and adds the stresses.
In operator form, for sub-equations (L1, L2) and (L3, L4):

    series:    (L1*L3, L1*L4 + L2*L3), then exact division by x**k
               with k = min(m(L1), m(L3)) removing the structural
               common factor of the strain operators,
    parallel:  (L1*L4 + L2*L3, L2*L4), no division needed because
               stress operators always have a constant term.

The rules only add, multiply and shift, so every coefficient is a
polynomial with non-negative integer coefficients, nonzero at positive
points unless zero.  So ``fold_constitutive`` gives the same shapes over
every ring it accepts: ``ParamPoly`` (``constitutive``), ``int`` at
theta = (1, ..., 1), ``float`` values and the oracle's exact duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .network import (
    DASHPOT,
    SPRING,
    Leaf,
    NetworkExpr,
    Parallel,
    Series,
    params,
)

Rat = Union[int, Fraction]


class InvariantViolation(RuntimeError):
    """An internal algebraic invariant failed; a bug, not bad input."""


class Shape(NamedTuple):
    """Highest and lowest differential order of an operator, n >= m >= 0."""

    n: int
    m: int


def _grlex_key(exp: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exp), exp)


class ParamPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one entry per parameter) to nonzero
    Fractions; the zero polynomial has an empty map.  Instances are
    treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Rat] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        for exp, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(
                    f"exponent vector of length {len(exp)}, expected {nvars}"
                )
            clean[exp] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "ParamPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Rat) -> "ParamPoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def var(cls, nvars: int, index: int) -> "ParamPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "ParamPoly | None":
        if isinstance(other, ParamPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixing polynomials over different parameter lists")
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(self.nvars, other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + coeff
        return ParamPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ParamPoly":
        return -(self - other)

    def __mul__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, Fraction(0)) + c1 * c2
        return ParamPoly(self.nvars, out)

    __rmul__ = __mul__

    def evaluate(self, values: Sequence[Rat]) -> Fraction:
        """Exact value at a point (one value per parameter)."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exp, vals):
                if e:
                    term *= v**e
            total += term
        return total

    def derivative(self, index: int) -> "ParamPoly":
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, coeff in self.terms.items():
            e = exp[index]
            if e == 0:
                continue
            new = list(exp)
            new[index] = e - 1
            out[tuple(new)] = coeff * e
        return ParamPoly(self.nvars, out)

    def embed(self, nvars: int, index_map: Sequence[int]) -> "ParamPoly":
        """Re-express over a larger parameter list; old variable i becomes
        index_map[i] in the new list."""
        if len(index_map) != self.nvars:
            raise ValueError("index_map length must equal nvars")
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, coeff in self.terms.items():
            new = [0] * nvars
            for i, e in enumerate(exp):
                new[index_map[i]] += e
            out[tuple(new)] = out.get(tuple(new), Fraction(0)) + coeff
        return ParamPoly(nvars, out)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Graded-lex leading term; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def try_divide(self, divisor: "ParamPoly") -> "ParamPoly | None":
        """Exact quotient self/divisor, or None when division is inexact."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return ParamPoly.zero(self.nvars)
        dexp, dcoeff = divisor.leading()
        rem = self
        quot: dict[tuple[int, ...], Fraction] = {}
        while not rem.is_zero:
            rexp, rcoeff = rem.leading()
            qexp = tuple(r - d for r, d in zip(rexp, dexp))
            if any(e < 0 for e in qexp):
                return None
            qcoeff = rcoeff / dcoeff
            quot[qexp] = quot.get(qexp, Fraction(0)) + qcoeff
            rem = rem - divisor * ParamPoly(self.nvars, {qexp: qcoeff})
        return ParamPoly(self.nvars, quot)

    def to_string(self, names: Sequence[str]) -> str:
        """Canonical text, terms in descending graded-lex order."""
        if len(names) != self.nvars:
            raise ValueError("one name per variable required")
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exp]
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ParamPoly({self.nvars}, {self.terms!r})"


class DiffOperator:
    """Polynomial in d/dt with coefficients in one ring (``ParamPoly``
    unless a fold says otherwise).

    ``coeffs[i]`` is the coefficient of order ``low + i``; both end
    coefficients are nonzero, so the shape is tight.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs: Iterable[ParamPoly]):
        coeffs = list(coeffs)
        if not coeffs:
            raise InvariantViolation("differential operator with no coefficients")
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            low += 1
        if not coeffs:
            raise InvariantViolation("zero differential operator")
        if low < 0:
            raise InvariantViolation("negative differential order")
        self.low = low
        self.coeffs = tuple(coeffs)

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    @property
    def shape(self) -> Shape:
        return Shape(self.high, self.low)

    @property
    def nvars(self) -> int:
        return self.coeffs[0].nvars

    def coeff(self, order: int):
        if self.low <= order <= self.high:
            return self.coeffs[order - self.low]
        return self.coeffs[0] * 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.low == other.low and list(self.coeffs) == list(other.coeffs)

    __hash__ = None  # type: ignore[assignment]

    def __mul__(self, other: "DiffOperator") -> "DiffOperator":
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for k, b in enumerate(other.coeffs, start=i):
                out[k] = a * b if out[k] is None else out[k] + a * b
        return DiffOperator(self.low + other.low, out)

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        out = [self.coeff(k) + other.coeff(k) for k in range(low, high + 1)]
        return DiffOperator(low, out)

    def shift_down(self, k: int) -> "DiffOperator":
        """Exact division by x**k (x = d/dt)."""
        if k == 0:
            return self
        if k < 0 or self.low < k:
            raise InvariantViolation(
                f"inexact division by x^{k} of operator with shape {self.shape}"
            )
        return DiffOperator(self.low - k, self.coeffs)

    def eval_coeffs(self, theta: Sequence[Rat]) -> list[Fraction]:
        """Coefficient values at theta, orders low..high ascending."""
        return [c.evaluate(theta) for c in self.coeffs]

    def eval_at(self, theta: Sequence[Rat], x0: Rat) -> Fraction:
        """Value of the operator polynomial at (x0, theta)."""
        x0 = Fraction(x0)
        total = Fraction(0)
        for k, c in enumerate(self.coeffs, start=self.low):
            total += c.evaluate(theta) * x0**k
        return total

    def embed(self, nvars: int, index_map: Sequence[int]) -> "DiffOperator":
        return DiffOperator(self.low, [c.embed(nvars, index_map) for c in self.coeffs])

    def __repr__(self) -> str:
        return f"DiffOperator(low={self.low}, orders={self.low}..{self.high})"


@dataclass(frozen=True)
class ConstitutiveEq:
    """``eps eps(t) = sig sigma(t)``, denominators cleared, up to scale."""

    eps: DiffOperator
    sig: DiffOperator

    def __post_init__(self):
        if self.sig.low != 0:
            raise InvariantViolation(
                f"stress operator must have a constant term, shape {self.sig.shape}"
            )

    @property
    def nvars(self) -> int:
        return self.eps.nvars

    def embed(self, nvars: int, index_map: Sequence[int]) -> "ConstitutiveEq":
        return ConstitutiveEq(
            self.eps.embed(nvars, index_map), self.sig.embed(nvars, index_map)
        )


def leaf_equation(kind: str, index: int, nvars: int) -> ConstitutiveEq:
    """Base equation of one element over an ``nvars``-parameter space."""
    return _leaf(kind, ParamPoly.var(nvars, index), ParamPoly.const(nvars, 1))


def _leaf(kind: str, value, one) -> ConstitutiveEq:
    if kind == SPRING:
        return ConstitutiveEq(DiffOperator(0, [value]), DiffOperator(0, [one]))
    if kind == DASHPOT:
        return ConstitutiveEq(DiffOperator(1, [value]), DiffOperator(0, [one]))
    raise ValueError(f"unknown element kind {kind!r}")


def combine_series(eq1: ConstitutiveEq, eq2: ConstitutiveEq) -> ConstitutiveEq:
    """Series connection: equal stresses, strains add.

    Both sub-equations must already live in the joint parameter space
    (see ``ConstitutiveEq.embed``) with disjoint supports.
    """
    l1, l2 = eq1.eps, eq1.sig
    l3, l4 = eq2.eps, eq2.sig
    k = min(l1.low, l3.low)
    eps = (l1 * l3).shift_down(k)
    sig = (l1 * l4 + l2 * l3).shift_down(k)
    return ConstitutiveEq(eps, sig)


def combine_parallel(eq1: ConstitutiveEq, eq2: ConstitutiveEq) -> ConstitutiveEq:
    """Parallel connection: equal strains, stresses add."""
    l1, l2 = eq1.eps, eq1.sig
    l3, l4 = eq2.eps, eq2.sig
    return ConstitutiveEq(l1 * l4 + l2 * l3, l2 * l4)


def constitutive(expr: NetworkExpr) -> ConstitutiveEq:
    """Symbolic constitutive equation of a flattened network over its
    canonical parameter ordering."""
    nvars = len(params(expr))
    variables = [ParamPoly.var(nvars, i) for i in range(nvars)]
    return fold_constitutive(expr, variables, ParamPoly.const(nvars, 1))


def fold_constitutive(expr: NetworkExpr, values: Sequence, one) -> ConstitutiveEq:
    """Constitutive equation of a flattened network folding children left
    to right, with ``values`` (one per parameter in canonical order) and
    ``one`` from a ring whose elements add, multiply (also by an int) and
    are falsy exactly when zero."""
    n = len(params(expr))
    if len(values) != n:
        raise ValueError(f"expected {n} parameter values, got {len(values)}")
    cursor = iter(values)

    def walk(node: NetworkExpr) -> ConstitutiveEq:
        if isinstance(node, Leaf):
            return _leaf(node.element.kind, next(cursor), one)
        combine = combine_series if isinstance(node, Series) else combine_parallel
        acc = walk(node.children[0])
        for child in node.children[1:]:
            acc = combine(acc, walk(child))
        return acc

    return walk(expr)


def eval_operator(op: DiffOperator, theta: Sequence[Rat]) -> list[Fraction]:
    """Numeric coefficient vector of an operator, orders m..n ascending."""
    if len(theta) != op.nvars:
        raise ValueError(f"expected {op.nvars} parameter values, got {len(theta)}")
    return op.eval_coeffs(theta)


def coefficient_map(eq: ConstitutiveEq) -> list[tuple]:
    """Normalized non-monic coefficients as (numerator, denominator) pairs
    in the equation's coefficient ring.

    The pivot is the leading stress coefficient; every other coefficient
    of both sides is divided by it.  Order: strain side from highest to
    lowest order, then stress side from highest to lowest, the pivot
    entry itself omitted.
    """
    pivot = eq.sig.coeffs[-1]
    if not pivot:
        raise InvariantViolation("leading stress coefficient vanished")
    entries = []
    for order in range(eq.eps.high, eq.eps.low - 1, -1):
        entries.append((eq.eps.coeff(order), pivot))
    for order in range(eq.sig.high - 1, -1, -1):
        entries.append((eq.sig.coeff(order), pivot))
    return entries


def equation_to_json(eq: ConstitutiveEq, names: Sequence[str]) -> dict:
    """JSON form: coefficient polynomial per order, both sides ascending."""

    def side(op: DiffOperator) -> list[dict]:
        return [
            {"order": order, "poly": op.coeff(order).to_string(names)}
            for order in range(op.low, op.high + 1)
        ]

    return {"eps": side(eq.eps), "sigma": side(eq.sig)}
