"""Exact symbolic algebra behind the constitutive equation of a network.

Three layers:

* ``ParamPoly``     multilinear polynomial in the element parameters
                    with every coefficient 1, a set of parameter
                    bitmasks, parameter i of n at bit n - 1 - i: the
                    masks in descending order are the printed order.
* ``DiffOperator``  polynomial in the time-derivative operator, a
                    fold's result; its shape is the pair (highest
                    order, lowest order).
* ``ConstitutiveEq`` the pair (eps_op, sig_op) meaning
                    ``eps_op eps = sig_op sigma`` with denominators
                    cleared; defined up to one global nonzero scalar.

Composition rules: a series connection shares the stress and adds the
strains, a parallel connection shares the strain and adds the stresses.
For sub-equations (L1, L2) and (L3, L4), with k = min(m(L1), m(L3)):

    series:    (L1*L3, L1*L4 + L2*L3) / x**k, the division removing the
               structural common factor of the strain operators,
    parallel:  (L1*L4 + L2*L3, L2*L4).

``fold_constitutive`` holds the package's one implementation of both, a
kernel over plain coefficient lists (see its docstring).

Each parameter enters once and the rules only add, shift and multiply
operators over disjoint parameter sets, so every coefficient is a
multilinear polynomial, and each of its monomials has coefficient 1.
By induction over the two rules, each operator is homogeneous with
strain degree one above stress degree, which keeps the two products of
a sum apart (their parts in one child's parameters differ in degree),
and each monomial of an order-k coefficient holds k + c dashpots for
one c per equation, which keeps the terms of an operator product apart
(their parts in one child's parameters differ in dashpots).  So no sum
or product in the fold meets a monomial twice.  A coefficient is
therefore nonzero at positive points unless zero, and
``fold_constitutive`` gives the same shapes over every ring it accepts:
``ParamPoly``, ``constitutive``'s term lists and ``float`` values.  The
kernel trims nothing, so those shapes are its list lengths in any ring:
``ident._shapes`` walks the lengths alone, for the verdicts, and
``_term_count`` each side's total at theta = (1, ..., 1) and x = 1, its
term count, for ``constitutive``'s budget.  The rank oracle's walk goes
through the kernel's ``_leaf`` and ``_step`` over ints mod a prime.

Where the invariant is checked: ``ParamPoly`` arithmetic checks it at
every operation, a product refusing operands that share a parameter and
a sum operands that share a monomial.  ``constitutive`` folds plain
lists of masks (``_Terms``) instead: each product refuses a shared
parameter, each sum concatenates, and each final coefficient's list is
checked for a repeated monomial once, when it becomes a ``ParamPoly``.
That one check catches every repeat a checked sum would have raised on.
The lists never cancel.  A product with a nonempty list of disjoint
support maps distinct masks to distinct masks (each factor's part of
``a | b`` is read back by masking with its support) and repeats to
repeats, and a concatenation keeps every repeat of its operands.  The
kernel drops no coefficient, so each intermediate list reaches a final
coefficient through such products and sums, and a repeated monomial
anywhere in the fold is still repeated there.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, pairwise, repeat
from operator import or_
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

from .network import (
    DASHPOT,
    Leaf,
    NetworkExpr,
    Parallel,
    Record,
    Series,
    params,
)

if TYPE_CHECKING:
    from fractions import Fraction

# a Fraction comes only from the exact rational path, which imports it
Rat = Union[int, "Fraction"]

# Most monomials ``constitutive`` derives; past it, it raises ValueError
# before deriving anything.  Terms grow exponentially with depth and width:
# ``analyze --json`` on a 514,229-term ladder took 0.54-0.6 s and 81-82 MB peak
# RSS on a 2-vCPU Xeon.
MAX_TERMS = 10**6


class InvariantViolation(RuntimeError):
    """An internal algebraic invariant failed; a bug, not bad input."""


class Shape(NamedTuple):
    """Highest and lowest differential order of an operator, n >= m >= 0."""

    n: int
    m: int


class ParamPoly:
    """Multilinear polynomial in the element parameters with every
    coefficient 1.

    ``terms`` is the frozenset of its monomials' parameter bitmasks; the
    zero polynomial has none.  ``support`` is the OR of the masks, the
    parameters the polynomial holds.  Parameter i of n is bit n - 1 - i,
    the first parameter the highest bit, so masks compare as integers the
    way their exponent tuples compare in parameter order, and
    ``to_string`` sorts the masks, descending, with no key; only ``var``,
    ``constitutive``'s leaves and the printer know the layout.  Products
    join disjoint parameter sets and sums join disjoint monomial sets, so
    no exponent or coefficient exceeds 1: a product of polynomials sharing
    a parameter, or a sum of polynomials sharing a monomial, raises
    ``InvariantViolation``.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms", "support")

    def __init__(self, nvars: int, terms: Iterable[int] = ()):
        self.nvars = nvars
        self.terms = frozenset(terms)
        # A negative mask makes the OR negative.
        self.support = reduce(or_, self.terms, 0)
        if not 0 <= self.support < 1 << nvars:
            raise ValueError(f"a monomial mask lies outside {nvars} parameters")

    @classmethod
    def _derived(cls, nvars: int, terms: frozenset, support: int) -> "ParamPoly":
        """A sum or product of checked operands: its masks stay within
        their parameters, so the range check is not repeated."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        poly.support = support
        return poly

    @classmethod
    def const(cls, nvars: int, value: int) -> "ParamPoly":
        if value not in (0, 1):
            raise ValueError(f"a 0/1 polynomial has no constant {value}")
        return cls(nvars, [0] if value else ())

    @classmethod
    def var(cls, nvars: int, index: int) -> "ParamPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars}")
        return cls(nvars, [1 << nvars - 1 - index])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "ParamPoly | None":
        if isinstance(other, ParamPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixing polynomials over different parameter lists")
            return other
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
        terms = self.terms | other.terms
        if len(terms) != len(self.terms) + len(other.terms):
            raise InvariantViolation("sum of polynomials sharing a monomial")
        return ParamPoly._derived(self.nvars, terms, self.support | other.support)

    def __mul__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.support & other.support:
            raise InvariantViolation("product of monomials sharing a parameter")
        terms = frozenset([a | b for a in self.terms for b in other.terms])
        support = self.support | other.support if terms else 0
        return ParamPoly._derived(self.nvars, terms, support)

    def try_divide(self, divisor: "ParamPoly") -> "ParamPoly | None":
        """Exact quotient self/divisor, or None when division is inexact.

        Degrees in each parameter add under products, so a multilinear
        quotient shares no parameter with the divisor, and each of its
        monomials is a dividend monomial's part outside the divisor's
        support.
        """
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        outside = ~divisor.support
        quot = ParamPoly(self.nvars, [mask & outside for mask in self.terms])
        return quot if quot * divisor == self else None

    def to_string(self, names: Sequence[str] | NameTables) -> str:
        """Canonical text, terms by descending exponent tuple in parameter
        order (lex order), which is descending mask order.  On a
        homogeneous polynomial, as every derived coefficient and quotient
        is, that is graded lex order.

        ``names`` is the parameter list or its ``NameTables``.  A name that
        is empty or holds ``*`` or `` + `` raises ValueError: the text
        would not say which names a term multiplies.
        """
        tables = names if isinstance(names, NameTables) else NameTables(names)
        if tables.nvars != self.nvars:
            raise ValueError("one name per variable required")
        if not self.terms:
            return "0"
        order = sorted(self.terms, reverse=True)
        # each term's words run by run, first parameters first, then " + "
        columns = [[t[mask >> shift & low] for mask in order] for shift, low, t in tables.chunks]
        text = "".join(chain.from_iterable(zip(*columns, repeat(" + ", len(order)))))
        # Drop each term's last "*" and the final " + "; the constant
        # term, whose mask sorts last, has no word.
        text = text.replace("* + ", " + ")[:-3]
        return text + "1" if 0 in self.terms else text

    def __repr__(self) -> str:
        return f"ParamPoly({self.nvars}, {sorted(self.terms)!r})"


class NameTables:
    """The printed words of one parameter list, for ``ParamPoly.to_string``.

    ``chunks`` holds (shift, low, table) per run of parameters, first
    parameters first: ``table[mask >> shift & low]`` is the run's
    ``"name*"`` words in parameter order for the mask's bits there.  The
    ceil(n / 8) runs of n names (one for none) differ in width by at most
    one, so no table holds more than 256 entries.
    """

    __slots__ = ("nvars", "chunks")

    def __init__(self, names: Sequence[str]):
        for name in names:
            if not name or "*" in name or " + " in name:
                raise ValueError(f"parameter name {name!r} cannot be rendered")
        self.nvars = n = len(names)
        runs = (n + 7) // 8 or 1
        self.chunks = []
        for start, stop in pairwise(i * n // runs for i in range(runs + 1)):
            table = [""]
            for name in reversed(names[start:stop]):  # bit 0 first
                word = name + "*"
                table += [word + words for words in table]
            self.chunks.append((n - stop, len(table) - 1, table))


class _Terms:
    """``constitutive``'s fold ring: a 0/1 polynomial as a plain list of
    its monomials' masks, never empty, with ``support`` the OR of them.

    A product refuses factors sharing a parameter, as ``ParamPoly``'s
    does; a sum joins the two lists unchecked.  ``freeze`` makes the
    ``ParamPoly`` of a final coefficient, refusing a list that repeats a
    monomial: the module docstring says why that one check covers the
    fold.
    """

    __slots__ = ("masks", "support")

    def __init__(self, masks: list, support: int):
        self.masks = masks
        self.support = support

    def __bool__(self) -> bool:
        return bool(self.masks)

    def __add__(self, other: "_Terms") -> "_Terms":
        return _Terms(self.masks + other.masks, self.support | other.support)

    def __mul__(self, other: "_Terms") -> "_Terms":
        if self.support & other.support:
            raise InvariantViolation("product of monomials sharing a parameter")
        if len(other.masks) == 1:  # one monomial, as a leaf is
            b = other.masks[0]
            masks = [a | b for a in self.masks]
        else:
            masks = [a | b for a in self.masks for b in other.masks]
        return _Terms(masks, self.support | other.support)

    def freeze(self, nvars: int) -> ParamPoly:
        terms = frozenset(self.masks)
        if len(terms) != len(self.masks):
            raise InvariantViolation("sum of polynomials sharing a monomial")
        return ParamPoly._derived(nvars, terms, self.support)


class DiffOperator:
    """Polynomial in d/dt with coefficients in one ring (``ParamPoly``
    unless a fold says otherwise).

    ``coeffs[i]`` is the coefficient of order ``low + i``; both end
    coefficients are nonzero, so the shape is tight.  No exact fold makes
    a zero one, and a float zero (an underflow) is refused, not trimmed.
    That check is all the operator asks of its ring, a truth value; the
    fold that builds it asks for sums and products too, and readers
    index ``coeffs`` themselves.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs: Iterable[ParamPoly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise InvariantViolation("differential operator with no coefficients")
        if not (coeffs[0] and coeffs[-1]):
            raise InvariantViolation("differential operator with a zero end coefficient")
        if low < 0:
            raise InvariantViolation("negative differential order")
        self.low = low
        self.coeffs = coeffs

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    @property
    def shape(self) -> Shape:
        return Shape(self.high, self.low)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DiffOperator(low={self.low}, orders={self.low}..{self.high})"


class ConstitutiveEq(Record):
    """``eps eps(t) = sig sigma(t)``, denominators cleared, up to scale."""

    __slots__ = ("eps", "sig")

    def __init__(self, eps: DiffOperator, sig: DiffOperator):
        if sig.low != 0:
            raise InvariantViolation(
                f"stress operator must have a constant term, shape {sig.shape}"
            )
        self.eps, self.sig = eps, sig


def _product(a: Sequence, b: Sequence, unit) -> Sequence:
    """a * b of ascending lists; one * c is c in every ring, so a product
    with a leaf's ``unit`` stress list is its other factor."""
    if b is unit or a is unit:
        return a if b is unit else b
    if len(b) == 1:  # one coefficient, as a leaf's strain list: the loop's result
        c = b[0]
        return [x * c for x in a]
    # out[k] sums a_i * b_(k-i) in ascending i: row i adds into the
    # orders row i - 1 reached and opens one more
    first, *rest = a
    out = [first * c for c in b]
    for i, x in enumerate(rest, 1):
        out[i:] = [s + x * c for s, c in zip(out[i:], b)]
        out.append(x * b[-1])
    return out


def _sum(p: Sequence, a: int, q: Sequence, b: int) -> list:
    """x**a * p + x**b * q from order 0, one of a and b zero and the other
    at most 1, as every strain low order is: no gap between the lists."""
    first, second, pairs = (q, p, zip(p, q[a:])) if a else (p, q, zip(p[b:], q))
    shift = a or b
    rest = len(first) - shift  # orders of first from the shift on
    tail = first[shift + len(second) :] if rest > len(second) else second[rest:]
    return [*first[:shift], *[x + y for x, y in pairs], *tail]


def _leaf(leaf: Leaf, value, unit) -> tuple:
    """A leaf's triple: a spring's value has strain order 0, a dashpot's
    order 1, and the stress list is ``unit``."""
    return (1 if leaf.element.kind == DASHPOT else 0), [value], unit


def _step(series: bool, eq1: tuple, eq2: tuple, unit) -> tuple:
    """One composition of two triples.  Both rules hold E1*S4 + S2*E3,
    aligned at k, the lower strain low order: a series step's stress
    list, beside E1*E3 / x**k, and a parallel step's strain, beside S2*S4."""
    (lo1, e1, s2), (lo3, e3, s4) = eq1, eq2
    k = min(lo1, lo3)
    mixed = _sum(_product(e1, s4, unit), lo1 - k, _product(s2, e3, unit), lo3 - k)
    if series:
        return lo1 + lo3 - k, _product(e1, e3, unit), mixed
    return k, mixed, _product(s2, s4, unit)


def constitutive(expr: NetworkExpr) -> ConstitutiveEq:
    """Symbolic constitutive equation of a flattened network over its
    canonical parameter ordering.

    Past ``MAX_TERMS`` terms in total this raises ``ValueError`` up front,
    counted by ``_term_count``.  The fold runs over ``_Terms`` lists, each
    coefficient frozen into a ``ParamPoly`` once.
    """
    if _term_count(expr) > MAX_TERMS:
        raise ValueError(
            f"the constitutive equation would have more than {MAX_TERMS} terms (the term budget)"
        )
    nvars = len(params(expr))
    # parameter i of n at bit n - 1 - i, as in ParamPoly.var
    variables = [_Terms([1 << bit], 1 << bit) for bit in range(nvars - 1, -1, -1)]
    eq = fold_constitutive(expr, variables, _Terms([0], 0))
    eps, sig = ([c.freeze(nvars) for c in op.coeffs] for op in (eq.eps, eq.sig))
    return _equation(eq.eps.low, eps, sig)


def _term_count(expr: NetworkExpr) -> int:
    """Terms of the constitutive equation, capped at ``MAX_TERMS + 1``.

    Each coefficient's value at theta = (1, ..., 1) is its term count, so
    a side's term total is its list's sum, which ``_step``'s products
    multiply and its sums add: this walks (strain total, stress total)
    per subtree, a leaf's (1, 1), each capped, which is exact because
    min(., cap) commutes with + and * on positive ints.  The ints stay
    small and the walk is linear in the network's size.
    """
    cap = MAX_TERMS + 1

    def walk(node: NetworkExpr) -> tuple[int, int]:
        if isinstance(node, Leaf):
            return 1, 1
        series = isinstance(node, Series)
        e1, s2 = walk(node.children[0])
        for child in node.children[1:]:
            e3, s4 = walk(child)
            mixed = min(e1 * s4 + s2 * e3, cap)
            e1, s2 = (min(e1 * e3, cap), mixed) if series else (mixed, min(s2 * s4, cap))
        return e1, s2

    return min(sum(walk(expr)), cap)


def fold_constitutive(expr: NetworkExpr, values: Sequence, one) -> ConstitutiveEq:
    """Constitutive equation of a flattened network folding children left
    to right, with ``values`` (one per parameter in canonical order) and
    ``one`` from a ring whose elements add, multiply and are falsy
    exactly when zero: all the pipeline asks of a ring.

    The fold is one kernel over plain lists: each sub-equation is the
    triple (strain low order, ascending strain list, ascending stress
    list), and only the result becomes operators, with their checks.  A
    stress side always starts at order 0 (a leaf's is the constant one,
    and each step keeps a constant term), so it carries no low order.
    The leaves share one ``unit`` stress list, whose products are
    skipped: exact in every ring.  Each product and sum keeps the
    schoolbook order, so a float fold rounds as that order does.
    """
    cursor = iter(values)
    unit = [one]  # every leaf's stress list

    def walk(node: NetworkExpr) -> tuple:
        if isinstance(node, Leaf):
            eq = _leaf(node, next(cursor), unit)
        else:
            series = isinstance(node, Series)
            eq = walk(node.children[0])
            for child in node.children[1:]:
                eq = _step(series, eq, walk(child), unit)
        return eq

    try:
        eq = walk(expr)
    except StopIteration:  # fewer values than leaves
        eq = None
    if eq is None or any(True for _ in cursor):
        raise ValueError(f"expected {len(params(expr))} parameter values, got {len(values)}")
    return _equation(*eq)


def _equation(low: int, eps: Sequence, sig: Sequence) -> ConstitutiveEq:
    return ConstitutiveEq(DiffOperator(low, eps), DiffOperator(0, sig))


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
    return [(c, pivot) for c in chain(eq.eps.coeffs[::-1], eq.sig.coeffs[-2::-1])]


def equation_to_json(eq: ConstitutiveEq, names: Sequence[str] | NameTables) -> dict:
    """JSON form: coefficient polynomial per order, both sides ascending,
    every text from one ``NameTables``."""
    tables = names if isinstance(names, NameTables) else NameTables(names)

    def side(op: DiffOperator) -> list[dict]:
        return [
            {"order": order, "poly": c.to_string(tables)}
            for order, c in enumerate(op.coeffs, op.low)
        ]

    return {"eps": side(eq.eps), "sigma": side(eq.sig)}
