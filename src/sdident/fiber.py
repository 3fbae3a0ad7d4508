"""Fiber search: the parameter sets that share a network's equation.

The paper's global criterion is constructive: a network is global when
it can be undone one element at a time, and a local-only network's
other preimages come from redistributing the roots of the composition
factors at a node.  ``fiber_solutions`` lists the fiber of the
coefficient map over a base point by inverting the network node by
node, given a node's strain and stress operators up to one scale:

* take the exchanged side (the strain operator at a series node, the
  stress operator at a parallel one), make it monic, take its roots;
* deal the roots to the children by their root counts r_i, the high
  minus low order of each child's exchanged side, and rebuild each
  child's monic factor from its roots (``_poly_from_roots``); where at
  most one r_i is positive there is one distribution, and that child's
  factor is the exchanged side made monic, with no roots taken;
* solve the node's square composition system (``_exchange_matrix``)
  for the children's other sides, the right side being the node's
  other side in the monic scale;
* recurse into each child with its two sides, a leaf reading its value
  off them, and take the Cartesian product of the children's results.

So the fiber has at most d points, d the fiber's degree: the number
of distributions, the product over internal nodes of the multinomial
(sum r_i)! / prod r_i!, which is 1 at a node where at most one r_i is
positive.  d = 1 exactly when the network is constructible; the search
checks that against ``analyze``.  No symbolic equation is built: one
float walk of the network at the base point (``_base``) keeps every
subtree's strain and stress lists, which give its root counts and sides.

The distributions are listed lazily in partition order.  The first is
the base's own at every node (each node deals its children's own roots
back to them), and is reported with the base's exact values.  Each
later one is checked against the base's normalized coefficients with
the float fold, to ``_FIBER_TOL``, and a distribution that gives no
point is counted in the report's ``dropped``, by reason: a group that
splits a complex-conjugate pair, a singular system, a point that is
not positive, or a failed check.  One cap, ``_MAX_SOLUTIONS``, bounds
both the distributions tried and the points listed; a report says
``truncated`` when the cap cut the distributions tried (d above it),
and ``dropped`` says why any other point is missing.

Unproven step: which distributions give a positive point.  The
conjecture is that at every positive base each of the d distributions
does, so that the positive fiber has exactly d points.  At
``sample_point`` bases every one did, on all 11,526 identifiable
networks of up to 7 elements; the modulus's real, interlacing poles and
zeros (the RC/Foster structure) are the likely reason.  A point dropped
as non-positive may be a rounding artifact: at (E1 | n2) & (E3 | n4 &
(n5 | E6)) with values spread over six decades, two of the three
distributions read parameters near -1e13 in float64, yet 80-digit
arithmetic gives three positive points.  Known limit: float64
separates fiber points only to about depth 13 (a nested chain of 14
levels inverts to a wrong point whose coefficients match to 1e-15), so
a listed point is evidence, not a certificate.

This is the package's float code, and only the ``fiber`` command
imports it.  Its arithmetic is plain Python floats and complex numbers:
``opalg``'s one polynomial product, ``_solve``'s elimination with
partial pivoting, and ``_roots``, Laguerre's method with deflation.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter, namedtuple
from typing import Iterator, Sequence

from .ident import analyze, factor_matrix
from .network import Leaf, NetworkExpr, Record, Series
from .opalg import InvariantViolation, _equation, _leaf, _step, coefficient_map, fold_constitutive
from .opalg import _product as _poly_product
from .oracle import ParamPoint, sample_point

# most distributions one report tries, and so most points it lists
_MAX_SOLUTIONS = 64
# the residual norm within which a fiber candidate verifies
_FIBER_TOL = 1e-8
# why a distribution gives no point, in report order
DROP_REASONS = ("split-pair", "singular", "non-positive", "failed-check")


class FiberSolution(Record):
    __slots__ = ("values", "method")

    def __init__(self, values: tuple[float, ...], method: str):
        self.values, self.method = values, method  # "base" | "root-exchange"


class FiberReport(Record):
    """``degree`` is d, the number of root distributions; ``dropped``
    pairs each of ``DROP_REASONS`` with the distributions it dropped."""

    # multistarts: ignored, and echoed for the benchmark's fiber workload,
    # which passes and reads it.  To delete when that workload is redefined
    # (ROADMAP: a benchmark that sweeps size, width and depth).
    __slots__ = ("base", "solutions", "truncated", "degree", "dropped", "multistarts")

    def __init__(
        self, base: ParamPoint, solutions: tuple[FiberSolution, ...], truncated: bool,
        degree: int, dropped: tuple[tuple[str, int], ...], multistarts: int,
    ):
        self.base, self.solutions, self.truncated = base, solutions, truncated
        self.degree, self.dropped, self.multistarts = degree, dropped, multistarts

    def __len__(self) -> int:
        return len(self.solutions)


# a subtree at the base point: its node, its triple (strain low order,
# ascending strain list, ascending stress list), its degree d and its kids
_Subtree = namedtuple("_Subtree", "node eq degree kids")


def _index_partitions(indices: tuple[int, ...], sizes: Sequence[int]):
    if not sizes:
        yield []
        return
    for head in itertools.combinations(indices, sizes[0]):
        rest = tuple(i for i in indices if i not in head)
        for tail in _index_partitions(rest, sizes[1:]):
            yield [head] + tail


def _laguerre(coeffs: Sequence, x: complex) -> complex:
    """A root of the polynomial with ascending ``coeffs`` by Laguerre's
    method from ``x``, which converges from any start when every root is
    real (Wilkinson 1965), as the base's are.  It stops when |p(x)| is
    within 1e-15 times Horner's running error bound, or after 100 steps;
    every tenth step is cut to a fraction, which breaks a cycle.  Past
    the float range the root is nan."""
    n = len(coeffs) - 1
    try:
        for k in range(1, 101):
            b, d, f, bound = coeffs[-1], 0j, 0j, abs(coeffs[-1])
            for c in reversed(coeffs[:-1]):  # p, p' and p''/2 at x by Horner's rule
                f, d, b = x * f + d, x * d + b, x * b + c
                bound = abs(b) + abs(x) * bound
            if abs(b) <= 1e-15 * bound:  # also when p(x) is 0, so b divides below
                return x
            g = d / b
            root = cmath.sqrt((n - 1) * (n * (g * g - 2 * f / b) - g * g))
            den = max(g + root, g - root, key=abs)
            step = n / den if den else cmath.rect(1 + abs(x), k)  # p' = p'' = 0: a step off
            if not k % 10:
                step *= k * 0.0618 % 1  # (k/10) * 0.618 mod 1: no fraction repeats
            if not abs(step) > 1e-16 * abs(x):  # x stands still, or is nan
                return x
            x -= step
    except OverflowError:  # abs() of a finite complex whose modulus overflows
        return complex(math.nan, math.nan)
    return x


def _roots(coeffs: Sequence[float]) -> list[complex]:
    """The roots of the polynomial with ascending real ``coeffs``, the
    last nonzero, ascending by (real, imag).  Each is found from 0 on the
    polynomial deflated by the roots before it, then polished on the full
    one."""
    roots, rest = [], list(coeffs)
    while len(rest) > 1:
        x = _laguerre(rest, 0j)
        roots.append(_laguerre(coeffs, x))
        # rest / (z - x) by synthetic division, from the top coefficient down
        rest = list(itertools.accumulate(reversed(rest[1:]), lambda q, c: c + x * q))[::-1]
    return sorted(roots, key=lambda r: (r.real, r.imag))


def _poly_from_roots(roots: Sequence[complex]) -> list[float] | None:
    """Monic ascending real coefficient list of prod (x - root), or None
    if the roots are not conjugate closed."""
    coeffs = [1.0]
    for root in roots:
        coeffs = _poly_product(coeffs, [-root, 1.0], None)
    if max(abs(c.imag) for c in coeffs) > 1e-7 * (1.0 + max(map(abs, coeffs))):
        return None
    return [c.real for c in coeffs]


def _exchange_matrix(factors, powers, other_shapes) -> list[list[float]]:
    """A node's composition system as a ``factor_matrix``: the other side
    of the whole is sum_i (prod_{j != i} x**powers[j] * factors[j]) * X_i,
    with X_i child i's other side, of shape other_shapes[i]."""
    # prod_{j != i} is the product of the factors before i times that of
    # those after it: 3n - 2 products for n children, not n(n - 1), and
    # those by the empty product ``one`` return the other factor
    one = [1.0]
    before = [one]
    for factor in factors[:-1]:
        before.append(_poly_product(before[-1], factor, one))
    blocks, after = [], one
    for i in reversed(range(len(factors))):
        known, low = _poly_product(before[i], after, one), sum(powers) - powers[i]
        blocks.append((known, (low + len(known) - 1, low), other_shapes[i]))
        if i:
            after = _poly_product(factors[i], after, one)
    return factor_matrix(blocks[::-1])


def _solve(matrix: Sequence[Sequence], rhs: Sequence) -> list | None:
    """x with matrix x = rhs for a square ``matrix`` given as rows, by
    Gaussian elimination with partial pivoting, or None when a pivot is
    zero (what LAPACK calls singular).  ``abs`` and the field operations
    are all it asks of the entries, so floats and Fractions both work;
    float overflow runs on to inf or nan for the caller to test."""
    n = len(rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        top = rows[p]
        if not top[k]:
            return None
        rows[k], rows[p] = top, rows[k]
        for row in rows[k + 1 :]:
            f = row[k] / top[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * top[j]
    x = [0] * n
    for k in range(n - 1, -1, -1):
        row, s = rows[k], rows[k][n]
        for j in range(k + 1, n):
            s -= row[j] * x[j]
        x[k] = s / row[k]
    return x


def _base(expr: NetworkExpr, values: Sequence[float]) -> _Subtree:
    """The network's tree at the base point ``values``, in one walk: each
    subtree's triple is what ``fold_constitutive`` gives for it alone, and
    its degree the product of its children's and the multinomial of their
    root counts.  A coefficient that is 0, inf or nan raises ValueError:
    exact ones at a positive point are positive, so it left the float range."""
    cursor, unit = iter(values), [1.0]

    def walk(node: NetworkExpr) -> _Subtree:
        if isinstance(node, Leaf):
            kids, degree = [], 1
            eq = _leaf(node, next(cursor), unit)
        else:
            series = isinstance(node, Series)
            kids = [walk(child) for child in node.children]
            eq = kids[0].eq
            for kid in kids[1:]:
                eq = _step(series, eq, kid.eq, unit)
            counts = [len(kid.eq[1] if series else kid.eq[2]) - 1 for kid in kids]  # root counts
            degree = math.prod(kid.degree for kid in kids) * math.factorial(sum(counts))
            degree //= math.prod(map(math.factorial, counts))
        if not all(0 < abs(c) < math.inf for c in eq[1] + eq[2]):
            raise ValueError("the base point's equation leaves the float range, about 1e-308 to 1e308")
        return _Subtree(node, eq, degree, kids)

    return walk(expr)


def _distributions(tree: _Subtree, eps, sig, own: bool) -> Iterator:
    """Each distribution of ``tree``'s node in partition order: its
    parameter values, or the one of ``DROP_REASONS`` that dropped it.
    ``eps`` and ``sig`` are the node's strain and stress coefficients,
    ascending from each side's lowest order, up to one common scale;
    ``own`` says they are the base's, so that the first distribution
    deals each child its own roots and is the base's own."""
    if isinstance(tree.node, Leaf):  # a spring's E or a dashpot's eta, over the stress side's 1
        value = eps[0] / sig[0] if sig[0] else math.nan  # x/0 is no value
        yield [value] if 0 < value < math.inf else "non-positive"
        return
    kids, series = tree.kids, isinstance(tree.node, Series)
    # each child's two sides as (low order, ascending list)
    exchanged = [(low, e) if series else (0, s) for low, e, s in (kid.eq for kid in kids)]
    others = [(0, s) if series else (low, e) for low, e, s in (kid.eq for kid in kids)]
    sizes = [len(side) - 1 for _, side in exchanged]
    whole = eps if series else sig
    if not whole[-1]:  # no monic scale: the system divides by 0 in every distribution
        yield from itertools.repeat("singular", tree.degree)
        return
    if sum(map(bool, sizes)) < 2:  # one distribution: a child with roots takes them all
        monic = [c / whole[-1] for c in whole]
        partitions, factor = [sizes], lambda size: monic if size else [1.0]
    else:
        roots = [r for _, side in exchanged for r in _roots(side)] if own else _roots(whole)
        partitions = _index_partitions(tuple(range(len(roots))), sizes)
        factor = lambda group: _poly_from_roots([roots[i] for i in group])
    for k, groups in enumerate(partitions):
        if own and not k:
            sides = [kid.eq[1:] for kid in kids]
        else:
            factors = [factor(group) for group in groups]
            sides = _other_sides(exchanged, others, series, factors, eps, sig)
        if isinstance(sides, str):
            yield from itertools.repeat(sides, math.prod(kid.degree for kid in kids))
        else:
            yield from _product(list(zip(kids, sides)), own and not k)


def _other_sides(exchanged, others, series: bool, factors, eps, sig) -> list | str:
    """Each child's (strain, stress) when the children's ``exchanged``
    sides are the monic ``factors``, their ``others`` solved from the
    node's square composition system; or why there are none."""
    if any(factor is None for factor in factors):
        return "split-pair"
    shapes = [(low + len(side) - 1, low) for low, side in others]
    matrix = _exchange_matrix(factors, [low for low, _ in exchanged], shapes)
    whole, other = (eps, sig) if series else (sig, eps)
    if (len(matrix), len(matrix[0])) != (len(other), len(other)):
        raise InvariantViolation(
            f"root exchange system of shape {len(matrix)}x{len(matrix[0])}"
            f" for {len(other)} coefficients"
        )
    # the rows run from the whole's other side's highest order down; at a
    # series node that side is shifted by x**K, the factors' common power.
    # _distributions has checked that whole[-1] is not 0
    solution = _solve(matrix, [c / whole[-1] for c in reversed(other)])
    if solution is None or not all(map(math.isfinite, solution)):  # overflow: numerically singular
        return "singular"
    flat = iter(solution)  # each child's unknowns in turn, highest order first
    parts = [list(itertools.islice(flat, len(side)))[::-1] for _, side in others]
    return [(f, x) if series else (x, f) for f, x in zip(factors, parts)]


def _product(children: list, own: bool) -> Iterator:
    """The distributions of the ``children``, (subtree, (strain, stress))
    pairs, combined in lexicographic order, the first child's slowest:
    the concatenated values, or the first reason that dropped a part.
    Each later child's distributions are listed anew for every
    combination before it, so nothing is listed that the caller does not
    take."""
    if not children:
        yield []
        return
    (tree, (eps, sig)), rest = children[0], children[1:]
    for head in _distributions(tree, eps, sig, own):
        if isinstance(head, str):
            yield from itertools.repeat(head, math.prod(kid.degree for kid, _ in rest))
            continue
        for tail in _product(rest, own):
            yield tail if isinstance(tail, str) else head + tail


def _normalized(eq) -> list[float]:
    return [num / den for num, den in coefficient_map(eq)]


def fiber_solutions(
    expr: NetworkExpr,
    base: ParamPoint | None = None,
    multistarts: int = 0,  # ignored, echoed: see FiberReport's slots
    seed: int = 0,
) -> FiberReport:
    """The preimages of c(base) under the coefficient map, by recursive
    inversion (see the module docstring).

    The network must be locally identifiable (finite fiber).  ``seed``
    picks the base point when ``base`` is None.  The report lists the
    base, then each later distribution's point that verifies, in
    partition order, over the first ``_MAX_SOLUTIONS`` of the d
    distributions.  It raises ``InvariantViolation`` when d = 1 and
    ``analyze``'s constructibility disagree, and ``ValueError`` when a
    value or a coefficient of the base's float fold leaves the float
    range.
    """
    verdict = analyze(expr)
    if not verdict.locally_identifiable:
        raise ValueError("fiber enumeration requires a locally identifiable network")
    n = verdict.param_count
    if base is None:
        base = sample_point(n, seed)
    if len(base.values) != n:
        raise ValueError(f"base point has {len(base.values)} values, expected {n}")
    try:
        values = [float(v) for v in base.values]
    except OverflowError:  # a value past the float range: inf, which _base refuses
        values = [math.inf] * n
    tree = _base(expr, values)
    if (tree.degree == 1) != verdict.constructible:
        raise InvariantViolation(
            f"fiber degree {tree.degree} but constructible is {verdict.constructible}"
        )

    solutions = [FiberSolution(tuple(values), "base")]
    dropped = Counter()
    if tree.degree > 1:
        target = _normalized(_equation(*tree.eq))
        stream = _distributions(tree, *tree.eq[1:], True)
        next(stream)  # the base's own, listed with its exact values
        for point in itertools.islice(stream, min(tree.degree, _MAX_SOLUTIONS) - 1):
            if isinstance(point, str):
                dropped[point] += 1
                continue
            try:
                got = _normalized(fold_constitutive(expr, point, 1.0))
            except InvariantViolation:  # an end coefficient underflowed to 0: no equation
                got = None
            if got and all(abs(g - t) <= _FIBER_TOL * (1.0 + abs(t)) for g, t in zip(got, target)):
                solutions.append(FiberSolution(tuple(point), "root-exchange"))
            else:
                dropped["failed-check"] += 1
    return FiberReport(
        base=base,
        solutions=tuple(solutions),
        truncated=tree.degree > _MAX_SOLUTIONS,
        degree=tree.degree,
        dropped=tuple((reason, dropped[reason]) for reason in DROP_REASONS),
        multistarts=multistarts,
    )
