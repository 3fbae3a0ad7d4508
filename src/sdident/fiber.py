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
checks that against ``analyze``.  No symbolic equation is built: the
root counts and the base's sides come from one float fold of the
network at the base point, which records every subtree's equation.

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

Unproven step: which distributions give a positive point.  At
``sample_point`` bases every one did, on all 11,526 identifiable
networks of up to 7 elements; the modulus's real, interlacing poles and
zeros (the RC/Foster structure) are the likely reason.  It is not
true at every base: at (E1 | n2) & (E3 | n4 & (n5 | E6)) with values
spread over six decades, two of the three distributions give real
points with parameters near -1e13, dropped as non-positive, so d bounds
the positive fiber and need not equal it.  Known limit: float64
separates fiber points only to about depth 13 (a nested chain of 14
levels inverts to a wrong point whose coefficients match to 1e-15), so
a listed point is evidence, not a certificate.

This is the package's float code.  Only the ``fiber`` command imports
this module.  Its arithmetic runs on plain Python float lists: the
systems it solves are mostly 1x1 to 4x4 and its polynomials have a few
coefficients, where numpy's cost per call outweighs the arithmetic.
Products are ``opalg``'s one polynomial product, and each system is
solved by ``_solve``'s elimination with partial pivoting.  numpy serves
``np.roots`` alone.  It binds through ``_numpy`` at the entry of
``fiber_solutions``, not at the first root: a process pays its import
(about 100 ms) in its first fiber request, even one with d = 1 that
takes no roots, so a caller that warms up on a small network does not
pay it again in its first request that does.  A process that only
resolves this module's names (as the benchmark's tracer does in every
CLI process it times) does not load numpy.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterator, Sequence

from .ident import analyze, factor_matrix
from .network import Leaf, NetworkExpr, Record, Series
from .opalg import InvariantViolation, coefficient_map, fold_constitutive
from .opalg import _product as _poly_product
from .oracle import ParamPoint, sample_point

np = None  # numpy, bound by _numpy() when fiber_solutions first runs


def _numpy():
    global np
    if np is None:
        import numpy

        np = numpy
    return np


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


def _index_partitions(indices: tuple[int, ...], sizes: Sequence[int]):
    if not sizes:
        yield []
        return
    for head in itertools.combinations(indices, sizes[0]):
        rest = tuple(i for i in indices if i not in head)
        for tail in _index_partitions(rest, sizes[1:]):
            yield [head] + tail


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


def _degree(node: NetworkExpr, eqs: dict, degrees: dict) -> int:
    """``node``'s degree from the shapes of the base's subtree equations
    ``eqs``, storing each node's in ``degrees`` by its id: a leaf's is 1,
    an internal node's the product of its children's and the multinomial
    of their root counts."""
    if id(node) in degrees:  # its two places would share one recorded equation
        raise ValueError("the network holds one node object in two places")
    degree = 1
    if not isinstance(node, Leaf):
        counts = []
        for child in node.children:
            degree *= _degree(child, eqs, degrees)
            eq = eqs[id(child)]
            side = eq.eps if isinstance(node, Series) else eq.sig
            counts.append(side.high - side.low)
        degree *= math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
    degrees[id(node)] = degree
    return degree


def _distributions(eqs: dict, degrees: dict, node: NetworkExpr, eps, sig, own: bool) -> Iterator:
    """Each of ``node``'s distributions in partition order: the node's
    parameter values, or the one of ``DROP_REASONS`` that dropped it.
    ``eps`` and ``sig`` are the node's strain and stress coefficients,
    ascending from each side's lowest order, up to one common scale;
    ``own`` says they are the base's, so that the first distribution
    deals each child its own roots and is the base's own.  ``eqs`` and
    ``degrees`` are the base's, by node id."""
    if isinstance(node, Leaf):  # a spring's E or a dashpot's eta, over the stress side's 1
        value = eps[0] / sig[0] if sig[0] else math.nan  # x/0 is no value
        yield [value] if 0 < value < math.inf else "non-positive"
        return
    kids = [(child, eqs[id(child)]) for child in node.children]
    series = isinstance(node, Series)
    exchanged = [eq.eps if series else eq.sig for _, eq in kids]
    others = [eq.sig if series else eq.eps for _, eq in kids]
    sizes = [op.high - op.low for op in exchanged]
    whole = eps if series else sig
    if not whole[-1]:  # no monic scale: the system divides by 0 in every distribution
        yield from itertools.repeat("singular", degrees[id(node)])
        return
    if sum(map(bool, sizes)) < 2:  # one distribution: a child with roots takes them all
        monic = [c / whole[-1] for c in whole]
        partitions, factor = [sizes], lambda size: monic if size else [1.0]
    else:
        if own:
            roots = [r for op in exchanged for r in np.roots(op.coeffs[::-1]).tolist()]
        else:
            roots = np.roots(whole[::-1]).tolist()
        partitions = _index_partitions(tuple(range(len(roots))), sizes)
        factor = lambda group: _poly_from_roots([roots[i] for i in group])
    for k, groups in enumerate(partitions):
        if own and not k:
            sides = [(eq.eps.coeffs, eq.sig.coeffs) for _, eq in kids]
        else:
            factors = [factor(group) for group in groups]
            sides = _other_sides(exchanged, others, series, factors, eps, sig)
        if isinstance(sides, str):
            yield from itertools.repeat(sides, math.prod(degrees[id(c)] for c, _ in kids))
        else:
            children = [(child, side) for (child, _), side in zip(kids, sides)]
            yield from _product(eqs, degrees, children, own and not k)


def _other_sides(exchanged, others, series: bool, factors, eps, sig) -> list | str:
    """Each child's (strain, stress) when the children's ``exchanged``
    sides are the monic ``factors``, their ``others`` solved from the
    node's square composition system; or why there are none."""
    if any(factor is None for factor in factors):
        return "split-pair"
    matrix = _exchange_matrix(factors, [op.low for op in exchanged], [op.shape for op in others])
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
    parts = [list(itertools.islice(flat, len(op.coeffs)))[::-1] for op in others]
    return [(f, x) if series else (x, f) for f, x in zip(factors, parts)]


def _product(eqs: dict, degrees: dict, children: list, own: bool) -> Iterator:
    """The children's distributions combined in lexicographic order, the
    first child's slowest: the concatenated values, or the first reason
    that dropped a part.  Each later child's distributions are listed
    anew for every combination before it, so nothing is listed that the
    caller does not take."""
    if not children:
        yield []
        return
    (child, (eps, sig)), rest = children[0], children[1:]
    for head in _distributions(eqs, degrees, child, eps, sig, own):
        if isinstance(head, str):
            yield from itertools.repeat(head, math.prod(degrees[id(c)] for c, _ in rest))
            continue
        for tail in _product(eqs, degrees, rest, own):
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
    _numpy()
    verdict = analyze(expr)
    if not verdict.locally_identifiable:
        raise ValueError("fiber enumeration requires a locally identifiable network")
    n = verdict.param_count
    if base is None:
        base = sample_point(n, seed)
    if len(base.values) != n:
        raise ValueError(f"base point has {len(base.values)} values, expected {n}")
    eqs: dict = {}  # every subtree's equation at the base, by the node's id
    try:
        values = [float(v) for v in base.values]
        whole = fold_constitutive(expr, values, 1.0, eqs)
    except (OverflowError, InvariantViolation):  # a value overflowed, or an end coefficient is 0
        whole = None
    # exact coefficients at a positive point are positive: a float one that
    # is not has underflowed or overflowed
    sides = [eq.eps.coeffs + eq.sig.coeffs for eq in eqs.values()]
    if whole is None or not all(0 < c < math.inf for side in sides for c in side):
        raise ValueError("the base point's equation leaves the float range, about 1e-308 to 1e308")
    degrees: dict = {}
    degree = _degree(expr, eqs, degrees)
    if (degree == 1) != verdict.constructible:
        raise InvariantViolation(
            f"fiber degree {degree} but constructible is {verdict.constructible}"
        )

    solutions = [FiberSolution(tuple(values), "base")]
    dropped = Counter()
    if degree > 1:
        target = _normalized(whole)
        with np.errstate(all="ignore"):
            stream = _distributions(eqs, degrees, expr, whole.eps.coeffs, whole.sig.coeffs, True)
            next(stream)  # the base's own, listed with its exact values
            for point in itertools.islice(stream, min(degree, _MAX_SOLUTIONS) - 1):
                if isinstance(point, str):
                    dropped[point] += 1
                    continue
                got = _normalized(fold_constitutive(expr, point, 1.0))
                close = (abs(g - t) <= _FIBER_TOL * (1.0 + abs(t)) for g, t in zip(got, target))
                if len(got) == len(target) and all(close):
                    solutions.append(FiberSolution(tuple(point), "root-exchange"))
                else:
                    dropped["failed-check"] += 1
    return FiberReport(
        base=base,
        solutions=tuple(solutions),
        truncated=degree > _MAX_SOLUTIONS,
        degree=degree,
        dropped=tuple((reason, dropped[reason]) for reason in DROP_REASONS),
        multistarts=multistarts,
    )
