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
  child's monic factor from its roots (``_poly_from_roots``);
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
root counts and the base's sides are each child's float fold at the
base point.

The distributions are listed lazily in partition order.  The first is
the base's own at every node (each node deals its children's own roots
back to them), and is reported with the base's exact values.  Each
later one is checked against the base's normalized coefficients with
the float fold, to ``_FIBER_TOL``, and a distribution that gives no
point is counted in the report's ``dropped``, by reason: a group that
splits a complex-conjugate pair, a singular system, a point that is
not positive, or a failed check.  One cap, ``_MAX_SOLUTIONS``, bounds
both the distributions tried and the points listed; a report that
lists fewer than d points says ``truncated``.

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
this module.  numpy binds on first use through ``_numpy``, so a process
that only resolves this module's names (as the benchmark's tracer does
in every CLI process it times) does not load numpy.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterator, Sequence

from .ident import analyze, factor_matrix
from .network import Leaf, NetworkExpr, Record, Series, leaves
from .opalg import InvariantViolation, coefficient_map, fold_constitutive
from .oracle import ParamPoint, sample_point

np = None  # numpy, bound by _numpy() when a float path first runs


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


def _child_slices(expr: NetworkExpr) -> list[tuple[NetworkExpr, int, int]]:
    out = []
    cursor = 0
    for child in expr.children:  # type: ignore[union-attr]
        n = len(leaves(child))
        out.append((child, cursor, n))
        cursor += n
    return out


def _index_partitions(indices: tuple[int, ...], sizes: Sequence[int]):
    if not sizes:
        yield []
        return
    for head in itertools.combinations(indices, sizes[0]):
        rest = tuple(i for i in indices if i not in head)
        for tail in _index_partitions(rest, sizes[1:]):
            yield [head] + tail


def _poly_from_roots(roots: Sequence[complex]) -> np.ndarray | None:
    """Monic ascending real coefficient vector, or None if not conjugate
    closed."""
    coeffs = np.atleast_1d(np.poly(list(roots)))  # descending, monic
    if np.max(np.abs(coeffs.imag)) > 1e-7 * (1.0 + np.max(np.abs(coeffs))):
        return None
    return coeffs.real[::-1]


def _exchange_matrix(factors, powers, other_shapes) -> np.ndarray:
    """A node's composition system as a ``factor_matrix``: the other side
    of the whole is sum_i (prod_{j != i} x**powers[j] * factors[j]) * X_i,
    with X_i child i's other side, of shape other_shapes[i]."""
    blocks = []
    for i, shape in enumerate(other_shapes):
        known, low = np.ones(1), 0
        for j, (factor, power) in enumerate(zip(factors, powers)):
            if j != i:
                known, low = np.convolve(known, factor), low + power
        blocks.append((known, (low + len(known) - 1, low), shape))
    return np.array(factor_matrix(blocks))


def _node_table(expr: NetworkExpr, values: list[float]) -> tuple[dict, int]:
    """Each internal node's children, by the node's id, each with its
    equation folded at its slice of ``values``, and the node's degree;
    and the degree of ``expr``."""
    table: dict[int, tuple[list, int]] = {}

    def walk(node: NetworkExpr, start: int) -> int:
        if isinstance(node, Leaf):
            return 1
        kids, degree, counts = [], 1, []
        for child, offset, size in _child_slices(node):
            eq = fold_constitutive(child, values[start + offset : start + offset + size], 1.0)
            kids.append((child, eq))
            degree *= walk(child, start + offset)
            side = eq.eps if isinstance(node, Series) else eq.sig
            counts.append(side.high - side.low)
        degree *= math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
        table[id(node)] = (kids, degree)
        return degree

    return table, walk(expr, 0)


def _degree(table: dict, node: NetworkExpr) -> int:
    return 1 if isinstance(node, Leaf) else table[id(node)][1]


def _distributions(table: dict, node: NetworkExpr, eps, sig, own: bool) -> Iterator:
    """Each of ``node``'s distributions in partition order: the node's
    parameter values, or the one of ``DROP_REASONS`` that dropped it.
    ``eps`` and ``sig`` are the node's strain and stress coefficients,
    ascending from each side's lowest order, up to one common scale;
    ``own`` says they are the base's, so that the first distribution
    deals each child its own roots and is the base's own."""
    if isinstance(node, Leaf):  # a spring's E or a dashpot's eta, over the stress side's 1
        value = float(eps[0] / sig[0])
        yield [value] if 0 < value < math.inf else "non-positive"
        return
    kids, _ = table[id(node)]
    series = isinstance(node, Series)
    exchanged = [eq.eps if series else eq.sig for _, eq in kids]
    others = [eq.sig if series else eq.eps for _, eq in kids]
    if own:
        roots = np.concatenate([np.roots(op.coeffs[::-1]) for op in exchanged])
    else:
        roots = np.roots((eps if series else sig)[::-1])
    sizes = [op.high - op.low for op in exchanged]
    for k, groups in enumerate(_index_partitions(tuple(range(len(roots))), sizes)):
        if own and not k:
            sides = [(eq.eps.coeffs, eq.sig.coeffs) for _, eq in kids]
        else:
            factors = [_poly_from_roots(roots[list(group)]) for group in groups]
            sides = _other_sides(exchanged, others, series, factors, eps, sig)
        if isinstance(sides, str):
            yield from itertools.repeat(sides, math.prod(_degree(table, c) for c, _ in kids))
        else:
            children = [(child, side) for (child, _), side in zip(kids, sides)]
            yield from _product(table, children, own and not k)


def _other_sides(exchanged, others, series: bool, factors, eps, sig) -> list | str:
    """Each child's (strain, stress) when the children's ``exchanged``
    sides are the monic ``factors``, their ``others`` solved from the
    node's square composition system; or why there are none."""
    if any(factor is None for factor in factors):
        return "split-pair"
    matrix = _exchange_matrix(factors, [op.low for op in exchanged], [op.shape for op in others])
    whole, other = (eps, sig) if series else (sig, eps)
    if matrix.shape != (len(other), len(other)):
        raise InvariantViolation(
            f"root exchange system of shape {matrix.shape} for {len(other)} coefficients"
        )
    # the rows run from the whole's other side's highest order down; at a
    # series node that side is shifted by x**K, the factors' common power
    try:
        solution = np.linalg.solve(matrix, np.asarray(other[::-1]) / whole[-1])
    except np.linalg.LinAlgError:
        return "singular"
    if not np.isfinite(solution).all():  # overflowed: numerically singular
        return "singular"
    parts = np.split(solution, np.cumsum([len(op.coeffs) for op in others])[:-1])
    return [(f, x[::-1]) if series else (x[::-1], f) for f, x in zip(factors, parts)]


def _product(table: dict, children: list, own: bool) -> Iterator:
    """The children's distributions combined in lexicographic order, the
    first child's slowest: the concatenated values, or the first reason
    that dropped a part.  Each later child's distributions are listed
    anew for every combination before it, so nothing is listed that the
    caller does not take."""
    if not children:
        yield []
        return
    (child, (eps, sig)), rest = children[0], children[1:]
    for head in _distributions(table, child, eps, sig, own):
        if isinstance(head, str):
            yield from itertools.repeat(head, math.prod(_degree(table, c) for c, _ in rest))
            continue
        for tail in _product(table, rest, own):
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
    ``analyze``'s constructibility disagree.
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
    values = [float(v) for v in base.values]
    table, degree = _node_table(expr, values)
    if (degree == 1) != verdict.constructible:
        raise InvariantViolation(
            f"fiber degree {degree} but constructible is {verdict.constructible}"
        )

    solutions = [FiberSolution(tuple(values), "base")]
    dropped = Counter()
    if degree > 1:
        whole = fold_constitutive(expr, values, 1.0)
        target = _normalized(whole)
        with np.errstate(all="ignore"):
            stream = _distributions(table, expr, whole.eps.coeffs, whole.sig.coeffs, True)
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
        truncated=len(solutions) < degree,
        degree=degree,
        dropped=tuple((reason, dropped[reason]) for reason in DROP_REASONS),
        multistarts=multistarts,
    )
