"""Identifiability verdicts and the shape-factorization linear algebra.

Local identifiability of a network is a counting criterion: the number
of parameters must equal the number of non-monic coefficients of its
constitutive equation.  The type algebra of ``nettypes`` decides the
same question by table lookup; ``analyze`` computes both routes and
insists they agree.

Global identifiability adds a structural criterion: the network must be
buildable by attaching one basic element (spring or dashpot) at a time
at the bounding nodes.  On the flattened tree this is exactly "every
internal node has at most one internal child".

The linear-algebra layer answers why the counting criterion works: when
a composition step is written as f = L1*L3, g = L1*L4 + L2*L3, the
unknown pair (L4, L2) solves a banded linear system whose matrix is
square precisely when parameters and non-monic coefficients balance,
and a square such matrix is generically invertible because it hides a
Sylvester matrix of L1 and L3 between two triangular blocks.  At
balanced shapes the blocks are empty: ``sylvester`` is a factor matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .network import Leaf, NetworkExpr, params
from .nettypes import NetType, TraceStep, classify, type_trace
from .opalg import ConstitutiveEq, InvariantViolation, Rat, Shape, fold_constitutive

Quadruple = tuple[Shape, Shape, Shape, Shape]
_MODULUS = 2**61 - 1  # a Mersenne prime, for ``exact_rank``


class GlobalStatus(str, Enum):
    GLOBAL = "global"
    LOCAL_ONLY = "local-only"
    UNIDENTIFIABLE = "unidentifiable"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Verdict:
    locally_identifiable: bool
    global_status: GlobalStatus
    param_count: int
    nonmonic_count: int
    net_type: NetType
    shape_type: NetType  # shape class of the derived equation
    index: int  # highest stress order n of the derived equation
    constructible: bool
    trace: tuple[TraceStep, ...]
    # the equation at theta = 1: exact shapes, term count; derived from the
    # network like the fields above, so left out of == and hash
    ones: ConstitutiveEq = field(compare=False)


def nonmonic_count(eq: ConstitutiveEq) -> int:
    """Coefficient slots of the normalized equation minus the single pivot."""
    if eq.sig.low != 0:
        raise InvariantViolation("stress operator without constant term")
    n_eps, m_eps = eq.eps.shape
    n_sig = eq.sig.high
    return (n_eps - m_eps + 1) + (n_sig + 1) - 1


def constructible_one_at_a_time(expr: NetworkExpr) -> bool:
    """True when the network can be built by adding one element per step.

    On the flattened tree: at most one child of every internal node is
    itself internal, recursively.  Attaching a two-element branch whose
    connective matches the parent merges into the parent on flattening,
    so this check subsumes adding series dashpot-spring pairs and
    parallel spring-dashpot pairs one element at a time.
    """
    if isinstance(expr, Leaf):
        return True
    internal = [c for c in expr.children if not isinstance(c, Leaf)]
    if len(internal) > 1:
        return False
    return all(constructible_one_at_a_time(c) for c in internal)


def analyze(expr: NetworkExpr) -> Verdict:
    """Full verdict: both local routes (count and table), plus global.
    Counting reads the exact shapes from the integer pass at theta = 1,
    which the verdict keeps for the term budget (``constitutive``)."""
    n_params = len(params(expr))
    ones = fold_constitutive(expr, [1] * n_params, 1)
    n_coeffs = nonmonic_count(ones)
    net_type, trace = type_trace(expr)
    shape_type, index = classify(ones)
    local = n_params == n_coeffs
    if local != (net_type is not NetType.U):
        raise InvariantViolation(
            f"counting criterion ({n_params} params, {n_coeffs} coefficients) "
            f"disagrees with table type {net_type}"
        )
    if local and net_type is not shape_type:
        raise InvariantViolation(f"table type {net_type} disagrees with shape class {shape_type}")
    constructible = constructible_one_at_a_time(expr)
    if not local:
        status = GlobalStatus.UNIDENTIFIABLE
    elif constructible:
        status = GlobalStatus.GLOBAL
    else:
        status = GlobalStatus.LOCAL_ONLY
    return Verdict(
        locally_identifiable=local,
        global_status=status,
        param_count=n_params,
        nonmonic_count=n_coeffs,
        net_type=net_type,
        shape_type=shape_type,
        index=index,
        constructible=constructible,
        trace=trace,
        ones=ones,
    )


# ---------------------------------------------------------------------------
# exact linear algebra: one elimination over GF(p) or the rationals


def exact_det(matrix: Sequence[Sequence[Rat]]) -> Fraction:
    """Exact determinant: the signed product of the pivots of Gaussian
    elimination over the rationals, or 0 when a column has no pivot."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    rank, det = _eliminate(matrix)
    return Fraction(det) if rank == n else Fraction(0)


def exact_rank(rows: list[list[int]]) -> int:
    """Exact rank of integer rows (scale rational rows to integers first;
    a positive row scale keeps the rank).  A nonzero r x r minor mod the
    prime ``_MODULUS`` is a nonzero integer minor, so rank mod p <= rank
    <= min(rows, columns): a rank mod p at that bound is the rank, and
    only a shorter one is ranked again over the rationals."""
    if not rows:
        return 0
    bound = min(len(rows), len(rows[0]))
    return bound if _eliminate(rows, _MODULUS)[0] == bound else _eliminate(rows)[0]


def _eliminate(rows: Sequence[Sequence[Rat]], p: int = 0) -> tuple[int, Rat]:
    """Gaussian elimination over GF(p) on integer rows, or over the
    rationals when p = 0; returns the rank and the signed product of the
    pivots (mod p), which is the determinant of a square matrix of full
    rank.  Rows are replaced, never mutated.  Over GF(p) an entry is
    reduced only when a pivot or a factor reads it."""
    rows = list(rows) if p else [[Fraction(x) for x in row] for row in rows]
    rank, det = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next(
            (i for i in range(rank, len(rows)) if (rows[i][col] % p if p else rows[i][col])), None
        )
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            det = -det
        pivot = [x % p for x in rows[rank]] if p else rows[rank]
        det *= pivot[col]
        inverse = pow(pivot[col], -1, p) if p else 1 / pivot[col]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inverse % p if p else rows[i][col] * inverse
            rows[i] = [x - factor * y for x, y in zip(rows[i], pivot)]
        rank += 1
    return rank, det % p if p else det


# ---------------------------------------------------------------------------
# Sylvester matrices and resultants

CoeffVec = Sequence[Rat]  # polynomial coefficients, constant term first


def sylvester(p: CoeffVec, q: CoeffVec) -> list[list[Fraction]]:
    """Sylvester matrix of two polynomials (ascending coefficient vectors).

    For deg p = m and deg q = n the matrix is (n+m) square: n shifted
    copies of p's coefficients as columns (unknown L4 of degree n - 1),
    then m of q's (L2 of degree m - 1).  Degenerate degree-0 inputs give
    the smaller diagonal matrix whose determinant matches the convention
    res(p, c) = c**deg(p).
    """
    if not any(p) or not any(q):
        raise ValueError("sylvester matrix of a zero polynomial")
    if p[-1] == 0 or q[-1] == 0:
        raise ValueError("leading coefficient must be nonzero (trim the vector)")
    m, n = len(p) - 1, len(q) - 1
    return factor_matrix(p, Shape(m, 0), q, Shape(n, 0), Shape(m - 1, 0), Shape(n - 1, 0))


def resultant(p: CoeffVec, q: CoeffVec) -> Fraction:
    """Determinant of the Sylvester matrix; zero iff p and q share a root."""
    return exact_det(sylvester(p, q))


# ---------------------------------------------------------------------------
# the shape factorization problem


def factor_matrix(
    l1: CoeffVec,
    shape1: Shape,
    l3: CoeffVec,
    shape3: Shape,
    shape2: Shape,
    shape4: Shape,
) -> list[list[Fraction]]:
    """Coefficient matrix of the linear system for the unknown stress pair.

    Given numeric strain operators L1, L3 (tight ascending coefficient
    vectors for their shapes), the products L1*L4 + L2*L3 = g become a
    linear system in the unknown coefficients of L4 and L2.  Rows are
    monomial degrees from max(n1+n4, n2+n3) down to min(m1+m4, m2+m3);
    columns are the L4 unknowns (shifted copies of L1, highest first)
    followed by the L2 unknowns (shifted copies of L3).
    """
    n1, m1 = shape1
    n2, m2 = shape2
    n3, m3 = shape3
    n4, m4 = shape4
    if len(l1) != n1 - m1 + 1:
        raise ValueError(f"L1 vector length {len(l1)} does not fit shape {shape1}")
    if len(l3) != n3 - m3 + 1:
        raise ValueError(f"L3 vector length {len(l3)} does not fit shape {shape3}")
    l1 = [Fraction(x) for x in l1]
    l3 = [Fraction(x) for x in l3]

    def a(d: int) -> Fraction:
        return l1[d - m1] if m1 <= d <= n1 else Fraction(0)

    def c(d: int) -> Fraction:
        return l3[d - m3] if m3 <= d <= n3 else Fraction(0)

    top = max(n1 + n4, n2 + n3)
    bottom = min(m1 + m4, m2 + m3)
    degrees = range(top, bottom - 1, -1)
    columns = []
    for k in range(n4, m4 - 1, -1):
        columns.append([a(d - k) for d in degrees])
    for k in range(n2, m2 - 1, -1):
        columns.append([c(d - k) for d in degrees])
    return [[col[i] for col in columns] for i in range(top - bottom + 1)]


def factor_matrix_size(quad: Quadruple) -> tuple[int, int]:
    (n1, m1), (n2, m2), (n3, m3), (n4, m4) = quad
    rows = max(n1 + n4, n2 + n3) - min(m1 + m4, m2 + m3) + 1
    cols = (n2 - m2 + 1) + (n4 - m4 + 1)
    return rows, cols


def block_determinant(
    l1: CoeffVec, shape1: Shape, l3: CoeffVec, shape3: Shape, shape2: Shape, shape4: Shape
) -> Fraction:
    """Predicted |det| of the square factor matrix from its block form.

    Reordering columns turns the matrix into triangular blocks around a
    Sylvester matrix of the shifted L1, L3, so the determinant is, up to
    sign, (leading overhang)**e_top * (trailing overhang)**e_bot * res.
    """
    n1, m1 = shape1
    n2, m2 = shape2
    n3, m3 = shape3
    n4, m4 = shape4
    l1 = [Fraction(x) for x in l1]
    l3 = [Fraction(x) for x in l3]
    det = resultant(l1, l3)
    if n1 + n4 > n2 + n3:
        det *= l1[-1] ** (n1 + n4 - n2 - n3)
    elif n2 + n3 > n1 + n4:
        det *= l3[-1] ** (n2 + n3 - n1 - n4)
    if m1 + m4 < m2 + m3:
        det *= l1[0] ** (m2 + m3 - m1 - m4)
    elif m2 + m3 < m1 + m4:
        det *= l3[0] ** (m1 + m4 - m2 - m3)
    return abs(det)
