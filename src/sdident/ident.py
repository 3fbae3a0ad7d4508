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
Sylvester matrix of L1 and L3 between two triangular blocks; the tests
check that argument against a reference Sylvester layer in
``tests/helpers.py``.  ``factor_matrix`` builds the system for any
number of operators, over ints, rationals or floats: the fiber search's
root exchange solves one at every exchange node.  ``fractions`` loads
only where a Fraction is built (``_rational``): the elimination over the
rationals that ``exact_rank`` falls back to when the rank mod p falls
short.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .network import Leaf, NetworkExpr, Record, params
from .nettypes import NetType, TraceStep, classify, type_trace
from .opalg import ConstitutiveEq, InvariantViolation, Rat, Shape, fold_constitutive

if TYPE_CHECKING:
    from fractions import Fraction

_MODULUS = 2**61 - 1  # a Mersenne prime, for ``exact_rank``


class GlobalStatus(str, Enum):
    GLOBAL = "global"
    LOCAL_ONLY = "local-only"
    UNIDENTIFIABLE = "unidentifiable"

    def __str__(self) -> str:
        return self.value


class Verdict(Record):
    """``shape_type`` and ``index`` are the derived equation's shape class and
    highest stress order n; ``ones``, the equation at theta = 1 (exact shapes,
    term count), is derived from the network like the rest: not in == or hash."""

    __slots__ = (
        "locally_identifiable", "global_status", "param_count", "nonmonic_count",
        "net_type", "shape_type", "index", "constructible", "trace", "ones",
    )

    def __init__(
        self, locally_identifiable: bool, global_status: GlobalStatus, param_count: int,
        nonmonic_count: int, net_type: NetType, shape_type: NetType, index: int,
        constructible: bool, trace: tuple[TraceStep, ...], ones: ConstitutiveEq,
    ):
        self.locally_identifiable, self.global_status = locally_identifiable, global_status
        self.param_count, self.nonmonic_count = param_count, nonmonic_count
        self.net_type, self.shape_type, self.index = net_type, shape_type, index
        self.constructible, self.trace, self.ones = constructible, trace, ones

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__[:-1]])  # not ones


def nonmonic_count(eq: ConstitutiveEq) -> int:
    """Coefficient slots of the normalized equation minus the single pivot
    (the stress side starts at order 0, as ``ConstitutiveEq`` checks)."""
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


def exact_rank(rows: list[list[int]]) -> int:
    """Exact rank of integer rows (scale rational rows to integers first;
    a positive row scale keeps the rank).  A nonzero r x r minor mod the
    prime ``_MODULUS`` is a nonzero integer minor, so rank mod p <= rank
    <= min(rows, columns): a rank mod p at that bound is the rank, and
    only a shorter one is ranked again over the rationals."""
    if not rows:
        return 0
    bound = min(len(rows), len(rows[0]))
    return bound if _eliminate(rows, _MODULUS) == bound else _eliminate(rows)


def _eliminate(rows: Sequence[Sequence[Rat]], p: int = 0) -> int:
    """Rank by Gaussian elimination over GF(p) on integer rows, or over
    the rationals when p = 0.  Rows are replaced, never mutated.  Over
    GF(p) an entry is reduced only when a pivot or a factor reads it."""
    rows = list(rows) if p else [_rational(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next(
            (i for i in range(rank, len(rows)) if (rows[i][col] % p if p else rows[i][col])), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = [x % p for x in rows[rank]] if p else rows[rank]
        inverse = pow(pivot[col], -1, p) if p else 1 / pivot[col]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inverse % p if p else rows[i][col] * inverse
            rows[i] = [x - factor * y for x, y in zip(rows[i], pivot)]
        rank += 1
    return rank


def _rational(vec: Sequence[Rat]) -> list[Fraction]:
    """``vec`` as Fractions; ``fractions`` loads on the exact rational path only."""
    from fractions import Fraction

    return [Fraction(x) for x in vec]


# ---------------------------------------------------------------------------
# the shape factorization problem


def factor_matrix(blocks: Sequence[tuple[Sequence[Rat], Shape, Shape]]) -> list[list]:
    """Coefficient matrix of the composition system sum_i L_i * X_i = g:
    each block is a known L_i (a tight ascending vector), its shape and
    the shape of the unknown X_i.  Rows are monomial degrees from
    max(n_i + nx_i) down to min(m_i + mx_i); columns are each block's
    unknowns, highest order first, as shifted copies of L_i.  The step
    f = L1*L3, g = L1*L4 + L2*L3 is the blocks (L1, shape1, shape4) and
    (L3, shape3, shape2).  Entries are the vectors' own elements or their
    ring's zero: ints, Fractions and floats all work."""
    for i, (vec, shape, _) in enumerate(blocks):
        if len(vec) != shape[0] - shape[1] + 1:
            raise ValueError(f"L{2 * i + 1} vector length {len(vec)} does not fit shape {shape}")
    top = max(n + nx for _, (n, _), (nx, _) in blocks)
    bottom = min(m + mx for _, (_, m), (_, mx) in blocks)
    columns = [
        (vec, n, m, k, vec[0] * 0)
        for vec, (n, m), (nx, mx) in blocks
        for k in range(nx, mx - 1, -1)
    ]
    return [
        [vec[d - k - m] if m <= d - k <= n else zero for vec, n, m, k, zero in columns]
        for d in range(top, bottom - 1, -1)
    ]
