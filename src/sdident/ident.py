"""Identifiability verdicts and the shape-factorization linear algebra.

Local identifiability of a network is a counting criterion: the number
of parameters must equal the number of non-monic coefficients of its
constitutive equation.  The type algebra of ``nettypes`` decides the
same question by table lookup; ``analyze`` computes both routes and
insists they agree.  Counting needs the equation's shapes only, and
so does its A/B/C/D shape class: ``analyze`` reads them off one walk of
the composition kernel's degree arithmetic over list lengths
(``_shapes``), linear in the network's size, and derives nothing.  The
counting route stays independent of the type tables, which are data.

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
root exchange solves one at every exchange node.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .network import DASHPOT, Leaf, NetworkExpr, Record, Series, params
from .nettypes import NetType, TraceStep, classify, type_trace
from .opalg import InvariantViolation, Rat, Shape


class GlobalStatus(str, Enum):
    GLOBAL = "global"
    LOCAL_ONLY = "local-only"
    UNIDENTIFIABLE = "unidentifiable"

    def __str__(self) -> str:
        return self.value


class Verdict(Record):
    """``shape_type`` and ``index`` are the equation's shape class and
    highest stress order n, read off its shapes like ``nonmonic_count``."""

    __slots__ = (
        "locally_identifiable", "global_status", "param_count", "nonmonic_count",
        "net_type", "shape_type", "index", "constructible", "trace",
    )

    def __init__(
        self, locally_identifiable: bool, global_status: GlobalStatus, param_count: int,
        nonmonic_count: int, net_type: NetType, shape_type: NetType, index: int,
        constructible: bool, trace: tuple[TraceStep, ...],
    ):
        self.locally_identifiable, self.global_status = locally_identifiable, global_status
        self.param_count, self.nonmonic_count = param_count, nonmonic_count
        self.net_type, self.shape_type, self.index = net_type, shape_type, index
        self.constructible, self.trace = constructible, trace


def nonmonic_count(eps: Shape, sig: Shape) -> int:
    """Coefficient slots of an equation with these strain and stress
    shapes minus the single pivot (the stress side starts at order 0, as
    ``ConstitutiveEq`` checks)."""
    return (eps.n - eps.m + 1) + (sig.n + 1) - 1


def _shapes(expr: NetworkExpr) -> tuple[Shape, Shape]:
    """Strain and stress shapes of the constitutive equation from list
    lengths alone: ``fold_constitutive``'s walk carrying, per subtree, the
    strain low order and the lengths of its two lists, not the lists.  The
    kernel trims nothing, so in every ring its lengths are ``_step``'s: a
    product's is its factors' sum less one, and the mixed sum reaches the
    further end of its two shifted terms."""

    def walk(node: NetworkExpr) -> tuple[int, int, int]:
        if isinstance(node, Leaf):
            return (1 if node.element.kind == DASHPOT else 0), 1, 1
        series = isinstance(node, Series)
        lo1, e1, s2 = walk(node.children[0])
        for child in node.children[1:]:
            lo3, e3, s4 = walk(child)
            k = min(lo1, lo3)
            mixed = max(lo1 - k + e1 + s4, lo3 - k + s2 + e3) - 1
            if series:
                lo1, e1, s2 = lo1 + lo3 - k, e1 + e3 - 1, mixed
            else:
                lo1, e1, s2 = k, mixed, s2 + s4 - 1
        return lo1, e1, s2

    low, n_eps, n_sig = walk(expr)
    return Shape(low + n_eps - 1, low), Shape(n_sig - 1, 0)


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
    Counting and the shape class read the equation's shapes off
    ``_shapes``, a walk over list lengths: nothing is derived."""
    n_params = len(params(expr))
    eps, sig = _shapes(expr)
    n_coeffs = nonmonic_count(eps, sig)
    net_type, trace = type_trace(expr)
    shape_type, index = classify(eps, sig)
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
    )


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
