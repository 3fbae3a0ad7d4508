"""Independent verification of the symbolic verdicts: the rank oracle.

Local identifiability is re-decided from the rank of the Jacobian of
the coefficient map at random positive rational points k/1000, k uniform
in 1..10**6, each trial drawn as the integers k.  The rank must equal the
non-monic coefficient count, the Jacobian's row count: one row per
``coefficient_map`` entry.  The oracle certifies that full row rank step
by step, never forming the Jacobian.  A trial walks the tree as
``fold_constitutive`` does, through the kernel's own ``_leaf`` and
``_step``, with every list reduced mod the prime p = 2**61 - 1.  At each
binary step of a node's left fold it takes the two exchanged sides: the
strain lists at a series step, the stress lists at a parallel one, each
read as a polynomial from its low order.  The step is certified when both
leading coefficients are nonzero mod p and Euclid's algorithm mod p finds
the two coprime.  The trial is certified when every step is: the rank is
then full at its point, which fixes the generic rank, so the first
certified trial ends the check.  An uncertified step may be a degenerate
point (or a leading coefficient that p divides), so it only draws the
next trial.

Why a certified trial has full rank.  Each side of every sub-equation is
homogeneous in theta, so at the integers k each list is a fixed power of
1000 times its value at k/1000: neither ranks nor common roots move.
For a subtree with K coefficients c(theta) (both lists), call its *cone
map* (lam, theta) -> lam * c(theta).  Its Jacobian [c | lam Dc] has rank
K exactly when the normalized map c / pivot has rank K - 1: the
normalization's derivative is Dc projected along c.  At the root that
normalized rank is the dense Jacobian's, whose K - 1 rows are the
non-monic count.  By induction over the tree:

* a leaf's cone map (lam, v) -> (lam v, lam) has rank 2 = K;
* a step's rule Phi(A, B) is bilinear, and its children share no
  parameter, so lam_A lam_B Phi(A, B) = Phi(lam_A A, lam_B B).  When both
  children's cone maps have full rank, the composite's Jacobian has the
  image of DPhi at (A, B), so the step's cone map has rank K whenever
  DPhi has full row rank K.

The step criterion: DPhi has full row rank exactly when the resultant of
the exchanged sides A and B is nonzero.  It is the paper's Sylvester
argument.  Order DPhi's rows as the product side (A*B), then the mixed
side, and its columns as the exchanged sides, then the other two.  DPhi
is then block triangular: the product side reads only the exchanged
sides, through their Sylvester map (u, v) -> u*B + A*v, whose rank
falls short exactly when A and B share a root; the other two sides enter
only the mixed side, through the composition system of
``ident.factor_matrix``, a Sylvester matrix of A and B between
triangular blocks (``tests/helpers.py``: ``sylvester``,
``block_determinant``).  The last link is exact: a reduction mod p that
keeps both degrees maps the Sylvester determinant to its residue, so
lists coprime mod p have a nonzero resultant over the integers.

What is proved here and what is checked: the induction and the
reduction mod p are proved above; that the criterion holds at every
step, with the shapes the rules give, is the paper's argument, which
the tests check outright (``tests/test_exhaustive.py``).  At every step
of every network of up to four elements, at two grid points and four
points with values in {1, 2} each, an explicit DPhi built from
``_step`` has full row rank exactly when the exchanged sides' Sylvester
resultant is nonzero: 6,960 steps (a run up to five elements, 76,080
steps with 218 of them short, found no exception).  A sibling test
checks that the certificate equals the full rank of the dense Jacobian,
now the tests' reference in ``tests/helpers.py``, at those points on
every network of up to five.

The rank oracle is pure integer Python.  The float probe of global
identifiability, the fiber search, is the module ``fiber``.  Each CLI
command loads only what it runs: ``tables``, ``derive``, ``analyze`` and
``gen`` load neither module; ``verify`` and ``analyze --verify`` load
this one; ``fiber`` loads both.  ``import sdident`` loads neither: the
package resolves their names on first use.  No trial builds a Fraction,
so ``verify`` does not load ``fractions``; ``sample_point`` does.
"""

from __future__ import annotations

import random

from .network import Leaf, NetworkExpr, Record, Series, params
from .opalg import Rat, _leaf, _step

# The fiber search's public names resolve here as well, loading ``fiber``
# on first access: the benchmark's tracer (perfbench/tracer.py) times
# ``oracle.fiber_solutions``.  To delete when the benchmark's fiber
# workload is redefined (ROADMAP: a benchmark that sweeps size, width and
# depth), with ``multistarts``.
_FIBER_NAMES = frozenset({"FiberReport", "FiberSolution", "fiber_solutions"})


def __getattr__(name: str):
    if name not in _FIBER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import fiber

    return getattr(fiber, name)


_PRIME = 2**61 - 1  # a Mersenne prime: every certificate's lists are mod it


class ParamPoint(Record):
    """Positive exact-rational parameter values in canonical order."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Rat, ...]):
        if any(v <= 0 for v in values):
            raise ValueError("parameter values must be strictly positive")
        self.values = values


def _grid(n_params: int, seed: int) -> list[int]:
    """The numerators k, uniform in 1..10**6, of a sample point k/1000."""
    rng = random.Random(seed)
    return [rng.randint(1, 10**6) for _ in range(n_params)]


def sample_point(n_params: int, seed: int = 0) -> ParamPoint:
    """Positive rational point on the 1..10**6 grid scaled by 1/1000."""
    from fractions import Fraction

    return ParamPoint(tuple(Fraction(k, 1000) for k in _grid(n_params, seed)))


# ---------------------------------------------------------------------------
# the step certificate


def _coprime(a: list[int], b: list[int]) -> bool:
    """Whether two ascending lists mod ``_PRIME``, each with a nonzero last
    entry, share no root: Euclid's algorithm on descending copies."""
    p = _PRIME
    a, b = a[::-1], b[::-1]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:  # b's leading entry is nonzero
        inverse, span, tail = pow(b[0], -1, p), len(b), b[1:]
        for i in range(len(a) - span + 1):  # a mod b, leading terms cancelled in place
            factor = a[i] * inverse % p
            if factor:
                window = a[i + 1 : i + span]
                a[i + 1 : i + span] = [(x - factor * y) % p for x, y in zip(window, tail)]
        rest = a[len(a) - span + 1 :]
        top = next((i for i, x in enumerate(rest) if x), None)
        if top is None:  # b divides a: a common factor of positive degree
            return False
        a, b = b, rest[top:]
    return True


def _certify(expr: NetworkExpr, point: list[int]) -> tuple[int, int]:
    """The walk at positive integers ``point``: (row count K - 1, number of
    uncertified steps).  No uncertified step certifies full row rank."""
    p = _PRIME
    cursor = iter(point)
    unit = [1]  # every leaf's stress list, as in fold_constitutive
    uncertified = 0

    def walk(node: NetworkExpr) -> tuple:
        nonlocal uncertified
        if isinstance(node, Leaf):
            return _leaf(node, next(cursor) % p, unit)
        series = isinstance(node, Series)
        side = 1 if series else 2  # the exchanged sides: strain or stress
        eq = walk(node.children[0])
        for child in node.children[1:]:
            other = walk(child)
            a, b = eq[side], other[side]
            if not (a[-1] and b[-1] and _coprime(a, b)):
                uncertified += 1
            low, eps, sig = _step(series, eq, other, unit)
            eq = low, [x % p for x in eps], [x % p for x in sig]
        return eq

    _, eps, sig = walk(expr)
    return len(eps) + len(sig) - 1, uncertified


def local_ranks(expr: NetworkExpr, trials: int = 3, seed: int = 0) -> tuple[list[int], int | None]:
    """Certificate walks at up to ``trials`` sample points, trial t at
    ``sample_point(n, seed + 1000 * t)`` drawn as its grid integers: the
    uncertified step count of each trial run, and the Jacobian rank (its
    row count, the non-monic count) that the last one certified, or None
    when none did."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = len(params(expr))
    uncertified = []
    for t in range(trials):
        rows, short = _certify(expr, _grid(n, seed + 1000 * t))
        uncertified.append(short)
        if not short:
            return uncertified, rows
    return uncertified, None


def verify_local(expr: NetworkExpr, trials: int = 3, seed: int = 0) -> bool:
    """True iff a trial of ``local_ranks`` is certified: its Jacobian has
    full row rank, the non-monic coefficient count, read off the walk
    with no ``analyze``."""
    return local_ranks(expr, trials, seed)[1] is not None
