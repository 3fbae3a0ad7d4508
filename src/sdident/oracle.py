"""Independent exact verification of the symbolic verdicts: the rank
oracle.

Local identifiability is re-decided from the exact rank of the Jacobian
of the coefficient map at random positive rational points k/1000, k
uniform in 1..10**6, each trial drawn as the integers k (a forward-mode
pass of integer duals, each gradient packed into one int, through the
composition fold, then ``exact_rank``: a rank mod 2**61 - 1, certified
when full, and the rank over the rationals only when it falls short).
The rank must equal the non-monic coefficient count, which is the
Jacobian's row count: one row per ``coefficient_map`` entry, and the
fold gives the same shapes over every ring.  So a trial costs one fold
and one rank.  A full rank at one point fixes the generic rank: the
first trial to reach it certifies the verdict and ends the check.  A
short rank may be a degenerate point, so it only draws the next trial.

The rank oracle is pure integer/rational Python.  The float probe of
global identifiability, the fiber search, is the module ``fiber``.
Each CLI command loads only what it runs: ``tables``, ``derive``,
``analyze`` and ``gen`` load neither module; ``verify`` and ``analyze
--verify`` load this one; ``fiber`` loads both.  ``import sdident``
loads neither: the package resolves their names on first use.
A trial draws integers, so a certified ``verify`` builds no Fraction and
does not load ``fractions``; ``sample_point``, ``jacobian_rank`` and a
short rank's elimination over the rationals do.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .ident import exact_rank
from .network import NetworkExpr, Record, params
from .opalg import InvariantViolation, Rat, coefficient_map, fold_constitutive

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
# exact Jacobian rank


class _Dual:
    """A coefficient's value and gradient at a point, carried through the
    composition fold: forward-mode differentiation.  Both are integers
    over ``scale**exp`` (``scale`` clears the point's denominators, ``exp``
    is the degree), so the fold reduces no fraction; each side of an
    equation is homogeneous (its terms share units).  The gradient packs
    the partial in parameter i into bytes [width*i, width*(i+1)) of one
    int, so a product is three big-int multiplies for any parameter count.
    No slot overflows: at the integer point V = scale*theta, every
    coefficient and every partial sum the fold forms is a 0/1 multilinear
    P, so each partial scale*dP/dV_i lies in [0, scale*prod_j (1 + V_j)),
    below 2**(bit lengths of scale and of each 1 + V_j, summed): the slot
    size that ``_jacobian_rows`` rounds up to ``width`` bytes."""

    __slots__ = ("value", "grad", "exp")

    def __init__(self, value: int, grad: int, exp: int):
        self.value, self.grad, self.exp = value, grad, exp

    def __bool__(self) -> bool:
        return bool(self.value)

    def __add__(self, other: "_Dual") -> "_Dual":
        if self.exp != other.exp:
            raise InvariantViolation("sum of coefficients of different degrees")
        return _Dual(self.value + other.value, self.grad + other.grad, self.exp)

    def __mul__(self, other) -> "_Dual":
        if not isinstance(other, _Dual):  # an integer scalar
            return _Dual(self.value * other, self.grad * other, self.exp)
        a, b = self.value, other.value
        return _Dual(a * b, a * other.grad + b * self.grad, self.exp + other.exp)


def _jacobian_rows(expr: NetworkExpr, point: Sequence[int], scale: int) -> list[list[int]]:
    """Row-scaled exact Jacobian of the coefficient map at theta =
    point / scale (positive integers), as integer rows, each over its own
    positive denominator, a power of ``scale``.

    Each row of d(num/den) is multiplied by den(theta)**2, which cannot
    vanish at positive theta and does not change the rank: the row is
    d(num)*den - num*d(den), all from one pass of duals at theta.  There
    is one row per ``coefficient_map`` entry, ``nonmonic_count`` of them:
    the fold gives the same shapes over every ring.
    """
    # slot width in whole bytes, so the slots unpack by slicing bytes
    width = -(-(scale.bit_length() + sum((v + 1).bit_length() for v in point)) // 8)
    duals = [_Dual(v, scale << (8 * width * i), 1) for i, v in enumerate(point)]
    entries = coefficient_map(fold_constitutive(expr, duals, _Dual(1, 0, 0)))

    def partials(dual: _Dual) -> list[int]:
        packed = dual.grad.to_bytes(width * len(point), "little")
        slots = range(0, len(packed), width)
        return [int.from_bytes(packed[k : k + width], "little") for k in slots]

    den = entries[0][1]
    den_partials = partials(den)
    return [
        [g * den.value - num.value * d for g, d in zip(partials(num), den_partials)]
        for num, _ in entries
    ]


def _integer_point(theta: Sequence[Rat]) -> tuple[list[int], int]:
    """A positive rational point as integers over their least common
    denominator."""
    from fractions import Fraction

    values = [Fraction(v) for v in theta]
    if any(v <= 0 for v in values):
        raise ValueError("parameter values must be strictly positive")
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def jacobian_rank(expr: NetworkExpr, theta: ParamPoint) -> int:
    """Exact rank of the coefficient-map Jacobian at a positive point,
    ranked on the integer rows (a positive row scale keeps the rank)."""
    return exact_rank(_jacobian_rows(expr, *_integer_point(theta.values)))


def local_ranks(expr: NetworkExpr, trials: int = 3, seed: int = 0) -> tuple[list[int], bool]:
    """Exact Jacobian ranks at up to ``trials`` sample points, one dual
    fold and one ``exact_rank`` each, trial t at ``sample_point(n, seed +
    1000 * t)`` drawn as its grid integers over 1000; and whether the
    last is certified: its rank reached its row count, ending the trials.
    (The pivot is positive at positive points: every draw is defined.)"""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = len(params(expr))
    ranks = []
    for t in range(trials):
        rows = _jacobian_rows(expr, _grid(n, seed + 1000 * t), 1000)
        ranks.append(exact_rank(rows))
        if ranks[-1] == len(rows):
            return ranks, True
    return ranks, False


def verify_local(expr: NetworkExpr, trials: int = 3, seed: int = 0) -> bool:
    """True iff a trial of ``local_ranks`` is certified: its Jacobian rank
    equals its row count, the non-monic coefficient count, with no
    ``analyze`` pass at theta = 1."""
    return local_ranks(expr, trials, seed)[1]
