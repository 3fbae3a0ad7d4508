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

The rank oracle is pure integer/rational Python; only
``ParamPoint.as_floats`` loads numpy.  The float probe of global
identifiability, the fiber search, is the module ``fiber``.  Each CLI
command loads only what it runs: ``tables``, ``derive``, ``analyze`` and
``gen`` load neither module; ``verify`` and ``analyze --verify`` load
this one; ``fiber`` loads both, and numpy.  ``import sdident`` loads
neither: the package resolves their names on first use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ident import exact_rank
from .network import NetworkExpr, params
from .opalg import InvariantViolation, Rat, coefficient_map, fold_constitutive

# The fiber search's public names resolve here as well, loading ``fiber``
# on first access: the benchmark's tracer (perfbench/tracer.py) times
# them as ``oracle.fiber_solutions`` and ``oracle.CompiledMap``.
_FIBER_NAMES = frozenset({"CompiledMap", "FiberReport", "FiberSolution", "fiber_solutions"})


def __getattr__(name: str):
    if name not in _FIBER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import fiber

    return getattr(fiber, name)


@dataclass(frozen=True)
class ParamPoint:
    """Positive exact-rational parameter values in canonical order."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise ValueError("parameter values must be strictly positive")

    def as_floats(self):
        """The values as a numpy float array."""
        import numpy

        return numpy.array([float(v) for v in self.values])


def _grid(n_params: int, seed: int) -> list[int]:
    """The numerators k, uniform in 1..10**6, of a sample point k/1000."""
    rng = random.Random(seed)
    return [rng.randint(1, 10**6) for _ in range(n_params)]


def sample_point(n_params: int, seed: int = 0) -> ParamPoint:
    """Positive rational point on the 1..10**6 grid scaled by 1/1000."""
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


def _jacobian_rows(expr: NetworkExpr, point: Sequence[int], scale: int) -> tuple[list, list]:
    """Row-scaled exact Jacobian of the coefficient map at theta =
    point / scale (positive integers), as integer rows, each over its own
    positive denominator ``scale**degree``, with the degrees.

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
    rows = [
        [g * den.value - num.value * d for g, d in zip(partials(num), den_partials)]
        for num, _ in entries
    ]
    return rows, [num.exp + den.exp for num, _ in entries]


def _integer_point(theta: Sequence[Rat]) -> tuple[list[int], int]:
    """A positive rational point as integers over their least common
    denominator."""
    values = [Fraction(v) for v in theta]
    if any(v <= 0 for v in values):
        raise ValueError("parameter values must be strictly positive")
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def jacobian_rank(expr: NetworkExpr, theta: ParamPoint) -> int:
    """Exact rank of the coefficient-map Jacobian at a positive point,
    ranked on the integer rows (a positive row scale keeps the rank)."""
    values = theta.values if isinstance(theta, ParamPoint) else theta
    return exact_rank(_jacobian_rows(expr, *_integer_point(values))[0])


def _trial_rows(expr: NetworkExpr, trials: int, seed: int):
    """The integer Jacobian rows of each trial, lazily: trial t at
    ``sample_point(n, seed + 1000 * t)``, drawn as the grid integers it
    holds over 1000, so no Fraction is built."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = len(params(expr))
    return (_jacobian_rows(expr, _grid(n, seed + 1000 * t), 1000)[0] for t in range(trials))


def local_ranks(expr: NetworkExpr, trials: int = 3, seed: int = 0) -> list[int]:
    """Exact Jacobian ranks at the ``verify_local`` sample points, trial t
    at ``sample_point(n, seed + 1000 * t)``, one dual fold and one
    ``exact_rank`` each, up to and including the first certified trial
    (rank = row count): at most ``trials`` ranks."""
    ranks = []
    for rows in _trial_rows(expr, trials, seed):
        ranks.append(exact_rank(rows))
        if ranks[-1] == len(rows):
            break
    return ranks


def ranks_agree(ranks: Sequence[int], nonmonic_count: int) -> bool:
    """True iff the largest rank, a lower bound of the generic rank,
    equals the non-monic coefficient count.  ``analyze`` calls a network
    locally identifiable exactly when that count is the parameter count,
    so this implies full rank iff identifiable, and also pins the rank of
    an unidentifiable network."""
    return max(ranks) == nonmonic_count


def verify_local(expr: NetworkExpr, trials: int = 3, seed: int = 0) -> bool:
    """True iff the Jacobian rank equals the non-monic coefficient count
    at some sampled point (the pivot is positive at positive points, so
    the map is defined at every draw).  That count is the Jacobian's row count, so a
    trial costs one dual fold and one ``exact_rank``, and no ``analyze``
    pass at theta = 1; the first full rank certifies and ends the check."""
    return any(exact_rank(rows) == len(rows) for rows in _trial_rows(expr, trials, seed))
