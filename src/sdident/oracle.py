"""Independent numeric verification of the symbolic verdicts.

Two oracles, deliberately separate from the table algebra:

* local identifiability is re-decided from the exact rank of the
  Jacobian of the coefficient map at random positive rational points
  k/1000, k uniform in 1..10**6, each trial drawn as the integers k (a
  forward-mode pass of integer duals, each gradient packed into one
  int, through the composition fold, then ``exact_rank``: a rank mod
  2**61 - 1, certified when full, and the rank over the rationals only
  when it falls short).  The rank must equal the non-monic coefficient
  count, which is the Jacobian's row count: one row per
  ``coefficient_map`` entry, and the fold gives the same shapes over
  every ring.  So a trial costs one fold and one rank;
* global identifiability is probed by enumerating the fiber of the
  coefficient map over a base point: root exchanges between the
  composition factors at every node with two or more internal children
  (swapping twin branches is one such exchange), and multistart damped
  Newton on c(theta) = c(base).

Newton runs on ``CompiledMap``, one float stack of the coefficient map's
monomials: every exponent is 0 or 1, so the same terms give the values
and the Jacobian, and no derivative polynomial is built.  All the
multistarts run as one batch (``_newton_batch``): one stacked solve per
iteration, and a backtracking line search that evaluates its step
lengths, 1 down to 2**-15, in blocks of ``_LADDER_BLOCK`` per ``value``
call.  A start stops when no length lowers its residual, and a
multistart also stops when its residual has not halved in
``_STALL_WINDOW`` iterations; the report counts both as ``stalled``.
Each start takes the same iterates it would take alone, bit for bit.

The exact oracle is pure integer/rational Python.  numpy serves only the
float paths (``ParamPoint.as_floats``, ``CompiledMap`` and
``fiber_solutions``); each binds it on first use through ``_numpy``, so
importing sdident, and every command but ``fiber``, never loads it.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ident import analyze, exact_rank
from .network import Leaf, NetworkExpr, Series, leaves, params
from .opalg import (
    MAX_BATCH_CELLS,
    ConstitutiveEq,
    InvariantViolation,
    Rat,
    coefficient_map,
    constitutive,
    fold_constitutive,
)

np = None  # numpy, bound by _numpy() when a float path first runs


def _numpy():
    global np
    if np is None:
        import numpy

        np = numpy
    return np


@dataclass(frozen=True)
class ParamPoint:
    """Positive exact-rational parameter values in canonical order."""

    values: tuple[Fraction, ...]
    seed: int = 0

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise ValueError("parameter values must be strictly positive")

    def as_floats(self) -> np.ndarray:
        return _numpy().array([float(v) for v in self.values])


def _grid(n_params: int, seed: int) -> list[int]:
    """The numerators k, uniform in 1..10**6, of a sample point k/1000."""
    rng = random.Random(seed)
    return [rng.randint(1, 10**6) for _ in range(n_params)]


def sample_point(n_params: int, seed: int = 0) -> ParamPoint:
    """Positive rational point on the 1..10**6 grid scaled by 1/1000."""
    return ParamPoint(tuple(Fraction(k, 1000) for k in _grid(n_params, seed)), seed)


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
    at ``sample_point(n, seed + 1000 * t)``: one dual fold and one
    ``exact_rank`` each."""
    return [exact_rank(rows) for rows in _trial_rows(expr, trials, seed)]


def ranks_agree(ranks: Sequence[int], nonmonic_count: int) -> bool:
    """True iff every rank equals the non-monic coefficient count.
    ``analyze`` calls a network locally identifiable exactly when that
    count is the parameter count, so this implies full rank iff
    identifiable, and also pins the rank of an unidentifiable network."""
    return all(rank == nonmonic_count for rank in ranks)


def verify_local(expr: NetworkExpr, trials: int = 3, seed: int = 0) -> bool:
    """True iff the Jacobian rank equals the non-monic coefficient count
    at every sampled point (the pivot is positive at positive points, so
    no draw is degenerate).  That count is the Jacobian's row count, so
    each trial costs one dual fold and one ``exact_rank``, and no
    ``analyze`` pass at theta = 1; the first short rank ends the check."""
    return all(exact_rank(rows) == len(rows) for rows in _trial_rows(expr, trials, seed))


# ---------------------------------------------------------------------------
# compiled float evaluation of the coefficient map


class CompiledMap:
    """Float evaluation of a derived equation's coefficient map and its
    Jacobian (positive theta only), at one point ``(n,)`` or a batch
    ``(k, n)``.

    One stack of terms t = exp(E @ log theta), E the 0/1 exponent matrix
    of the monomial masks, summed per polynomial (the ``dim`` numerators,
    then the pivot) by a 0/1 matrix S holding a 1 for each term in its
    polynomial's row.  A multilinear term has dt/dtheta_i = t*E_i/theta_i,
    so the gradients are ((S*t) @ E)/theta from the same terms.  Each
    point of a batch is a matrix product of its own, so a row's result
    is bitwise that of the point alone and never depends on its
    neighbours.
    """

    def __init__(self, eq: ConstitutiveEq):
        _numpy()
        self.nparams = eq.nvars
        entries = coefficient_map(eq)
        self.dim = len(entries)
        polys = [num for num, _ in entries] + [entries[0][1]]
        terms = [(row, mask) for row, p in enumerate(polys) for mask in p.terms]
        self._exps = np.array(
            [[mask >> i & 1 for i in range(self.nparams)] for _, mask in terms], dtype=float
        )
        self._sums = np.zeros((len(polys), len(terms)))
        for col, (row, _) in enumerate(terms):
            self._sums[row, col] = 1

    def _terms(self, theta: np.ndarray) -> np.ndarray:
        """Term values, shape (..., 1, terms): one row per point."""
        exponents = np.log(theta)[..., None, :] @ self._exps.T
        return np.exp(exponents, out=exponents)

    def value(self, theta: np.ndarray) -> np.ndarray:
        sums = (self._terms(theta) @ self._sums.T)[..., 0, :]
        return sums[..., : self.dim] / sums[..., self.dim, None]

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        weighted = self._sums * self._terms(theta)
        sums = weighted.sum(axis=-1)
        grads = weighted @ self._exps / theta[..., None, :]
        nums, den = sums[..., : self.dim, None], sums[..., self.dim, None, None]
        return (grads[..., : self.dim, :] * den - nums * grads[..., self.dim, None, :]) / den**2


# Newton's backtracking ladder: the step lengths 1, 1/2, ..., 2**-15, tried
# in blocks of _LADDER_BLOCK per value call; a step that needs a shorter
# length is a failed line search
_STEP_LENGTHS = tuple(2.0**-k for k in range(16))
_LADDER_BLOCK = 8
# the stall window: a multistart stops when its best norm has not fallen
# below _STALL_FACTOR times its value _STALL_WINDOW iterations earlier
_STALL_WINDOW = 20
_STALL_FACTOR = 0.5
# Newton's iteration cap and the residual norm at which a row has converged
_NEWTON_ITERATIONS = 60
_NEWTON_TOL = 1e-12
# the residual norm within which a fiber candidate verifies
_FIBER_TOL = 1e-8


def _newton_batch(
    cmap: CompiledMap,
    target: np.ndarray,
    starts: np.ndarray,
    *,
    stalled: np.ndarray | None = None,
) -> list[np.ndarray | None]:
    """Damped Newton on c(theta) = target from each row of ``starts``
    ``(k, n)``, all rows as one array; returns each row's converged point
    or None.

    A row's residual norm is max |c(theta) - target| / (1 + |target|).
    Each iteration moves every active row by its Newton step times the
    first ladder length that keeps theta positive and lowers the norm,
    so a row follows exactly the iterates it would follow alone.  A row
    stops when its norm reaches ``_NEWTON_TOL``, when its step is not
    finite, or when no length lowers the norm (a failed line search); a
    start that is not positive and finite gives None.  Diverging rows
    overflow quietly and die on their non-finite step.

    Given ``stalled``, a boolean array with one entry per start, the
    stall window applies as well: a row whose best norm has not halved
    in ``_STALL_WINDOW`` iterations stops.  Every row stopped by either
    rule is then marked True in ``stalled``.  Both rules read only the
    row's own history, so batching still changes no row's iterates.
    """
    theta = np.array(starts, dtype=float).reshape(-1, cmap.nparams)
    scale = 1.0 + np.abs(target)
    best = np.full(len(theta), np.inf)
    residual = np.zeros((len(theta), cmap.dim))
    with np.errstate(all="ignore"):
        active = np.all(theta > 0, axis=1) & np.all(np.isfinite(theta), axis=1)
        residual[active] = cmap.value(theta[active]) - target
        best[active] = _norms(residual[active], scale)
        history = [best.copy()]  # best before each iteration, for the stall window
        for _ in range(_NEWTON_ITERATIONS):
            active &= ~(best <= _NEWTON_TOL)
            rows = np.flatnonzero(active)
            if not len(rows):
                break
            step = _newton_steps(cmap.jacobian(theta[rows]), -residual[rows])
            finite = np.all(np.isfinite(step), axis=1)
            active[rows[~finite]] = False
            rows, step = rows[finite], step[finite]
            moved = _line_search(cmap, target, scale, theta, residual, best, rows, step)
            active[rows[~moved]] = False
            if stalled is None:
                continue
            stalled[rows[~moved]] = True
            history.append(best.copy())
            if len(history) > _STALL_WINDOW:
                rows = rows[moved]
                halved = best[rows] < _STALL_FACTOR * history[-1 - _STALL_WINDOW][rows]
                stuck = rows[~halved & (best[rows] > _NEWTON_TOL)]
                active[stuck] = False
                stalled[stuck] = True
    return [point if norm <= _NEWTON_TOL else None for point, norm in zip(theta, best)]


def _norms(residual: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """max |residual| / scale over the last axis; NaN if any entry is.
    Column by column: a reduction over a short last axis is slow."""
    return functools.reduce(np.maximum, np.moveaxis(np.abs(residual) / scale, -1, 0))


def _newton_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Newton steps for a stack of Jacobians, one stacked solve; on a
    singular or non-square matrix, row by row with a least-squares
    fallback.  A row whose Jacobian or residual is not finite gets a NaN
    step."""
    finite = np.all(np.isfinite(jac), axis=(1, 2)) & np.all(np.isfinite(rhs), axis=1)
    steps = np.full(rhs.shape[:1] + jac.shape[2:], np.nan)
    try:
        steps[finite] = np.linalg.solve(jac[finite], rhs[finite, :, None])[..., 0]
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(finite):
            try:
                steps[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                steps[i] = np.linalg.lstsq(jac[i], rhs[i], rcond=None)[0]
    return steps


def _line_search(cmap, target, scale, theta, residual, best, rows, step) -> np.ndarray:
    """Backtrack each of ``rows`` along its ``step``: move it, in place, to
    the first ladder length whose point is positive and lowers ``best``.
    Returns which rows moved."""
    searching = np.ones(len(rows), dtype=bool)
    for first in range(0, len(_STEP_LENGTHS), _LADDER_BLOCK):
        index = np.flatnonzero(searching)
        if not len(index):
            break
        lengths = np.array(_STEP_LENGTHS[first : first + _LADDER_BLOCK])
        at = rows[index]
        cand = theta[at, None, :] + lengths[:, None] * step[index, None, :]
        cand = cand.reshape(-1, theta.shape[1])  # each row's lengths in ladder order
        positive = np.flatnonzero(functools.reduce(np.minimum, cand.T) > 0)
        cand_res = cmap.value(cand[positive]) - target
        cand_norm = _norms(cand_res, scale)
        owner = positive // len(lengths)
        lowered = np.flatnonzero(cand_norm < best[at[owner]])
        # lowered ascends, so each row's first index is its longest good step
        hit, first_hit = np.unique(owner[lowered], return_index=True)
        pick = lowered[first_hit]
        theta[at[hit]] = cand[positive[pick]]
        residual[at[hit]] = cand_res[pick]
        best[at[hit]] = cand_norm[pick]
        searching[index[hit]] = False
    return ~searching


# ---------------------------------------------------------------------------
# fiber enumeration


@dataclass(frozen=True)
class FiberSolution:
    values: tuple[float, ...]
    method: str  # "base" | "root-exchange" | "multistart"


@dataclass(frozen=True)
class FiberReport:
    base: ParamPoint
    solutions: tuple[FiberSolution, ...]
    truncated: bool
    multistarts: int
    converged: int  # multistarts whose Newton converged to a verified point
    stalled: int  # multistarts stopped by a failed line search or the stall window

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


# root exchange at one node tries at most _EXCHANGE_PARTITIONS root
# partitions and keeps at most _EXCHANGE_CANDIDATES points
_EXCHANGE_PARTITIONS = 120
_EXCHANGE_CANDIDATES = 48


def _root_exchange_candidates(
    expr: NetworkExpr, base: np.ndarray, rng: random.Random
) -> list[np.ndarray]:
    """Alternative fiber points from redistributing the roots of the
    composition factors at one node among its children, as values of
    that node's parameters."""
    series = isinstance(expr, Series)
    children = _child_slices(expr)

    # per child: tight monic factor vector of the exchanged side, the
    # trailing derivative power, and the solved-side vector in the same
    # scale (ascending floats)
    factors, powers, others, other_lows = [], [], [], []
    for child, start, n in children:
        eq = fold_constitutive(child, base[start : start + n].tolist(), 1.0)
        p_op, q_op = (eq.eps, eq.sig) if series else (eq.sig, eq.eps)
        p_vec = np.array(p_op.coeffs)
        q_vec = np.array(q_op.coeffs)
        lead = p_vec[-1]
        factors.append(p_vec / lead)
        powers.append(p_op.low)
        others.append(q_vec / lead)
        other_lows.append(q_op.low)

    sizes = [len(f) - 1 for f in factors]
    if sum(sizes) == 0 or sum(1 for s in sizes if s > 0) < 2:
        return []

    root_sets = [np.roots(f[::-1]) if len(f) > 1 else np.array([]) for f in factors]
    all_roots = np.concatenate(root_sets)
    original = []
    cursor = 0
    for s in sizes:
        original.append(tuple(range(cursor, cursor + s)))
        cursor += s

    widths = [len(q) for q in others]
    rhs = _other_side_matrix(factors, powers, other_lows, widths) @ np.concatenate(others)

    candidates: list[np.ndarray] = []
    cmaps: dict[int, CompiledMap] = {}  # per child, built on first use
    seen = 0
    for groups in _index_partitions(tuple(range(len(all_roots))), sizes):
        if [tuple(sorted(g)) for g in groups] == [tuple(sorted(g)) for g in original]:
            continue
        seen += 1
        if seen > _EXCHANGE_PARTITIONS or len(candidates) >= _EXCHANGE_CANDIDATES:
            break
        new_factors = []
        ok = True
        for g in groups:
            vec = _poly_from_roots([all_roots[i] for i in g])
            if vec is None:
                ok = False
                break
            new_factors.append(vec)
        if not ok:
            continue
        matrix = _other_side_matrix(new_factors, powers, other_lows, widths)
        new_others = _solve_other_side(matrix, rhs, widths)
        if new_others is None:
            continue
        point = np.array(base, dtype=float)
        assembled = True
        for index, ((child, start, n), p_new, q_new) in enumerate(
            zip(children, new_factors, new_others)
        ):
            if index not in cmaps:
                cmaps[index] = CompiledMap(constitutive(child))
            theta = _solve_child(cmaps[index], p_new, q_new, series, base[start : start + n], rng)
            if theta is None:
                assembled = False
                break
            point[start : start + n] = theta
        if assembled:
            candidates.append(point)
    return candidates


def _other_side_matrix(factors, powers, other_lows, widths) -> np.ndarray:
    """The solved side is sum_i (prod_{j != i} full factor_j) * other_i:
    linear in the other-side coefficients (child i's orders other_lows[i]
    onward, widths[i] of them), one column each."""
    fulls = [np.concatenate([np.zeros(p), f]) for f, p in zip(factors, powers)]
    columns = []
    for i, (low, width) in enumerate(zip(other_lows, widths)):
        prod = np.array([1.0])
        for j, full in enumerate(fulls):
            if j != i:
                prod = np.convolve(prod, full)
        columns.extend((k, prod) for k in range(low, low + width))
    matrix = np.zeros((max(k + len(prod) for k, prod in columns), len(columns)))
    for col, (k, prod) in enumerate(columns):
        matrix[k : k + len(prod), col] = prod
    return matrix


def _solve_other_side(matrix: np.ndarray, rhs: np.ndarray, widths) -> list[np.ndarray] | None:
    """Solve the linear system for the non-exchanged operator coefficients."""
    solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    if np.max(np.abs(matrix @ solution - rhs)) > 1e-8 * (1.0 + np.max(np.abs(rhs))):
        return None
    return np.split(solution, np.cumsum(widths)[:-1])


def _solve_child(
    cmap: CompiledMap,
    p_new: np.ndarray,
    q_new: np.ndarray,
    series: bool,
    start_values: np.ndarray,
    rng: random.Random,
) -> np.ndarray | None:
    """Recover a child's parameters matching target operators (p_new,
    q_new), by Newton on the child's compiled map."""
    eps_vec, sig_vec = (
        (_pad(p_new), q_new) if series else (q_new, _pad(p_new))
    )
    pivot = sig_vec[-1]
    if pivot == 0:
        return None
    target = np.concatenate([eps_vec[::-1], sig_vec[:-1][::-1]]) / pivot
    if len(target) != cmap.dim:
        return None
    for attempt in range(8):
        if attempt == 0:
            start = np.array(start_values, dtype=float)
        else:
            jitter = np.array(
                [math.exp(rng.uniform(math.log(0.2), math.log(5.0))) for _ in start_values]
            )
            start = np.array(start_values, dtype=float) * jitter
        found = _newton_batch(cmap, target, start[None])[0]
        if found is not None:
            return found
    return None


def _pad(vec: np.ndarray) -> np.ndarray:
    return vec if len(vec) else np.array([0.0])


def fiber_solutions(
    expr: NetworkExpr,
    base: ParamPoint | None = None,
    multistarts: int = 200,
    max_solutions: int = 64,
    seed: int = 0,
) -> FiberReport:
    """All found preimages of c(base) under the coefficient map.

    The network must be locally identifiable (finite fiber).  Candidates
    come from root exchanges at every node that has two or more internal
    children (the paper's local-only criterion) and from multistart
    damped Newton, both verified against ``_FIBER_TOL``; duplicates
    within relative distance 1e-6 are merged and the base point is
    always included.  A search whose largest batch array would pass
    ``MAX_BATCH_CELLS`` raises ValueError before deriving anything.
    """
    if multistarts < 0:
        raise ValueError(f"multistarts must be non-negative, got {multistarts}")
    if max_solutions < 1:
        raise ValueError(f"max_solutions must be positive, got {max_solutions}")
    _numpy()
    verdict = analyze(expr)
    if not verdict.locally_identifiable:
        raise ValueError("fiber enumeration requires a locally identifiable network")
    n = verdict.param_count
    # the Jacobian's (rows, n + 1, terms) products and the line search's
    # (rows * _LADDER_BLOCK, 1, terms) term values
    terms = sum(verdict.ones.eps.coeffs + verdict.ones.sig.coeffs)
    cells = max(multistarts, 1) * max(n + 1, _LADDER_BLOCK) * terms
    if cells > MAX_BATCH_CELLS:
        raise ValueError(
            f"the fiber search would hold {cells} floats in one array with {multistarts}"
            f" starts, over the budget of {MAX_BATCH_CELLS}"
        )
    if base is None:
        base = sample_point(n, seed)
    if len(base.values) != n:
        raise ValueError(f"base point has {len(base.values)} values, expected {n}")

    cmap = CompiledMap(constitutive(expr, verdict.ones))
    rng = random.Random(seed)
    base_floats = base.as_floats()
    target = cmap.value(base_floats)
    scale = 1.0 + np.abs(target)

    def verified(points) -> np.ndarray:
        """Which rows of ``points`` are positive and map within
        ``_FIBER_TOL`` of the target, in one ``value`` call."""
        points = np.reshape(points, (-1, n))
        ok = np.all(points > 0, axis=1) & np.all(np.isfinite(points), axis=1)
        ok[ok] = _norms(cmap.value(points[ok]) - target, scale) <= _FIBER_TOL
        return ok

    candidates: list[tuple[np.ndarray, str]] = [(base_floats, "base")]

    # A subtree's equation enters the fold homogeneously and normalization
    # drops the scalar, so a preimage of one node's map lifts to a
    # preimage of the whole network's.
    exchanged: list[np.ndarray] = []

    def walk(node: NetworkExpr, start: int) -> None:
        if isinstance(node, Leaf):
            return
        slices = _child_slices(node)
        if sum(not isinstance(child, Leaf) for child, _, _ in slices) >= 2:
            end = start + sum(size for _, _, size in slices)
            for sub in _root_exchange_candidates(node, base_floats[start:end], rng):
                point = base_floats.copy()
                point[start:end] = sub
                exchanged.append(point)
        for child, offset, _ in slices:
            walk(child, start + offset)

    walk(expr, 0)
    candidates += [(p, "root-exchange") for p, ok in zip(exchanged, verified(exchanged)) if ok]

    jitters = np.array(
        [
            [math.exp(rng.uniform(math.log(0.1), math.log(10.0))) for _ in range(n)]
            for _ in range(multistarts)
        ]
    ).reshape(-1, n)
    stalled = np.zeros(multistarts, dtype=bool)
    found = _newton_batch(cmap, target, base_floats * jitters, stalled=stalled)
    found = [p for p in found if p is not None]
    converged = [p for p, ok in zip(found, verified(found)) if ok]
    candidates += [(p, "multistart") for p in converged]

    order = {"base": 0, "root-exchange": 1, "multistart": 2}
    candidates.sort(key=lambda item: (order[item[1]], tuple(item[0])))
    kept: list[FiberSolution] = []
    truncated = False
    for values, method in candidates:
        duplicate = False
        for existing in kept:
            prev = np.array(existing.values)
            if np.linalg.norm(values - prev) <= 1e-6 * (1.0 + np.linalg.norm(prev)):
                duplicate = True
                break
        if duplicate:
            continue
        if len(kept) >= max_solutions:
            truncated = True
            break
        kept.append(FiberSolution(tuple(float(v) for v in values), method))
    return FiberReport(
        base=base,
        solutions=tuple(kept),
        truncated=truncated,
        multistarts=multistarts,
        converged=len(converged),
        stalled=int(stalled.sum()),
    )
