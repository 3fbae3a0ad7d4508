"""Fiber search: the parameter sets that share a network's equation.

Global identifiability is probed by enumerating the fiber of the
coefficient map over a base point: root exchanges between the
composition factors at every node with two or more internal children
(swapping twin branches is one such exchange), each exchange closed by
the node's square ``ident.factor_matrix`` system, and multistart damped
Newton on c(theta) = c(base).

Newton runs on ``CompiledMap``, one float stack of the coefficient map's
monomials, a run of terms per coefficient: every exponent is 0 or 1, so
the same terms give the values and the Jacobian, and no derivative
polynomial is built.  All the multistarts run as one batch (``_newton_batch``): one stacked solve per
iteration, and a backtracking line search that evaluates its step
lengths, 1 down to 2**-15, in blocks of ``_LADDER_BLOCK`` per ``value``
call.  A start stops when no length lowers its residual, and a
multistart also stops when its residual has not halved in
``_STALL_WINDOW`` iterations; the report counts both as ``stalled``.
Each start takes the same iterates it would take alone, bit for bit.
A root exchange solves each child's parameters the same way, one batch
per child with one target row per exchange, retrying failed rows from
jittered starts and without the stall window.  The multistarts draw
their starts first, so those retries cannot move them.

One cap, ``_MAX_SOLUTIONS``, bounds both the root partitions one node
tries and the points one report holds; a report cut at the cap says
``truncated``.  One budget, ``MAX_BATCH_CELLS``, bounds every batch
array: the multistart batch must fit it or the search is refused, and a
child's exchange rows are split into chunks that fit it.

This is the package's float code.  Only the ``fiber`` command imports
this module.  numpy binds on first use through ``_numpy``, so a process
that only resolves this module's names (as the benchmark's tracer does
in every CLI process it times) does not load numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Sequence

from .ident import analyze, factor_matrix
from .network import Leaf, NetworkExpr, Record, Series, leaves
from .opalg import (
    ConstitutiveEq,
    InvariantViolation,
    coefficient_map,
    constitutive,
    fold_constitutive,
)
from .oracle import ParamPoint, sample_point

np = None  # numpy, bound by _numpy() when a float path first runs


def _numpy():
    global np
    if np is None:
        import numpy

        np = numpy
    return np


# ---------------------------------------------------------------------------
# compiled float evaluation of the coefficient map


class CompiledMap:
    """Float evaluation of a derived equation's coefficient map and its
    Jacobian (positive theta only), at one point ``(n,)`` or a batch
    ``(k, n)``.

    The terms t = exp(E @ log theta), E the 0/1 exponent matrix of the
    monomial masks, form one stack in which each polynomial (the ``dim``
    numerators, then the pivot) is one run, starting at its entry of
    ``_starts``, that sums to it.  A multilinear term has dt/dtheta_i =
    t*E_i/theta_i, so the gradients are the run sums of t*E, over theta.
    Each point of a batch has its own products and sums, so a row's result
    is bitwise that of the point alone.  An empty coefficient raises
    ValueError.
    """

    def __init__(self, eq: ConstitutiveEq):
        _numpy()
        self.nparams = eq.nvars
        entries = coefficient_map(eq)
        self.dim = len(entries)
        polys = [num for num, _ in entries] + [entries[0][1]]
        if not all(polys):  # reduceat would sum an empty run as its next term
            raise ValueError("a coefficient with no terms has no run of terms to sum")
        # each polynomial's masks in ascending order, so the sums do not
        # depend on the iteration order of a frozenset
        masks = [mask for p in polys for mask in sorted(p.terms)]
        self._exps = np.array(
            [[mask >> i & 1 for i in range(self.nparams)] for mask in masks], dtype=float
        )
        self._starts = np.cumsum([0] + [len(p.terms) for p in polys[:-1]])

    def _terms(self, theta: np.ndarray) -> np.ndarray:
        """Term values, shape (..., terms): one row per point."""
        exponents = np.log(theta)[..., None, :] @ self._exps.T
        return np.exp(exponents, out=exponents)[..., 0, :]

    def value(self, theta: np.ndarray) -> np.ndarray:
        sums = np.add.reduceat(self._terms(theta), self._starts, axis=-1)
        return sums[..., : self.dim] / sums[..., self.dim, None]

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        terms = self._terms(theta)
        sums = np.add.reduceat(terms, self._starts, axis=-1)
        grads = np.add.reduceat(terms[..., None] * self._exps, self._starts, axis=-2)
        grads /= theta[..., None, :]
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

# Most float cells in one batch array: rows x _row_cells.  A 9-mode Maxwell
# bank at 200 starts (1.3e7 cells) took 10 s and 150 MB peak RSS on a
# 2-vCPU Xeon; the 14-mode bank (8.8e8 cells) would need a 6.6 GiB array.
MAX_BATCH_CELLS = 2 * 10**7


def _row_cells(dim: int, terms: int) -> int:
    """Floats one batch row may put in its largest array: the Jacobian's
    (terms, nparams) products t*E, nparams = dim on every map the search
    builds, or the line search's (_LADDER_BLOCK, terms) term values."""
    return max(dim + 1, _LADDER_BLOCK) * terms


def _newton_batch(
    cmap: CompiledMap,
    target: np.ndarray,
    starts: np.ndarray,
    *,
    stalled: np.ndarray | None = None,
) -> list[np.ndarray | None]:
    """Damped Newton on c(theta) = target from each row of ``starts``
    ``(k, n)``, all rows as one array; returns each row's converged point
    or None.  ``target`` holds one row per start, ``(k, dim)``, or one
    ``(dim,)`` vector for them all.

    A row's residual norm is max |c(theta) - target| / (1 + |target|),
    over its own target row.
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
    target = np.broadcast_to(target, (len(theta), cmap.dim))
    scale = 1.0 + np.abs(target)
    best = np.full(len(theta), np.inf)
    residual = np.zeros((len(theta), cmap.dim))
    with np.errstate(all="ignore"):
        active = np.all(theta > 0, axis=1) & np.all(np.isfinite(theta), axis=1)
        residual[active] = cmap.value(theta[active]) - target[active]
        best[active] = _norms(residual[active], scale[active])
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
        owner = positive // len(lengths)
        owner_rows = at[owner]
        cand_res = cmap.value(cand[positive]) - target[owner_rows]
        cand_norm = _norms(cand_res, scale[owner_rows])
        lowered = np.flatnonzero(cand_norm < best[owner_rows])
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


class FiberSolution(Record):
    __slots__ = ("values", "method")

    def __init__(self, values: tuple[float, ...], method: str):
        self.values, self.method = values, method  # "base" | "root-exchange" | "multistart"


class FiberReport(Record):
    """``converged`` counts the multistarts that reached ``_NEWTON_TOL``,
    ``stalled`` those a failed line search or the stall window ended."""

    __slots__ = ("base", "solutions", "truncated", "multistarts", "converged", "stalled")

    def __init__(
        self, base: ParamPoint, solutions: tuple[FiberSolution, ...], truncated: bool,
        multistarts: int, converged: int, stalled: int,
    ):
        self.base, self.solutions, self.truncated = base, solutions, truncated
        self.multistarts, self.converged, self.stalled = multistarts, converged, stalled

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


# most points one report holds, and most root partitions one node tries
_MAX_SOLUTIONS = 64
# a child's solve starts from its base values, then from jittered ones, at
# most _CHILD_ATTEMPTS starts in all
_CHILD_ATTEMPTS = 8


def _root_exchange_candidates(
    expr: NetworkExpr,
    children: list[tuple[NetworkExpr, int, int]],
    base: np.ndarray,
    rng: random.Random,
) -> list[np.ndarray]:
    """Alternative fiber points from redistributing the roots of the
    composition factors at one node among its ``children`` (each with its
    offset and size), as values of that node's parameters.  The children's
    other sides solve the node's square ``_exchange_matrix`` system; a
    partition that splits a conjugate pair or makes it singular is skipped.
    Each child's parameters for every exchange still alive are one Newton
    batch, and an exchange that fails a child is dropped.  At most
    ``_MAX_SOLUTIONS`` partitions are tried."""
    series = isinstance(expr, Series)

    # per child: the exchanged side's tight monic vector (ascending) and its
    # power of x, and the other side in that scale, highest order first
    factors, powers, others, other_shapes = [], [], [], []
    for child, start, n in children:
        eq = fold_constitutive(child, base[start : start + n].tolist(), 1.0)
        p_op, q_op = (eq.eps, eq.sig) if series else (eq.sig, eq.eps)
        lead = p_op.coeffs[-1]
        factors.append(np.array(p_op.coeffs) / lead)
        powers.append(p_op.low)
        others.append(np.array(q_op.coeffs[::-1]) / lead)
        other_shapes.append(q_op.shape)

    matrix = _exchange_matrix(factors, powers, other_shapes)
    if matrix.shape[0] != matrix.shape[1]:
        raise InvariantViolation(f"root exchange system of shape {matrix.shape} is not square")
    rhs = matrix @ np.concatenate(others)
    sizes = [len(f) - 1 for f in factors]
    all_roots = np.concatenate([np.roots(f[::-1]) for f in factors])

    # per child, one row per exchange: the child's normalized map values,
    # NaN where the pivot is zero.  The first partition is the base's own.
    targets: list[list[np.ndarray]] = [[] for _ in children]
    partitions = _index_partitions(tuple(range(len(all_roots))), sizes)
    for groups in itertools.islice(partitions, 1, 1 + _MAX_SOLUTIONS):
        new_factors = [_poly_from_roots([all_roots[i] for i in g]) for g in groups]
        if any(vec is None for vec in new_factors):
            continue
        try:
            solution = np.linalg.solve(_exchange_matrix(new_factors, powers, other_shapes), rhs)
        except np.linalg.LinAlgError:
            continue
        new_others = np.split(solution, np.cumsum([len(q) for q in others])[:-1])
        for child_rows, p_new, q_new in zip(targets, new_factors, new_others):
            eps_vec, sig_vec = (p_new[::-1], q_new) if series else (q_new, p_new[::-1])
            child_rows.append(np.concatenate([eps_vec, sig_vec[1:]]) / (sig_vec[0] or np.nan))

    points = np.tile(base, (len(targets[0]), 1))
    alive = list(range(len(points)))
    for (child, start, n), target in zip(children, map(np.array, targets)):
        if not alive:
            break
        cmap = CompiledMap(constitutive(child))
        if target.shape[1] != cmap.dim:
            raise InvariantViolation(f"{target.shape[1]} exchange values for {cmap.dim} map values")
        # rows per _newton_batch call, so that no array passes the budget
        chunk = max(1, MAX_BATCH_CELLS // _row_cells(cmap.dim, len(cmap._exps)))
        child_base = base[start : start + n]
        starts = np.tile(child_base, (len(points), 1))
        pending = alive
        for attempt in range(_CHILD_ATTEMPTS):
            if attempt:  # jitter each failed row, drawn in row order
                for row in pending:
                    jitter = [math.exp(rng.uniform(math.log(0.2), math.log(5.0))) for _ in range(n)]
                    starts[row] = child_base * np.array(jitter)
            failed = []
            for first in range(0, len(pending), chunk):
                rows = pending[first : first + chunk]
                for row, theta in zip(rows, _newton_batch(cmap, target[rows], starts[rows])):
                    if theta is None:
                        failed.append(row)
                    else:
                        points[row, start : start + n] = theta
            pending = failed
        alive = [row for row in alive if row not in pending]
    return list(points[alive])


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


def fiber_solutions(
    expr: NetworkExpr,
    base: ParamPoint | None = None,
    multistarts: int = 200,
    seed: int = 0,
) -> FiberReport:
    """All found preimages of c(base) under the coefficient map.

    The network must be locally identifiable (finite fiber).  Candidates
    come from root exchanges at every node that has two or more internal
    children (the paper's local-only criterion), verified against
    ``_FIBER_TOL``, and from multistart damped Newton, converged within
    ``_NEWTON_TOL``; duplicates within relative distance 1e-6 are merged
    and the base point is always included.  The report holds at most ``_MAX_SOLUTIONS`` points,
    the first ones found, in the order found: the base, then the root
    exchanges node by node in partition order, then the multistarts in
    start order; ``truncated`` says that a further distinct point was
    found.  The multistart starts depend only on ``seed`` and the
    parameter count.
    A search whose multistart batch would pass ``MAX_BATCH_CELLS`` raises
    ValueError before deriving anything.
    """
    if multistarts < 0:
        raise ValueError(f"multistarts must be non-negative, got {multistarts}")
    _numpy()
    verdict = analyze(expr)
    if not verdict.locally_identifiable:
        raise ValueError("fiber enumeration requires a locally identifiable network")
    n = verdict.param_count
    # every coefficient at theta = 1 is its term count
    terms = sum(verdict.ones.eps.coeffs + verdict.ones.sig.coeffs)
    cells = max(multistarts, 1) * _row_cells(n, terms)
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
    # drawn first, so the root exchange's retries cannot move them
    jitters = np.array(
        [
            [math.exp(rng.uniform(math.log(0.1), math.log(10.0))) for _ in range(n)]
            for _ in range(multistarts)
        ]
    ).reshape(-1, n)
    base_floats = np.array(base.values, dtype=float)
    target = cmap.value(base_floats)
    scale = 1.0 + np.abs(target)

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
            for sub in _root_exchange_candidates(node, slices, base_floats[start:end], rng):
                point = base_floats.copy()
                point[start:end] = sub
                exchanged.append(point)
        for child, offset, _ in slices:
            walk(child, start + offset)

    walk(expr, 0)
    # an exchanged point must be positive and map within _FIBER_TOL
    points = np.reshape(exchanged, (-1, n))
    ok = np.all(points > 0, axis=1) & np.all(np.isfinite(points), axis=1)
    ok[ok] = _norms(cmap.value(points[ok]) - target, scale) <= _FIBER_TOL
    candidates += [(p, "root-exchange") for p in points[ok]]

    # a converged start already is, within _NEWTON_TOL
    stalled = np.zeros(multistarts, dtype=bool)
    found = _newton_batch(cmap, target, base_floats * jitters, stalled=stalled)
    converged = [p for p in found if p is not None]
    candidates += [(p, "multistart") for p in converged]

    # the kept points and each one's merge radius, 1e-6 * (1 + its norm)
    kept, radii, methods = np.empty((_MAX_SOLUTIONS, n)), np.empty(_MAX_SOLUTIONS), []
    truncated = False
    for values, method in candidates:
        count = len(methods)
        gaps = kept[:count] - values
        if (np.sqrt((gaps * gaps).sum(axis=1)) <= radii[:count]).any():
            continue
        if count == _MAX_SOLUTIONS:
            truncated = True
            break
        kept[count], radii[count] = values, 1e-6 * (1.0 + np.linalg.norm(values))
        methods.append(method)
    return FiberReport(
        base=base,
        solutions=tuple(FiberSolution(tuple(map(float, v)), m) for v, m in zip(kept, methods)),
        truncated=truncated,
        multistarts=multistarts,
        converged=len(converged),
        stalled=int(stalled.sum()),
    )
