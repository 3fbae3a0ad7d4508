"""The former float search for fiber points, kept as the tests'
independent reference: ``CompiledMap``, the coefficient map and its
Jacobian evaluated from the derived equation's monomials, and
``newton_batch``, batched damped Newton on c(theta) = target with a
backtracking line search and an optional stall window.
``multistart_points`` runs it from jittered starts around a base point,
so a test can check that recursive inversion lists every point Newton
converges to."""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from sdident import ConstitutiveEq, NetworkExpr, coefficient_map, constitutive

from helpers import exponents


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
        self.nparams = eq.eps.coeffs[0].nvars
        entries = coefficient_map(eq)
        self.dim = len(entries)
        polys = [num for num, _ in entries] + [entries[0][1]]
        if not all(polys):  # reduceat would sum an empty run as its next term
            raise ValueError("a coefficient with no terms has no run of terms to sum")
        # each polynomial's masks in ascending order, so the sums do not
        # depend on the iteration order of a frozenset
        masks = [mask for p in polys for mask in sorted(p.terms)]
        self._exps = np.array([exponents(self.nparams, mask) for mask in masks], dtype=float)
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


# the backtracking ladder: step lengths 1, 1/2, ..., 2**-15, tried in
# blocks of LADDER_BLOCK per value call
STEP_LENGTHS = tuple(2.0**-k for k in range(16))
LADDER_BLOCK = 8
# the stall window: a row stops when its best norm has not fallen below
# STALL_FACTOR times its value STALL_WINDOW iterations earlier
STALL_WINDOW = 20
STALL_FACTOR = 0.5
NEWTON_ITERATIONS = 60
NEWTON_TOL = 1e-12


def newton_batch(
    cmap: CompiledMap,
    target: np.ndarray,
    starts: np.ndarray,
    *,
    stalled: np.ndarray | None = None,
) -> list[np.ndarray | None]:
    """Damped Newton on c(theta) = target from each row of ``starts``
    ``(k, n)``, all rows as one array; returns each row's converged point
    (residual norm max |c - target| / (1 + |target|) at most NEWTON_TOL)
    or None.  Each iteration moves every active row by its Newton step
    times the first ladder length that keeps theta positive and lowers
    the norm, so a row follows exactly the iterates it would follow
    alone.  A row stops at NEWTON_TOL, on a step that is not finite, or
    on a failed line search; a start that is not positive and finite
    gives None.  Given ``stalled`` (one boolean per start), the stall
    window applies too, and every row stopped by either rule is marked.
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
        for _ in range(NEWTON_ITERATIONS):
            active &= ~(best <= NEWTON_TOL)
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
            if len(history) > STALL_WINDOW:
                rows = rows[moved]
                halved = best[rows] < STALL_FACTOR * history[-1 - STALL_WINDOW][rows]
                stuck = rows[~halved & (best[rows] > NEWTON_TOL)]
                active[stuck] = False
                stalled[stuck] = True
    return [point if norm <= NEWTON_TOL else None for point, norm in zip(theta, best)]


def _norms(residual: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """max |residual| / scale over the last axis; NaN if any entry is."""
    return functools.reduce(np.maximum, np.moveaxis(np.abs(residual) / scale, -1, 0))


def _newton_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Newton steps for a stack of Jacobians; on a singular matrix, row by
    row with a least-squares fallback.  A row whose Jacobian or residual
    is not finite gets a NaN step."""
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
    """Move each of ``rows``, in place, to the first ladder length along
    its ``step`` whose point is positive and lowers ``best``.  Returns
    which rows moved."""
    searching = np.ones(len(rows), dtype=bool)
    for first in range(0, len(STEP_LENGTHS), LADDER_BLOCK):
        index = np.flatnonzero(searching)
        if not len(index):
            break
        lengths = np.array(STEP_LENGTHS[first : first + LADDER_BLOCK])
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


def multistart_points(expr: NetworkExpr, base, starts: int, seed: int) -> list[np.ndarray]:
    """The points ``newton_batch`` converges to, stall window on, from
    ``starts`` starts: the base point (a sequence of floats) times a
    factor from 0.1 to 10 per parameter, log-uniform from ``seed``."""
    cmap = CompiledMap(constitutive(expr))
    rng = random.Random(seed)
    base = np.array(base, dtype=float)
    jitters = np.array(
        [
            [math.exp(rng.uniform(math.log(0.1), math.log(10.0))) for _ in base]
            for _ in range(starts)
        ]
    ).reshape(-1, len(base))
    stalled = np.zeros(starts, dtype=bool)
    found = newton_batch(cmap, cmap.value(base), base * jitters, stalled=stalled)
    return [point for point in found if point is not None]
