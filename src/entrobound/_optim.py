"""Shared convex minimizer for the package's inner problems.

Every iterative subproblem (Chebyshev projection for q != 2 and both
uniform-norm constant routes) minimizes a weighted power sum
sum w |r|**e of a residual vector r, so they all go through one stage
schedule: damped Newton with smoothing continuation.  Exponents below 2
make the raw gradient non-Lipschitz at residual zeros, where
first-order methods crawl; the smoothed surrogate stays C^2 at every
stage, and Newton does not care about the resulting stiffness.

One stage loop, ``_masked_newton``, owns the smoothing schedule, the
objective and finiteness checks, the decrement test, the Armijo
backtracking, the warm-start fallback and the final non-convergence
check.  It runs a stack of independent problems of one shape, one per
row, in lockstep numpy calls: each row keeps its own stage, iteration
count, Armijo step and convergence test, and a row that has finished is
left alone.  Three forms pose their problems to it, and differ only in
their Newton direction and trial point:

- the residual form, ``minimize_power_residual``: r = b - A x over
  coefficients x, with the Hessian A^T diag(h) A;
- the constrained form, ``minimize_power_constrained``: r = g itself,
  over every g with C^T g fixed, with one Schur system
  C^T diag(1/h) C per step;
- the slice form, ``minimize_power_sliced``: r = B c over the c with
  a^T c = 1, written c = c0 + Z y with Z a basis of the null space of
  a^T, which is the residual form with A = B Z and b = -B c0, and takes
  its direction and trial point.

Each form takes a stack and returns ``(minimizers, values)``, one row or
entry per problem.  The greedy projects all its live runs in one
residual call per step, and the two uniform-norm constant routes solve
one problem per support point; those problems are small, so each would
be bound by numpy call overhead, which the stack shares out.  The
stacks run at most ``_BLOCK`` rows at a time, fewer as the unknowns
grow in the residual and slice forms, which bounds every stacked array.

The rules the loop applies (smoothed model and value, decrement test,
stall threshold, reported value) are each written once, along the last
axis, so one residual vector and a stack of residual rows share them.
A stack's sums are one matrix-vector product, which may round a row's
sum by the rows beside it in the last bit; that moves a row's steps
only where an Armijo or decrement test sits at a tie, and every greedy
run of the tests and of it1's default stacks equals its one-row pass.

A warm start skips the continuation.  The stages before the last carry
a far start across the region where the unsmoothed gradient is not
Lipschitz; a start next to the minimizer, such as the greedy's previous
coefficients plus a 0 for the new atom, has no such region to cross,
and there the first stage only pulls the iterate to the minimizer of a
blunt surrogate for the rest to walk back.  So a warm row runs the
final stage alone.  Where that stage ends above the row's decrement
target, at the stage cap or the backtracking floor (small dense
problems can stall there), or meets a non-finite objective or Newton
system, the row walks the full schedule from the same start.  Cold
solves, ``chebyshev_project``'s among them, and both uniform-norm
constant routes keep the full schedule.

Every Newton system is factored by ``cho_factor``, one stacked numpy
``cholesky`` call per step, and solved by numpy's stacked ``solve``;
each system of a stack is factored and solved as a stack of one holding
it alone would be.  Finiteness is checked where it can fail: a
non-finite objective, Newton system or decrement raises
``NonConvergenceError``, and the error names the row it arose at.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NonConvergenceError
from .spaces import _exponent

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_EPS_REL = 1e-8  # the final smoothing stage
_STAGE_ITER = 80  # Newton iterations allowed per stage
_STALL_TOL = 1e-6  # the final check's decrement tol: a solve that stalled above it raises
_BLOCK = 256  # most rows of a stack that one masked stage loop solves together
_OVERFLOW = "the objective overflowed, so the exponent is too large for the data"
_STEP_OVERFLOW = "the Newton system overflowed, so the data are too large for the exponent"


def cho_factor(H: np.ndarray) -> np.ndarray:
    """Upper Cholesky factors of a stack of matrices (a 3-D H).

    One numpy ``cholesky`` call factors the stack, and raises if any
    matrix is not positive definite.
    """
    return np.linalg.cholesky(H).swapaxes(1, 2)


def _cho_solve(U: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve U_k^T U_k z_k = rhs_k for a stack of upper factors U_k."""
    z = np.linalg.solve(U.swapaxes(1, 2), rhs[:, :, None])
    return np.linalg.solve(U, z)[:, :, 0]


def _spd_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H z = rhs for one positive semidefinite H, as a stack of one.

    An H that is singular to working precision gets a ridge of 1e-12
    times its trace instead.
    """
    try:
        return _cho_solve(cho_factor(H[None]), rhs[None])[0]
    except LinAlgError:
        H = H + (1e-12 * max(float(np.trace(H)), 1.0)) * np.eye(H.shape[0])
        return np.linalg.solve(H, rhs)


def _stack_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H_k z_k = rhs_k for a stack of positive semidefinite H_k.

    One ``cho_factor`` call factors the stack.  If any H_k is singular to
    working precision, every system goes to ``_spd_solve`` on its own, so
    that only the singular ones get its ridge and the others solve as
    they do in the stack.
    """
    try:
        U = cho_factor(H)
    except LinAlgError:
        return np.stack([_spd_solve(Hk, bk) for Hk, bk in zip(H, rhs)])
    return _cho_solve(U, rhs)


def _overflowed(H: np.ndarray) -> np.ndarray:
    """True where a stacked Newton system overflowed.

    Every system is positive semidefinite, so an overflow shows on its
    diagonal.  Each such system is replaced in place by the identity, so
    that the stack still factors; its row's decrement is then set to
    inf, which discards the step.
    """
    over = ~np.isfinite(np.trace(H, axis1=1, axis2=2))
    if over.any():
        H[over] = np.eye(H.shape[1])
    return over


def _eps_levels() -> list[float]:
    """The smoothing levels, walked down geometrically from 0.1 to ``_EPS_REL``."""
    levels = []
    eps = 0.1
    # stop short of _EPS_REL: repeated * 0.1 lands just above it (1e-8 comes
    # out as 1.0000000000000004e-08), which would run that stage twice
    while eps > 1.5 * _EPS_REL:
        levels.append(eps)
        eps *= 0.1
    levels.append(_EPS_REL)
    return levels


def _smoothed_model(r, w, e: float, e2):
    """A stage's objective sum w (r^2 + e2)^(e/2), e2 = eps^2, with its
    gradient and its diagonal curvature h in r (e2 a column on a stack)."""
    we = w * e
    s2 = r * r + e2
    base = s2 ** (e / 2.0 - 1.0)
    return (s2 * base) @ w, we * r * base, we * base * ((e - 1.0) * r * r + e2) / s2


def _smoothed_value(r, w, e: float, e2):
    """The smoothed objective alone, at a trial point or the final iterate."""
    return (r * r + e2) ** (e / 2.0) @ w


def _decrement_target(f, tol: float):
    """The decrement test's target tol (1 + |f|) at objective f."""
    return tol * (1.0 + abs(f))


def _power_sum(r, w, e: float):
    """The reported value sum w |r|^e, the unsmoothed objective."""
    return abs(r) ** e @ w


def _raise_at(bad: np.ndarray, measure: np.ndarray, rows: np.ndarray,
              iterations: np.ndarray, labels: np.ndarray, what: str, tol,
              cause: str | None) -> None:
    """Raise ``NonConvergenceError`` for the first of ``rows`` flagged ``bad``.

    ``bad``, ``measure`` and an array ``tol`` run along ``rows``;
    ``iterations`` and ``labels`` run along the whole stack, and ``what``
    names a row in the message.
    """
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        j = rows[k]
        target = tol if np.ndim(tol) == 0 else tol[k]
        where = f"at {what} {labels[j]}"
        raise NonConvergenceError(float(measure[k]), int(iterations[j]), float(target),
                                  f"{cause}, {where}" if cause else where)


def _masked_newton(direction, trial, point: np.ndarray, r: np.ndarray,
                   w: np.ndarray, e: float, scale: np.ndarray,
                   decrement_tol: float, labels: np.ndarray, what: str,
                   warm: bool) -> tuple[np.ndarray, np.ndarray]:
    """The stage loop, on a stack of problems, one per row.

    Row k of ``point`` and ``r`` is problem k's start and its residual
    there, both divided by ``scale[k]``.  Each row keeps its own stage,
    iteration count, Armijo step and decrement test, and leaves the loop
    when it finishes its last stage.  The callables act on the rows
    still running, listed in ``rows``:

    - ``direction(rows, grad, h)`` returns their Newton directions and
      decrements, with an infinite decrement where a Newton system
      overflowed;
    - ``trial(rows, point, t, d)`` returns their points t d along the
      directions, with one t per row, and the residuals there.

    When ``warm``, every row starts in the final stage.  A row that ends
    it above its decrement target, or meets a non-finite objective or
    Newton system there, goes back to its start and walks the full
    schedule, and its iteration count runs on.

    ``point`` and ``r`` are updated in place.  Returns the minimizers and
    the objective values, one row or entry per problem, in the caller's
    units.  An error names the failing row by ``what`` and its entry in
    ``labels``, and reports that row's own iteration count.
    """
    e2_levels = np.square(_eps_levels())
    n_rows = len(point)
    stage = np.full(n_rows, len(e2_levels) - 1 if warm else 0)
    steps = np.zeros(n_rows, dtype=int)  # Newton steps taken in the current stage
    iterations = np.zeros(n_rows, dtype=int)
    dec = np.zeros(n_rows)
    warm_rows = np.full(n_rows, warm)  # rows still in their warm final stage
    start = (point.copy(), r.copy()) if warm else None

    def restart(back):  # warm rows only: a cold row has no start kept
        point[back], r[back] = start[0][back], start[1][back]
        stage[back] = steps[back] = 0
        warm_rows[back] = False

    def finite(cause, rows, measure, *arrays):
        """``rows``, ``measure`` and ``arrays`` without the rows whose
        measure is not finite: the first such cold row raises, and such
        warm rows go back to their starts."""
        fine = np.isfinite(measure)
        if fine.all():
            return (rows, measure, *arrays)
        _raise_at(~fine & ~warm_rows[rows], measure, rows, iterations, labels, what,
                  decrement_tol, cause)
        restart(rows[~fine])
        return tuple(a[fine] for a in (rows, measure, *arrays))

    while (rows := np.flatnonzero(stage < len(e2_levels))).size:
        iterations[rows] += 1
        e2 = e2_levels[stage[rows]][:, None]
        f_cur, grad, h = _smoothed_model(r[rows], w, e, e2)
        rows, f_cur, e2, grad, h = finite(_OVERFLOW, rows, f_cur, e2, grad, h)
        d, dec_rows = direction(rows, grad, h)
        rows, dec_rows, e2, f_cur, d = finite(_STEP_OVERFLOW, rows, dec_rows, e2, f_cur, d)
        dec[rows] = dec_rows
        moving = dec_rows > _decrement_target(f_cur, decrement_tol)
        stepped = np.zeros(rows.size, dtype=bool)
        # Armijo backtracking, one step length per moving row
        k_moving = np.flatnonzero(moving)
        t = np.ones(k_moving.size)
        pending = np.arange(k_moving.size)
        for _ in range(_MAX_BACKTRACKS):
            if not pending.size:
                break
            k = k_moving[pending]
            point_new, r_new = trial(rows[k], point[rows[k]], t[pending], d[k])
            f_new = _smoothed_value(r_new, w, e, e2[k])
            ok = np.isfinite(f_new) & (
                f_new <= f_cur[k] - _ARMIJO_C * t[pending] * dec_rows[k])
            point[rows[k[ok]]] = point_new[ok]
            r[rows[k[ok]]] = r_new[ok]
            stepped[k[ok]] = True
            pending = pending[~ok]
            t[pending] *= 0.5
        # a converged row, or one at the float floor, ends its stage; so
        # does a row that has taken _STAGE_ITER steps in it
        steps[rows] = np.where(stepped, steps[rows] + 1, _STAGE_ITER)
        ended = steps[rows] >= _STAGE_ITER
        stage[rows[ended]] += 1
        steps[rows[ended]] = 0
        if warm:  # a warm row that ends its stage above its target starts over
            restart(rows[ended & moving & warm_rows[rows]])
    f_final = _smoothed_value(r, w, e, e2_levels[-1])
    _raise_at(dec > _decrement_target(f_final, _STALL_TOL), dec, np.arange(n_rows),
              iterations, labels, what, _decrement_target(f_final, decrement_tol), None)
    return point * scale[:, None], _power_sum(r, w, e) * scale ** e


def _blocks(rows: np.ndarray, size: int):
    """``rows`` in consecutive runs of at most ``size``."""
    return (rows[i:i + size] for i in range(0, rows.size, size))


def _residual_steps(A: np.ndarray, b: np.ndarray):
    """``_masked_newton``'s direction and trial point for r = b - A_k x.

    ``A`` holds one matrix per row and ``b`` the data, both stacks.  Each
    Newton step factors A_k^T diag(h) A_k, square in the column count.
    """
    def direction(k, grad, h):
        Ak = A[k]
        g = (grad[:, None, :] @ Ak)[:, 0]  # minus the gradient in x
        H = (Ak * h[:, :, None]).swapaxes(1, 2) @ Ak
        over = _overflowed(H)
        step = _stack_solve(H, g)
        return step, np.where(over, np.inf, np.einsum("ij,ij->i", g, step))

    def trial(k, x, t, step):
        x_new = x + t[:, None] * step
        return x_new, b[k] - (A[k] @ x_new[:, :, None])[:, :, 0]

    return direction, trial


# in every form overflow, and the nan it leaves, is handled where it arises:
# the line search rejects non-finite trial values, and a non-finite
# objective, Newton system or decrement raises
@np.errstate(over="ignore", invalid="ignore")
def minimize_power_residual(A: np.ndarray, b: np.ndarray, weights: np.ndarray,
                            exponent: float,
                            *,
                            x0: np.ndarray | None = None,
                            decrement_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row k, minimize sum_i weights_i |b_ki - (A_k x)_i|**exponent over x.

    The residual form of the stage loop: ``A`` (k x N x n) holds one
    matrix per problem and ``b`` (k x N) its data, and the unknowns are
    the coefficients x.  Each problem is solved on its data divided by
    its max |b|.  Each smoothing stage minimizes sum w (r^2 + eps^2)^(e/2)
    by damped Newton with Armijo backtracking, with eps walked down
    geometrically from 0.1 to ``_EPS_REL``.  Its Hessian in r is
    diagonal (the vector h), so each Newton step factors A^T diag(h) A,
    square in the column count n.  A block holds at most ``_BLOCK // n``
    problems, so that its stack of A holds at most ``_BLOCK`` x N
    entries.

    Without ``x0`` every problem starts at x = 0 and walks the whole
    smoothing schedule.  With ``x0`` (k x n), warm starts such as the
    greedy's previous coefficients plus a 0 for the new atom, each runs
    the final stage alone from its start.  That stage is accepted only
    if it ends on the problem's own decrement test,
    decrement <= decrement_tol * (1 + |f|).  If it ends at the stage cap
    or the backtracking floor instead, or meets a non-finite objective
    or Newton system, the full schedule runs from the same start, and an
    error reports the iterations of both runs.  On it1's default
    dictionary at p = 4 the warm start cut the greedy's Newton
    iterations from 85,590 to 34,405, with no fallback.

    Returns the minimizers and the values sum w |r|^e, one row or entry
    per problem.  A zero b, or no column, leaves x = 0.  A value is the
    true objective at the final iterate; it exceeds the true minimum by
    at most the final stage's smoothing gap sum(w) * eps^e plus half the
    final Newton decrement, both far below every tolerance consumed
    downstream.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(weights, dtype=float)
    e = _exponent("exponent", exponent, math.inf)
    n = A.shape[2]
    scale = np.abs(b).max(axis=1, initial=0.0)
    x = np.zeros((len(b), n))
    value = _power_sum(b, w, e)  # the value at x = 0
    if n == 0:
        return x, value
    for block in _blocks(np.flatnonzero(scale), max(1, _BLOCK // n)):
        bs = b[block] / scale[block, None]
        if x0 is None:
            start, r = np.zeros((block.size, n)), bs.copy()
        else:
            start = np.asarray(x0, dtype=float)[block] / scale[block, None]
            r = bs - (A[block] @ start[:, :, None])[:, :, 0]
        direction, trial = _residual_steps(A[block], bs)
        x[block], value[block] = _masked_newton(direction, trial, start, r, w, e,
                                                scale[block], decrement_tol, block, "row",
                                                x0 is not None)
    return x, value


@np.errstate(over="ignore", invalid="ignore")
def minimize_power_constrained(C: np.ndarray, starts: np.ndarray, weights: np.ndarray,
                               exponent: float, *,
                               decrement_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row g0 of ``starts``, minimize sum_i weights_i |g_i|**exponent
    over g with C^T g = C^T g0.

    The constrained form of the stage loop, one problem per start, each
    started at its feasible g0 and solved on its own under the one C;
    returns the minimizers g and the values, one row or entry per start.
    The objective is separable, so its Hessian is a diagonal h, and each
    equality-constrained Newton step (Boyd & Vandenberghe, *Convex
    Optimization*, 2004, sections 10.2 and 10.4) solves one Schur system
    S = C^T diag(1/h) C, square in the column count of C: with u the
    gradient in g, S lam = (C / h)^T u, and the step (C lam - u) / h
    leaves C^T g unchanged, so every iterate stays feasible up to
    round-off.  Every Schur system of a step comes from one product
    (1/h) @ (C outer C), with C outer C the row outer products of C.  A
    zero start needs no solve: g = 0 is feasible, and the objective
    vanishes there.
    """
    C = np.asarray(C, dtype=float)
    starts = np.asarray(starts, dtype=float)
    w = np.asarray(weights, dtype=float)
    e = _exponent("exponent", exponent, math.inf)
    d = C.shape[1]
    x = np.zeros_like(starts)
    value = np.zeros(len(starts))
    scale = np.abs(starts).max(axis=1, initial=0.0)
    CC = (C[:, :, None] * C[:, None, :]).reshape(len(C), d * d)  # row outer products

    def direction(rows, u, h):
        S = ((1.0 / h) @ CC).reshape(-1, d, d)
        over = _overflowed(S)
        lam = _stack_solve(S, (u / h) @ C)
        step = (lam @ C.T - u) / h
        return step, np.where(over, np.inf, -np.einsum("ij,ij->i", u, step))

    def trial(rows, g, t, step):
        g_new = g + t[:, None] * step
        return g_new, g_new

    for block in _blocks(np.flatnonzero(scale), _BLOCK):
        gs = starts[block] / scale[block, None]
        x[block], value[block] = _masked_newton(direction, trial, gs, gs, w, e,
                                                scale[block], decrement_tol, block, "point",
                                                False)
    return x, value


@np.errstate(over="ignore", invalid="ignore")
def minimize_power_sliced(B: np.ndarray, weights: np.ndarray, exponent: float, *,
                          decrement_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row a of B, minimize sum_i weights_i |(B c)_i|**exponent
    over c with a^T c = 1.

    The slice form of the stage loop, one problem per row of B, solved
    as a stack; B must have full column rank.  Each problem starts at
    c0 = a / |a|^2 and moves in the null space of a^T, whose basis Z
    comes from one stacked SVD of the rows; over y in c = c0 + Z y it is
    the residual form with A = B Z and b = -B c0, and takes that form's
    direction and trial point.  A = B Z is formed first, as a one-problem
    solve would form it: it is small where B's rows lie along a, whereas
    the same Hessian taken as Z^T (B^T diag(h) B) Z cancels the large
    curvature along a in round-off, which swamps the small curvature
    left at an extremal's zeros.  A block holds at most
    ``_BLOCK // (d - 1)`` rows, as the residual form's blocks do.
    Returns the minimizers c and the values, one row or entry per
    problem.  A zero row admits no c: its value is inf and its c is
    zero.  A single column leaves c = c0 as the only choice.
    """
    B = np.asarray(B, dtype=float)
    w = np.asarray(weights, dtype=float)
    e = _exponent("exponent", exponent, math.inf)
    d = B.shape[1]
    sq = np.einsum("ij,ij->i", B, B)
    x = np.zeros_like(B)
    value = np.full(len(B), math.inf)
    live = np.flatnonzero(sq)
    x[live] = B[live] / sq[live, None]
    if d == 1:
        value[live] = _power_sum(x[live] @ B.T, w, e)
        return x, value
    for block in _blocks(live, max(1, _BLOCK // (d - 1))):
        Z = np.linalg.svd(B[block, None, :])[2][:, 1:].swapaxes(1, 2)  # d x (d - 1)
        bs = -(x[block] @ B.T)
        scale = np.abs(bs).max(axis=1)
        bs /= scale[:, None]
        direction, trial = _residual_steps(B @ Z, bs)
        y, value[block] = _masked_newton(direction, trial, np.zeros((block.size, d - 1)),
                                         bs.copy(), w, e, scale, decrement_tol, block,
                                         "point", False)
        x[block] += (Z @ y[:, :, None])[:, :, 0]
    return x, value
