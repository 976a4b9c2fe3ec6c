"""Shared convex minimizer for the package's inner problems.

Every iterative subproblem (Chebyshev projection for q != 2 and both
uniform-norm constant routes) minimizes a weighted power sum
sum w |r|**e of a residual vector r, so they all go through one stage
schedule: damped Newton with smoothing continuation.  Exponents below 2
make the raw gradient non-Lipschitz at residual zeros, where
first-order methods crawl; the smoothed surrogate stays C^2 at every
stage, and Newton does not care about the resulting stiffness.

The stage loop owns the smoothing schedule, the objective and finiteness
checks, the decrement test, the Armijo backtracking and the final
non-convergence check.  It serves three forms, which differ only in
their Newton direction and trial point:

- the residual form, ``minimize_power_residual``: r = b - A x over
  coefficients x, with the Hessian A^T diag(h) A;
- the constrained form, ``minimize_power_constrained``: r = g itself,
  over every g with C^T g fixed, with one Schur system
  C^T diag(1/h) C per step;
- the slice form, ``minimize_power_sliced``: r = B c over the c with
  a^T c = 1, written c = c0 + Z y with Z a basis of the null space of
  a^T, with the Hessian (B Z)^T diag(h) (B Z).

The loop comes in two shapes.  ``_smoothed_newton`` runs one problem;
the residual form uses it, because its caller, the greedy projection,
solves one problem at a time, each warm-started from the last.
``_masked_newton`` runs a stack of independent problems of one shape,
one per row, in lockstep numpy calls: each row keeps its own stage,
iteration count, Armijo step and convergence test, and a row that has
finished is left alone, so every row takes the steps its own serial
solve would take.  The constrained and slice forms take stacks, since
their callers, the two uniform-norm constant routes, solve one problem
per support point; those problems are small, so a serial solve is
bound by numpy call overhead, which the stack shares out.  The stacks
run at most ``_BLOCK`` rows at a time, which bounds every stacked
array.  A single problem is cheaper serial: on 200 cold greedy-shaped
solves (160 rows, 12 unknowns, exponent 4/3, a 2-vCPU x86_64 host) the
masked loop on stacks of one took 0.74-0.87 s, against 0.26-0.27 s for
``_smoothed_newton``, about 3 times as long.

A warm start skips the continuation.  The stages before the last carry
a far start across the region where the unsmoothed gradient is not
Lipschitz; a start next to the minimizer, such as the greedy's previous
coefficients plus a 0 for the new atom, has no such region to cross,
and there the first stage only pulls the iterate to the minimizer of a
blunt surrogate for the rest to walk back.  So a warm residual solve
runs the final stage alone.  Where that stage ends above the caller's
own decrement target, at the stage cap or the backtracking floor (small
dense problems can stall there), or raises, the full schedule runs from
the same start.  Cold solves, ``chebyshev_project``'s among them, and
both uniform-norm constant routes keep the full schedule.

The residual form has one exact case that runs no stage at all.  When
exactly as many rows of A are nonzero ("live") as A has columns, as on a
support of coordinate atoms, one solve of the square live block zeroes
every live residual; the other rows keep r_i = b_i whatever x is, so
that solve is the global minimum.  A singular block, or one whose solve
leaves a live residual above round-off, goes to the stage loop instead.

Every Newton system is factored by ``cho_factor``.  A single system is
factored and solved by direct LAPACK calls (``potrf``/``potrs``, looked
up once at import) rather than through scipy's checking wrappers; the
routines, triangle and operands are the ones
``scipy.linalg.cho_factor``/``cho_solve`` would use, so every iterate is
the same to the last bit.  A stack of systems is factored by one
stacked numpy ``cholesky`` call per step and solved by numpy's stacked
``solve``.  Finiteness is checked where it can fail: a non-finite
objective, Newton system or decrement raises ``NonConvergenceError``,
and on a stack the error names the row ("point") it arose at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .errors import NonConvergenceError

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_EPS_REL = 1e-8  # the final smoothing stage
_STAGE_ITER = 80  # Newton iterations allowed per stage
_EXACT_TOL = 1e-12  # live residual, in units of max |b|, that an exact solve may leave
_BLOCK = 256  # most rows of a stack that one masked stage loop solves together
_OVERFLOW = "the objective overflowed, so the exponent is too large for the data"
_STEP_OVERFLOW = "the Newton system overflowed, so the data are too large for the exponent"

_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


def cho_factor(H: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of H, as ``scipy.linalg.cho_factor(H)[0]``.

    A stack of matrices (a 3-D H) gets the upper factor of each from one
    numpy ``cholesky`` call, which raises if any matrix is not positive
    definite.
    """
    if H.ndim == 3:
        return np.linalg.cholesky(H).swapaxes(1, 2)
    c, info = _potrf(H, lower=0, overwrite_a=0, clean=0)
    if info != 0:
        raise LinAlgError(f"potrf failed with info {info}")
    return c


@dataclass
class PowerSolveResult:
    """A solve's minimizer, objective value, last decrement and stage count.

    A stacked solve gives ``x`` one row per problem and the other fields
    one entry per problem.
    """

    x: np.ndarray
    value: float | np.ndarray
    decrement: float | np.ndarray
    stages: int | np.ndarray


def _spd_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H z = rhs for a positive semidefinite H through ``cho_factor``.

    An H that is singular to working precision gets a ridge of 1e-12
    times its trace instead.
    """
    try:
        return _potrs(cho_factor(H), rhs, lower=0)[0]
    except LinAlgError:
        H = H + (1e-12 * max(float(np.trace(H)), 1.0)) * np.eye(H.shape[0])
        return np.linalg.solve(H, rhs)


def _stack_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H_k z_k = rhs_k for a stack of positive semidefinite H_k.

    One ``cho_factor`` call factors the stack.  If any H_k is singular to
    working precision, every system goes to ``_spd_solve`` on its own, so
    that only the singular ones get its ridge.
    """
    try:
        U = cho_factor(H)
    except LinAlgError:
        return np.stack([_spd_solve(Hk, bk) for Hk, bk in zip(H, rhs)])
    z = np.linalg.solve(U.swapaxes(1, 2), rhs[:, :, None])
    return np.linalg.solve(U, z)[:, :, 0]


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


def _smoothed_newton(direction, trial, point: np.ndarray, r: np.ndarray,
                     w: np.ndarray, e: float, scale: float,
                     decrement_tol: float, warm: bool = False) -> PowerSolveResult:
    """The stage loop on one problem: minimize sum w |r|**e.

    ``r`` is the residual vector at ``point``, both divided by the data
    scale.  Each smoothing stage minimizes sum w (r^2 + eps^2)^(e/2) by
    damped Newton with Armijo backtracking, with eps walked down
    geometrically from 0.1 to ``_EPS_REL``.  The form enters through two
    callables:

    - ``direction(grad, h)`` returns the Newton direction and the
      decrement squared, given the gradient of the smoothed objective in
      r and its Hessian in r, which is diagonal (the vector ``h``); an
      overflowed Newton system returns an infinite decrement;
    - ``trial(point, t, d)`` returns the point t d along the direction
      and the residual there.

    A ``warm`` start, one next to the minimizer, runs the final stage
    alone first, since it has no far region for the earlier stages to
    carry it across.  That stage is accepted only if it ends on its own
    decrement test, decrement <= decrement_tol * (1 + |f|).  If it ends
    at the stage cap or the backtracking floor instead, or raises, the
    full schedule runs from the same start; ``stages`` counts the stages
    of both runs, and an error reports the iterations of both.

    The reported value is the true objective at the final iterate; it
    exceeds the true minimum by at most the final stage's smoothing gap
    sum(w) * eps^e plus half the final Newton decrement, both far below
    every tolerance consumed downstream.
    """
    we = w * e
    half_e = e / 2.0
    base_pow = half_e - 1.0
    e_minus_1 = e - 1.0
    dec = 0.0
    stages = 0
    iterations = 0
    eps_levels = _eps_levels()
    start = point, r
    for levels in (eps_levels[-1:], eps_levels) if warm else (eps_levels,):
        point, r = start
        last = levels is eps_levels
        try:
            for eps in levels:
                stages += 1
                e2 = eps * eps
                for _ in range(_STAGE_ITER):
                    iterations += 1
                    s2 = r * r + e2
                    base = s2 ** base_pow
                    f_cur = float(w @ (s2 * base))
                    if not math.isfinite(f_cur):  # overflow: no Newton step exists
                        raise NonConvergenceError(f_cur, iterations, decrement_tol,
                                                  _OVERFLOW)
                    d, dec = direction(we * r * base,
                                       we * base * (e_minus_1 * r * r + e2) / s2)
                    if not math.isfinite(dec):
                        raise NonConvergenceError(dec, iterations, decrement_tol,
                                                  _STEP_OVERFLOW)
                    if dec <= decrement_tol * (1.0 + abs(f_cur)):
                        break
                    t = 1.0
                    for _ in range(_MAX_BACKTRACKS):
                        point_new, r_new = trial(point, t, d)
                        f_new = float(w @ (r_new * r_new + e2) ** half_e)
                        if np.isfinite(f_new) and f_new <= f_cur - _ARMIJO_C * t * dec:
                            break
                        t *= 0.5
                    else:
                        break  # float floor for this stage
                    point, r = point_new, r_new
        except NonConvergenceError:
            if last:
                raise
            continue
        # the last (dec, f_cur) failed the decrement test unless the stage
        # ended on it
        if last or dec <= decrement_tol * (1.0 + abs(f_cur)):
            break
    f_final = float(w @ (r * r + eps_levels[-1] ** 2) ** half_e)
    if dec > 1e-6 * (1.0 + abs(f_final)):
        raise NonConvergenceError(dec, iterations,
                                  decrement_tol * (1.0 + abs(f_final)))
    value = float(w @ np.abs(r) ** e) * scale ** e
    return PowerSolveResult(point * scale, value, dec, stages)


def _raise_at(bad: np.ndarray, measure: np.ndarray, rows: np.ndarray,
              iterations: np.ndarray, labels: np.ndarray, tol,
              cause: str | None) -> None:
    """Raise ``NonConvergenceError`` for the first of ``rows`` flagged ``bad``.

    ``bad``, ``measure`` and an array ``tol`` run along ``rows``;
    ``iterations`` and ``labels`` run along the whole stack.
    """
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        j = rows[k]
        target = tol if np.ndim(tol) == 0 else tol[k]
        where = f"at point {labels[j]}"
        raise NonConvergenceError(float(measure[k]), int(iterations[j]), float(target),
                                  f"{cause}, {where}" if cause else where)


def _masked_newton(direction, trial, point: np.ndarray, r: np.ndarray,
                   w: np.ndarray, e: float, scale: np.ndarray,
                   decrement_tol: float, labels: np.ndarray) -> PowerSolveResult:
    """The stage loop of ``_smoothed_newton`` on a stack of problems, one per row.

    Row k of ``point`` and ``r`` is problem k's start and its residual
    there, both divided by ``scale[k]``.  Each row keeps its own stage,
    iteration count, Armijo step and decrement test, and leaves the loop
    when it finishes its last stage; the arithmetic per row is that of
    ``_smoothed_newton``.  The callables act on the rows still running,
    listed in ``rows``:

    - ``direction(rows, grad, h)`` returns their Newton directions and
      decrements, with an infinite decrement where a Newton system
      overflowed;
    - ``trial(rows, point, t, d)`` returns their points t d along the
      directions, with one t per row, and the residuals there.

    ``point`` and ``r`` are updated in place.  An error names the
    failing row by its entry in ``labels`` and reports that row's own
    iteration count.
    """
    we = w * e
    half_e = e / 2.0
    base_pow = half_e - 1.0
    e_minus_1 = e - 1.0
    e2_levels = np.square(_eps_levels())
    n_rows = len(point)
    stage = np.zeros(n_rows, dtype=int)
    steps = np.zeros(n_rows, dtype=int)  # Newton steps taken in the current stage
    iterations = np.zeros(n_rows, dtype=int)
    dec = np.zeros(n_rows)
    rows = np.arange(n_rows)
    while rows.size:
        iterations[rows] += 1
        e2 = e2_levels[stage[rows]][:, None]
        rr = r[rows]
        s2 = rr * rr + e2
        base = s2 ** base_pow
        f_cur = (s2 * base) @ w
        _raise_at(~np.isfinite(f_cur), f_cur, rows, iterations, labels,
                  decrement_tol, _OVERFLOW)
        d, dec_rows = direction(rows, we * rr * base,
                                we * base * (e_minus_1 * rr * rr + e2) / s2)
        _raise_at(~np.isfinite(dec_rows), dec_rows, rows, iterations, labels,
                  decrement_tol, _STEP_OVERFLOW)
        dec[rows] = dec_rows
        moving = np.flatnonzero(dec_rows > decrement_tol * (1.0 + np.abs(f_cur)))
        stepped = np.zeros(rows.size, dtype=bool)
        # Armijo backtracking, one step length per moving row
        t = np.ones(moving.size)
        pending = np.arange(moving.size)
        for _ in range(_MAX_BACKTRACKS):
            if not pending.size:
                break
            k = moving[pending]
            point_new, r_new = trial(rows[k], point[rows[k]], t[pending], d[k])
            f_new = (r_new * r_new + e2[k]) ** half_e @ w
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
        ended = rows[steps[rows] >= _STAGE_ITER]
        stage[ended] += 1
        steps[ended] = 0
        rows = rows[stage[rows] < len(e2_levels)]
    f_final = (r * r + e2_levels[-1]) ** half_e @ w
    target = decrement_tol * (1.0 + np.abs(f_final))
    _raise_at(dec > 1e-6 * (1.0 + np.abs(f_final)), dec, np.arange(n_rows),
              iterations, labels, target, None)
    value = np.abs(r) ** e @ w * scale ** e
    return PowerSolveResult(point * scale[:, None], value, dec,
                            np.full(n_rows, len(e2_levels)))


def _check_exponent(exponent: float) -> float:
    e = float(exponent)
    if e <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {exponent}")
    return e


def _blocks(rows: np.ndarray, size: int):
    """``rows`` in consecutive runs of at most ``size``."""
    return (rows[i:i + size] for i in range(0, rows.size, size))


# in every form overflow is handled where it arises: the line search rejects
# non-finite trial values, and a non-finite objective, Newton system or
# decrement raises
@np.errstate(over="ignore")
def minimize_power_residual(A: np.ndarray, b: np.ndarray, weights: np.ndarray,
                            exponent: float,
                            *,
                            x0: np.ndarray | None = None,
                            decrement_tol: float = 1e-12) -> PowerSolveResult:
    """Minimize sum_i weights_i |b_i - (A x)_i|**exponent over x.

    The residual form of the shared stage loop: the unknowns are the
    coefficients x, and each Newton step factors the Hessian A^T diag(h) A,
    square in the column count of A.

    When exactly n rows of A (n its column count) have a nonzero entry,
    x solves that square block exactly instead, with ``stages = 0`` and
    ``decrement = 0.0``: every term of the sum is >= 0, the live terms
    are then 0, and the rest do not depend on x.  ``value`` is still the
    objective over all rows.  A singular block, or a live residual above
    1e-12 of max |b| after the solve, runs the stage loop.

    Without ``x0`` the stage loop starts at x = 0 and walks the whole
    smoothing schedule.  With ``x0``, a warm start such as the greedy's
    previous coefficients plus a 0 for the new atom, it runs the final
    stage alone from ``x0``, and falls back to the whole schedule from
    ``x0`` when that stage ends above ``decrement_tol * (1 + |f|)`` or
    raises; ``stages`` then counts both runs.  On it1's default
    dictionary at p = 4 this cut the greedy's Newton iterations from
    85,590 to 34,405, with no fallback.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(weights, dtype=float)
    e = _check_exponent(exponent)
    n = A.shape[1]
    scale = float(np.abs(b).max(initial=0.0))
    if n == 0 or scale == 0.0:
        x = np.zeros(n)
        r = b - A @ x
        return PowerSolveResult(x, float(w @ np.abs(r) ** e), 0.0, 0)
    bs = b / scale
    live = A.any(axis=1)
    if np.count_nonzero(live) == n:  # the exact case of the docstring
        try:
            x = np.linalg.solve(A[live], bs[live])
        except LinAlgError:
            pass
        else:
            r = bs - A @ x
            if float(np.abs(r[live]).max()) <= _EXACT_TOL:  # NaN fails too
                value = float(w @ np.abs(r) ** e) * scale ** e
                return PowerSolveResult(x * scale, value, 0.0, 0)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float) / scale

    def direction(grad, h):
        g = A.T @ grad  # minus the gradient in x
        H = (A * h[:, None]).T @ A
        if not math.isfinite(H.trace()):  # h >= 0: an overflow shows on the diagonal
            return None, math.inf
        d = _spd_solve(H, g)
        return d, float(g @ d)

    def trial(x, t, d):
        x_new = x + t * d
        return x_new, bs - A @ x_new

    return _smoothed_newton(direction, trial, x, bs - A @ x, w, e, scale,
                            decrement_tol, warm=x0 is not None)


def _overflowed(H: np.ndarray) -> np.ndarray:
    """inf where a stacked Newton system overflowed, 0 elsewhere.

    Every system is positive semidefinite, so an overflow shows on its
    diagonal.
    """
    return np.where(np.isfinite(np.trace(H, axis1=1, axis2=2)), 0.0, np.inf)


@np.errstate(over="ignore")
def minimize_power_constrained(C: np.ndarray, g0: np.ndarray, weights: np.ndarray,
                               exponent: float,
                               *,
                               decrement_tol: float = 1e-12) -> PowerSolveResult:
    """Minimize sum_i weights_i |g_i|**exponent over g with C^T g = C^T g0.

    The constrained form of the stage loop, started at the feasible g0;
    the result's ``x`` is the minimizer g.  The objective is separable,
    so its Hessian is a diagonal h, and each equality-constrained Newton
    step (Boyd & Vandenberghe, *Convex Optimization*, 2004, sections 10.2
    and 10.4) solves one Schur system S = C^T diag(1/h) C, square in the
    column count of C: with u the gradient in g, S lam = (C / h)^T u, and
    the step (C lam - u) / h leaves C^T g unchanged, so every iterate
    stays feasible up to round-off.

    ``g0`` may be a stack, one start per row, each solved on its own
    under the one C; the result then has one row or entry per start.
    Every Schur system of a step comes from one product
    (1/h) @ (C outer C), with C outer C the row outer products of C.  A
    zero start needs no solve: g = 0 is feasible, and the objective
    vanishes there.
    """
    C = np.asarray(C, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    w = np.asarray(weights, dtype=float)
    e = _check_exponent(exponent)
    starts = np.atleast_2d(g0)
    n_starts, d = len(starts), C.shape[1]
    x = np.zeros_like(starts)
    value, dec = np.zeros(n_starts), np.zeros(n_starts)
    stages = np.zeros(n_starts, dtype=int)
    scale = np.abs(starts).max(axis=1, initial=0.0)
    CC = (C[:, :, None] * C[:, None, :]).reshape(len(C), d * d)  # row outer products

    def direction(rows, u, h):
        S = ((1.0 / h) @ CC).reshape(-1, d, d)
        overflowed = _overflowed(S)
        if overflowed.any():
            return None, overflowed
        lam = _stack_solve(S, (u / h) @ C)
        step = (lam @ C.T - u) / h
        return step, -np.einsum("ij,ij->i", u, step)

    def trial(rows, g, t, step):
        g_new = g + t[:, None] * step
        return g_new, g_new

    for block in _blocks(np.flatnonzero(scale), _BLOCK):
        gs = starts[block] / scale[block, None]
        res = _masked_newton(direction, trial, gs, gs, w, e, scale[block],
                             decrement_tol, block)
        x[block], value[block], dec[block], stages[block] = (
            res.x, res.value, res.decrement, res.stages)
    if g0.ndim == 1:
        return PowerSolveResult(x[0], float(value[0]), float(dec[0]), int(stages[0]))
    return PowerSolveResult(x, value, dec, stages)


@np.errstate(over="ignore")
def minimize_power_sliced(B: np.ndarray, rows: np.ndarray, weights: np.ndarray,
                          exponent: float, *, decrement_tol: float) -> PowerSolveResult:
    """For each row a of ``rows``, minimize sum_i weights_i |(B c)_i|**exponent
    over c with a^T c = 1.

    The slice form of the stage loop, one problem per row, solved as a
    stack; B must have full column rank.  Each problem starts at
    c0 = a / |a|^2 and moves in the null space of a^T, whose basis Z
    comes from one stacked SVD of the rows; over y in c = c0 + Z y it is
    the residual form with A = B Z and b = -B c0, and each Newton step
    factors A^T diag(h) A.  A = B Z is formed first, as a serial solve
    would form it: it is small where B's rows lie along a, whereas the
    same Hessian taken as Z^T (B^T diag(h) B) Z cancels the large
    curvature along a in round-off, which swamps the small curvature
    left at an extremal's zeros.  A block holds at most
    ``_BLOCK // (d - 1)`` rows, so that its stack of A holds at most
    ``_BLOCK`` x N entries, as each stack of the constrained form does.
    The result's ``x`` holds the minimizers c,
    one row per problem.  A zero row admits no c: its value is inf and
    its c is zero.  A single column leaves c = c0 as the only choice.
    """
    B = np.asarray(B, dtype=float)
    rows = np.asarray(rows, dtype=float)
    w = np.asarray(weights, dtype=float)
    e = _check_exponent(exponent)
    d = B.shape[1]
    sq = np.einsum("ij,ij->i", rows, rows)
    x = np.zeros_like(rows)
    value, dec = np.full(len(rows), math.inf), np.zeros(len(rows))
    stages = np.zeros(len(rows), dtype=int)
    live = np.flatnonzero(sq)
    x[live] = rows[live] / sq[live, None]
    if d == 1:
        value[live] = np.abs(x[live] @ B.T) ** e @ w
        return PowerSolveResult(x, value, dec, stages)
    for block in _blocks(live, max(1, _BLOCK // (d - 1))):
        Z = np.linalg.svd(rows[block, None, :])[2][:, 1:].swapaxes(1, 2)  # d x (d - 1)
        A = B @ Z
        bs = -(x[block] @ B.T)
        scale = np.abs(bs).max(axis=1)
        bs /= scale[:, None]

        def direction(k, grad, h):
            Ak = A[k]
            g = (grad[:, None, :] @ Ak)[:, 0]  # minus the gradient in y
            H = (Ak * h[:, :, None]).swapaxes(1, 2) @ Ak
            overflowed = _overflowed(H)
            if overflowed.any():
                return None, overflowed
            step = _stack_solve(H, g)
            return step, np.einsum("ij,ij->i", g, step)

        def trial(k, y, t, step):
            y_new = y + t[:, None] * step
            return y_new, bs[k] - (A[k] @ y_new[:, :, None])[:, :, 0]

        y = np.zeros((block.size, d - 1))
        res = _masked_newton(direction, trial, y, bs.copy(), w, e, scale,
                             decrement_tol, block)
        x[block] += (Z @ res.x[:, :, None])[:, :, 0]
        value[block], dec[block], stages[block] = res.value, res.decrement, res.stages
    return PowerSolveResult(x, value, dec, stages)
