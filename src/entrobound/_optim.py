"""Shared convex minimizer for the package's inner problems.

Every iterative subproblem (Chebyshev projection for q != 2 and both
uniform-norm constant routes) minimizes a weighted power sum
sum w |r|**e of a residual vector r, so they all go through one stage
loop: damped Newton with smoothing continuation.  Exponents below 2
make the raw gradient non-Lipschitz at residual zeros, where
first-order methods crawl; the smoothed surrogate stays C^2 at every
stage, and Newton does not care about the resulting stiffness.

The loop owns the smoothing schedule, the objective and finiteness
checks, the decrement test, the Armijo backtracking and the final
non-convergence check.  It serves two forms, which differ only in their
Newton direction and trial point:

- the residual form, ``minimize_power_residual``: r = b - A x over
  coefficients x, with the Hessian A^T diag(h) A;
- the constrained form, ``minimize_power_constrained``: r = g itself,
  over every g with C^T g fixed, with one Schur system
  C^T diag(1/h) C per step.

The residual form has one exact case that runs no stage at all.  When
exactly as many rows of A are nonzero ("live") as A has columns, as on a
support of coordinate atoms, one solve of the square live block zeroes
every live residual; the other rows keep r_i = b_i whatever x is, so
that solve is the global minimum.  A singular block, or one whose solve
leaves a live residual above round-off, goes to the stage loop instead.

The Newton systems are small (a few to a few hundred unknowns) and
solved many thousands of times, so each one is factored and solved by
direct LAPACK calls (``potrf``/``potrs``, looked up once at import)
rather than through scipy's checking wrappers.  The routines, triangle
and operands are the ones ``scipy.linalg.cho_factor``/``cho_solve``
would use, so every iterate is the same to the last bit.  Finiteness is
checked where it can fail: a non-finite objective, Newton system or
decrement raises ``NonConvergenceError``.
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
_OVERFLOW = "the objective overflowed, so the exponent is too large for the data"
_STEP_OVERFLOW = "the Newton system overflowed, so the data are too large for the exponent"

_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


def cho_factor(H: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of H, as ``scipy.linalg.cho_factor(H)[0]``."""
    c, info = _potrf(H, lower=0, overwrite_a=0, clean=0)
    if info != 0:
        raise LinAlgError(f"potrf failed with info {info}")
    return c


@dataclass
class PowerSolveResult:
    x: np.ndarray
    value: float
    decrement: float
    stages: int


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


def _smoothed_newton(direction, trial, point: np.ndarray, r: np.ndarray,
                     w: np.ndarray, e: float, scale: float,
                     decrement_tol: float) -> PowerSolveResult:
    """The stage loop that both forms share: minimize sum w |r|**e.

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
    eps_levels: list[float] = []
    eps = 0.1
    # stop short of _EPS_REL: repeated * 0.1 lands just above it (1e-8 comes
    # out as 1.0000000000000004e-08), which would run that stage twice
    while eps > 1.5 * _EPS_REL:
        eps_levels.append(eps)
        eps *= 0.1
    eps_levels.append(_EPS_REL)
    for eps in eps_levels:
        stages += 1
        e2 = eps * eps
        for _ in range(_STAGE_ITER):
            iterations += 1
            s2 = r * r + e2
            base = s2 ** base_pow
            f_cur = float(w @ (s2 * base))
            if not math.isfinite(f_cur):  # overflow: no Newton step exists
                raise NonConvergenceError(f_cur, iterations, decrement_tol, _OVERFLOW)
            d, dec = direction(we * r * base, we * base * (e_minus_1 * r * r + e2) / s2)
            if not math.isfinite(dec):
                raise NonConvergenceError(dec, iterations, decrement_tol, _STEP_OVERFLOW)
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
    f_final = float(w @ (r * r + eps_levels[-1] ** 2) ** half_e)
    if dec > 1e-6 * (1.0 + abs(f_final)):
        raise NonConvergenceError(dec, iterations,
                                  decrement_tol * (1.0 + abs(f_final)))
    value = float(w @ np.abs(r) ** e) * scale ** e
    return PowerSolveResult(point * scale, value, dec, stages)


def _check_exponent(exponent: float) -> float:
    e = float(exponent)
    if e <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {exponent}")
    return e


# in both forms overflow is handled where it arises: the line search rejects
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
                            decrement_tol)


@np.errstate(over="ignore")
def minimize_power_constrained(C: np.ndarray, g0: np.ndarray, weights: np.ndarray,
                               exponent: float,
                               *,
                               decrement_tol: float = 1e-12) -> PowerSolveResult:
    """Minimize sum_i weights_i |g_i|**exponent over g with C^T g = C^T g0.

    The constrained form of the shared stage loop, started at the
    feasible g0; the result's ``x`` is the minimizer g.  The objective
    is separable, so its Hessian is a diagonal h, and each
    equality-constrained Newton step (Boyd & Vandenberghe, *Convex
    Optimization*, 2004, sections 10.2 and 10.4) solves one Schur system
    S = C^T diag(1/h) C, square in the column count of C: with u the
    gradient in g, S lam = (C / h)^T u, and the step (C / h) lam - u / h
    leaves C^T g unchanged, so every iterate stays feasible up to
    round-off.
    """
    C = np.asarray(C, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    w = np.asarray(weights, dtype=float)
    e = _check_exponent(exponent)
    scale = float(np.abs(g0).max(initial=0.0))
    if scale == 0.0:  # g = 0 is feasible, and the objective vanishes there
        return PowerSolveResult(np.zeros_like(g0), 0.0, 0.0, 0)

    def direction(u, h):
        HC = C / h[:, None]
        S = C.T @ HC
        if not math.isfinite(S.trace()):
            return None, math.inf
        step = HC @ _spd_solve(S, HC.T @ u) - u / h
        return step, -float(u @ step)

    def trial(g, t, d):
        g_new = g + t * d
        return g_new, g_new

    gs = g0 / scale
    return _smoothed_newton(direction, trial, gs, gs, w, e, scale, decrement_tol)
