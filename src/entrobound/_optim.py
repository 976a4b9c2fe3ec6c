"""Shared convex minimizer for the package's inner problems.

Every iterative subproblem (Chebyshev projection for q != 2 and both
uniform-norm constant routes) minimizes a weighted residual-power
objective, so they all go through one routine: damped Newton with
smoothing continuation.  Exponents below 2 make the raw gradient
non-Lipschitz at residual zeros, where first-order methods crawl; the
smoothed surrogate stays C^2 at every stage, and Newton does not care
about the resulting stiffness.

The Newton systems are small (a few to a few hundred unknowns) and
solved many thousands of times, so each one is factored and solved by
direct LAPACK calls (``potrf``/``potrs``, looked up once at import)
rather than through scipy's checking wrappers.  The routines, triangle
and operands are the ones ``scipy.linalg.cho_factor``/``cho_solve``
would use, so every iterate is the same to the last bit.  Finiteness is
checked where it can fail: a non-finite objective, Hessian or Newton
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


# overflow is handled where it arises: the line search rejects non-finite
# trial values, and a non-finite objective, Hessian or decrement raises
@np.errstate(over="ignore")
def minimize_power_residual(A: np.ndarray, b: np.ndarray, weights: np.ndarray,
                            exponent: float,
                            *,
                            x0: np.ndarray | None = None,
                            decrement_tol: float = 1e-12,
                            eps_rel: float = 1e-8,
                            stage_iter: int = 80) -> PowerSolveResult:
    """Minimize sum_i weights_i |b_i - (A x)_i|**exponent over x.

    Each smoothing stage minimizes sum w (r^2 + eps^2)^(e/2) by damped
    Newton, with eps walked down geometrically to eps_rel times the
    data scale.  The reported value is the true objective at the final
    iterate; it exceeds the true minimum by at most the final stage's
    smoothing gap sum(w) * eps^e plus half the final Newton decrement,
    both far below every tolerance consumed downstream.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(weights, dtype=float)
    e = float(exponent)
    if e <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {exponent}")
    n = A.shape[1]
    scale = float(np.abs(b).max(initial=0.0))
    if n == 0 or scale == 0.0:
        x = np.zeros(n)
        r = b - A @ x
        return PowerSolveResult(x, float(w @ np.abs(r) ** e), 0.0, 0)
    bs = b / scale
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float) / scale
    we = w * e
    half_e = e / 2.0
    base_pow = half_e - 1.0
    e_minus_1 = e - 1.0
    dec = 0.0
    stages = 0
    iterations = 0
    eps_levels: list[float] = []
    eps = 0.1
    # stop short of eps_rel: repeated * 0.1 lands just above it (1e-8 comes
    # out as 1.0000000000000004e-08), which would run that stage twice
    while eps > 1.5 * eps_rel:
        eps_levels.append(eps)
        eps *= 0.1
    eps_levels.append(eps_rel)
    r = bs - A @ x  # always the residual at x
    for eps in eps_levels:
        stages += 1
        e2 = eps * eps
        for _ in range(stage_iter):
            iterations += 1
            s2 = r * r + e2
            base = s2 ** base_pow
            f_cur = float(w @ (s2 * base))
            if not math.isfinite(f_cur):  # overflow: no Newton step exists
                raise NonConvergenceError(f_cur, iterations, decrement_tol, _OVERFLOW)
            g = A.T @ (we * r * base)  # minus the gradient
            h = we * base * (e_minus_1 * r * r + e2) / s2
            H = (A * h[:, None]).T @ A
            if not math.isfinite(H.trace()):  # h >= 0: an overflow shows on the diagonal
                raise NonConvergenceError(math.inf, iterations, decrement_tol,
                                          _STEP_OVERFLOW)
            try:
                d, _ = _potrs(cho_factor(H), g, lower=0)
            except LinAlgError:
                H = H + (1e-12 * max(float(np.trace(H)), 1.0)) * np.eye(n)
                d = np.linalg.solve(H, g)
            dec = float(g @ d)  # Newton decrement squared
            if not math.isfinite(dec):
                raise NonConvergenceError(dec, iterations, decrement_tol, _STEP_OVERFLOW)
            if dec <= decrement_tol * (1.0 + abs(f_cur)):
                break
            t = 1.0
            for _ in range(_MAX_BACKTRACKS):
                x_new = x + t * d
                r_new = bs - A @ x_new
                f_new = float(w @ (r_new * r_new + e2) ** half_e)
                if np.isfinite(f_new) and f_new <= f_cur - _ARMIJO_C * t * dec:
                    break
                t *= 0.5
            else:
                break  # float floor for this stage
            x, r = x_new, r_new
    f_final = float(w @ (r * r + eps_levels[-1] ** 2) ** half_e)
    if dec > 1e-6 * (1.0 + abs(f_final)):
        raise NonConvergenceError(dec, iterations,
                                  decrement_tol * (1.0 + abs(f_final)))
    value = float(w @ np.abs(r) ** e) * scale ** e
    return PowerSolveResult(x * scale, value, dec, stages)


