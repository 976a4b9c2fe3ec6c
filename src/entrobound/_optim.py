"""Shared convex minimizer for the package's inner problems.

Every iterative subproblem (Chebyshev projection for q != 2 and both
uniform-norm constant routes) minimizes a weighted residual-power
objective, so they all go through one routine: damped Newton with
smoothing continuation.  Exponents below 2 make the raw gradient
non-Lipschitz at residual zeros, where first-order methods crawl; the
smoothed surrogate stays C^2 at every stage, and Newton does not care
about the resulting stiffness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import NonConvergenceError

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60


@dataclass
class PowerSolveResult:
    x: np.ndarray
    value: float
    decrement: float
    stages: int


# overflow is handled where it arises: the line search rejects non-finite
# trial values and a non-finite objective at the iterate raises
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
    dec = 0.0
    stages = 0
    iterations = 0
    eps_levels: list[float] = []
    eps = 0.1
    while eps > eps_rel:
        eps_levels.append(eps)
        eps *= 0.1
    eps_levels.append(eps_rel)
    for eps in eps_levels:
        stages += 1
        e2 = eps * eps
        for _ in range(stage_iter):
            iterations += 1
            r = bs - A @ x
            s2 = r * r + e2
            base = s2 ** (e / 2.0 - 1.0)
            f_cur = float(w @ (s2 * base))
            if not math.isfinite(f_cur):  # overflow: no Newton step exists
                raise NonConvergenceError(f_cur, iterations, decrement_tol)
            grad = -(A.T @ (w * e * r * base))
            h = w * e * base * ((e - 1.0) * r * r + e2) / s2
            H = (A * h[:, None]).T @ A
            try:
                d = cho_solve(cho_factor(H), -grad)
            except LinAlgError:
                H = H + (1e-12 * max(float(np.trace(H)), 1.0)) * np.eye(n)
                d = np.linalg.solve(H, -grad)
            dec = float(-grad @ d)  # Newton decrement squared
            if dec <= decrement_tol * (1.0 + abs(f_cur)):
                break
            t = 1.0
            for _ in range(_MAX_BACKTRACKS):
                x_new = x + t * d
                r_new = bs - A @ x_new
                f_new = float(w @ (r_new * r_new + e2) ** (e / 2.0))
                if np.isfinite(f_new) and f_new <= f_cur - _ARMIJO_C * t * dec:
                    break
                t *= 0.5
            else:
                break  # float floor for this stage
            x = x_new
    r = bs - A @ x
    f_final = float(w @ (r * r + eps_levels[-1] ** 2) ** (e / 2.0))
    if dec > 1e-6 * (1.0 + abs(f_final)):
        raise NonConvergenceError(dec, iterations,
                                  decrement_tol * (1.0 + abs(f_final)))
    value = float(w @ np.abs(r) ** e) * scale ** e
    return PowerSolveResult(x * scale, value, dec, stages)


