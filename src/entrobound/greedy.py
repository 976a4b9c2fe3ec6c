"""Best m-term approximation over a dictionary of unit atoms.

Two paths to the m-term error: exhaustive search over supports (exact,
tiny scale only) and the weak Chebyshev greedy algorithm (Temlyakov,
*Greedy Approximation*, 2011) with weakness t = 1.  Each greedy step
computes the norming functional of the current residual from scratch,
picks the atom with the largest absolute pairing (lowest index on
ties), and re-projects onto everything selected so far.  The largest
pairing reaches t times the maximum for every t in (0, 1], so each run
is also a run of the algorithm at every weaker t.  For q = 2 the
projection is weighted least squares; otherwise it minimizes the q-th
power of the residual norm with the shared smoothed-Newton solver.

The unit ball of norm_A is the absolutely convex hull of the atoms;
``Octahedron`` wraps a dictionary with that membership test and
``sample_octahedron`` draws signed Dirichlet mixtures from it, mixing
support sizes across dyadic scales so the hull's extreme structure is
represented.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._optim import minimize_power_residual
from .errors import (
    BudgetExceededError,
    EmptySampleError,
    SpanMembershipError,
    ZeroVectorError,
)
from .spaces import Dictionary, _power_norm, norm, norm_A, norming_functional

__all__ = [
    "SparseApproximant",
    "Octahedron",
    "SigmaProfile",
    "chebyshev_project",
    "best_mterm_bruteforce",
    "wcga",
    "sample_octahedron",
    "sigma_profile",
]

_BRUTE_FORCE_BUDGET = 10 ** 6
_MEMBERSHIP_TOL = 1e-9  # slack of the hull test norm_A <= 1
_STOP_TOL = 1e-12  # residual norm at which the greedy loop stops early
_PROJECT_TOL = 1e-10  # default relative Newton decrement of a projection


@dataclass
class SparseApproximant:
    """Result of an m-term approximation.

    ``support`` and ``coefficients`` are aligned; ``history`` holds the
    residual norm after 0, 1, ... steps and is nonincreasing for
    Chebyshev-type greedy runs.  ``step_coefficients`` holds the
    coefficients after each step, so its last entry is
    ``coefficients``; it is empty when no step ran.
    """

    support: list[int]
    coefficients: np.ndarray
    history: list[float]
    step_coefficients: list[np.ndarray]

    @property
    def residual_norm(self) -> float:
        """The norm of f minus the reconstruction, the last of ``history``."""
        return self.history[-1]


@dataclass(frozen=True, eq=False)
class Octahedron:
    """The norm_A unit ball of a dictionary (absolutely convex atom hull)."""

    dictionary: Dictionary

    def contains(self, f: np.ndarray) -> bool:
        try:
            return norm_A(f, self.dictionary) <= 1.0 + _MEMBERSHIP_TOL
        except SpanMembershipError:
            return False


def chebyshev_project(f: np.ndarray, support: list[int], dictionary: Dictionary,
                      *, tol: float = _PROJECT_TOL) -> np.ndarray:
    """Coefficients minimizing the ambient norm of f - sum c_j g_j on the support.

    q = 2 is closed form (weighted least squares, minimum-norm solution
    when atoms on the support are dependent).  Other q minimize the
    q-th-power objective by smoothed Newton down to a relative Newton
    decrement of tol, except when the support's atoms are nonzero on
    exactly as many coordinates as there are atoms (coordinate atoms, for
    one): then one square solve reaches the minimum exactly.
    """
    f = np.asarray(f, dtype=float)
    fnorm = norm(dictionary.space, f)  # rejects a wrong length or a non-finite f
    return _project(f, fnorm, support, dictionary, tol, None)


def _project(f, fnorm, support, dictionary, tol, warm):
    """``chebyshev_project`` of a checked f of norm fnorm.

    ``warm``, when given, is the Newton start in unscaled coefficients.
    """
    if len(support) == 0:
        return np.zeros(0)
    space = dictionary.space
    G = dictionary.atoms[:, list(support)]
    w = space.weight_vector()
    if space.q == 2.0:
        sw = np.sqrt(w)
        c, *_ = np.linalg.lstsq(sw[:, None] * G, sw * f, rcond=None)
        return c
    if fnorm == 0.0:
        return np.zeros(len(support))
    x0 = None if warm is None else warm / fnorm
    res = minimize_power_residual(G, f / fnorm, w, space.q, x0=x0,
                                  decrement_tol=tol)
    return res.x * fnorm


def best_mterm_bruteforce(f: np.ndarray, dictionary: Dictionary,
                          m: int) -> SparseApproximant:
    """Exact best m-term approximation by enumerating all supports.

    Guarded by comb(n, m) <= 1e6; beyond that the greedy loop is the
    intended tool.  Ties go to the lexicographically first support.
    """
    n = dictionary.size
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in [0, {n}], got {m}")
    count = math.comb(n, m)
    if count > _BRUTE_FORCE_BUDGET:
        raise BudgetExceededError(
            f"comb({n}, {m}) = {count} supports exceed the brute-force budget "
            f"{_BRUTE_FORCE_BUDGET}; use wcga for this size")
    f = np.asarray(f, dtype=float)
    fnorm = norm(dictionary.space, f)  # rejects a non-finite f
    best = None
    for combo in itertools.combinations(range(n), m):
        support = list(combo)
        coeffs = _project(f, fnorm, support, dictionary, _PROJECT_TOL, None)
        r = norm(dictionary.space, f - dictionary.atoms[:, support] @ coeffs)
        if best is None or r < best[2]:
            best = (support, coeffs, r)
    support, coeffs, r = best
    if m == 0:
        return SparseApproximant(support, coeffs, history=[fnorm],
                                 step_coefficients=[])
    return SparseApproximant(support, coeffs, history=[fnorm, r],
                             step_coefficients=[coeffs])


def wcga(f: np.ndarray, dictionary: Dictionary, m: int,
         *, project_tol: float = _PROJECT_TOL) -> SparseApproximant:
    """Weak Chebyshev greedy approximation with up to m steps.

    Each step takes the atom of largest absolute pairing with the
    residual's norming functional (lowest index on ties).  That is the
    weakness t = 1, and it meets the threshold of every t in (0, 1].
    Stops early once the residual norm drops to 1e-12 or no atom sees
    the residual.  f is checked and measured once; every step keeps its
    coefficients in ``step_coefficients``.
    """
    space = dictionary.space
    n = dictionary.size
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in [0, {n}], got {m}")
    f = np.asarray(f, dtype=float)
    w = space.weight_vector()
    fnorm = norm(space, f)  # rejects a non-finite f
    if fnorm == 0.0:
        raise ZeroVectorError("cannot run the greedy loop on the zero vector")
    support: list[int] = []
    coeffs = np.zeros(0)
    history = [fnorm]
    snaps: list[np.ndarray] = []
    residual = f.copy()
    for _ in range(m):
        if history[-1] <= _STOP_TOL:
            break
        vals = np.abs(dictionary.pairings(norming_functional(space, residual)))
        if support:
            vals[support] = -1.0
        j = int(np.argmax(vals))
        if vals[j] <= 1e-14 * max(fnorm, 1.0):
            break  # residual invisible to the remaining atoms
        support.append(j)
        # each step returns a new array, which no later step writes to
        coeffs = _project(f, fnorm, support, dictionary, project_tol,
                          np.append(coeffs, 0.0))
        residual = f - dictionary.atoms[:, support] @ coeffs
        history.append(_power_norm(residual, w, space.q))
        snaps.append(coeffs)
    return SparseApproximant(support=support, coefficients=coeffs,
                             history=history, step_coefficients=snaps)


def sample_octahedron(dictionary: Dictionary, count: int, seed: int) -> list[dict]:
    """Draw signed Dirichlet mixtures of atoms from the norm_A unit ball.

    Support sizes are log-uniform over [1, n] so that both near-vertex
    and spread-out elements appear; coefficients are flat Dirichlet
    with independent signs, hence sum |c_j| = 1 exactly.  Returns dicts
    with the vector and its generating (indices, coefficients) pair.
    """
    if count < 1:
        raise EmptySampleError("need at least one sample")
    rng = np.random.default_rng(seed)
    n = dictionary.size
    out = []
    for _ in range(count):
        k = int(round(math.exp(rng.uniform(0.0, math.log(n))))) if n > 1 else 1
        k = min(max(k, 1), n)
        idx = np.sort(rng.choice(n, size=k, replace=False))
        theta = rng.dirichlet(np.ones(k))
        signs = rng.choice([-1.0, 1.0], size=k)
        c = signs * theta
        vec = dictionary.atoms[:, idx] @ c
        out.append({"vector": vec, "indices": idx, "coefficients": c})
    return out


@dataclass
class SigmaProfile:
    """max-over-samples greedy residuals per m, with a log-log slope."""

    m_list: list[int]
    values: np.ndarray
    slope: float


def sigma_profile(samples: list[np.ndarray], dictionary: Dictionary,
                  m_list: list[int]) -> SigmaProfile:
    """Empirical m-term error of the atom hull over a witness sample.

    Every sample must pass the hull membership test (norm_A <= 1 plus
    tolerance).  One greedy run per sample up to max(m_list) supplies
    the residuals at every intermediate m.  The reported slope is the
    least-squares fit of log2(value) against log2(m) over the positive
    entries.
    """
    if not samples:
        raise EmptySampleError("sigma profile needs at least one sample")
    if not m_list or sorted(m_list) != list(m_list) or m_list[0] < 1:
        raise ValueError("m_list must be increasing positive integers")
    for i, f in enumerate(samples):
        value = norm_A(f, dictionary)
        if value > 1.0 + _MEMBERSHIP_TOL:
            raise ValueError(
                f"sample {i} lies outside the octahedron: norm_A = {value!r}")
    m_max = m_list[-1]
    table = np.zeros((len(samples), len(m_list)))
    for i, f in enumerate(samples):
        run = wcga(f, dictionary, m_max)
        hist = run.history
        for j, m in enumerate(m_list):
            table[i, j] = hist[m] if m < len(hist) else hist[-1]
    values = table.max(axis=0)
    pos = values > 0
    if pos.sum() >= 2:
        slope = np.polyfit(np.log2(np.asarray(m_list)[pos]),
                           np.log2(values[pos]), 1)[0]
    else:
        slope = float("nan")
    return SigmaProfile(m_list=list(m_list), values=values, slope=float(slope))
