"""Best m-term approximation over a dictionary of unit atoms.

Two paths to the m-term error: exhaustive search over supports (exact,
tiny scale only) and the weak Chebyshev greedy algorithm (Temlyakov,
*Greedy Approximation*, 2011) with weakness t = 1.  Each greedy step
builds the norming functional of the current residual from the norm
the previous step already took, picks the atom with the largest
absolute pairing (lowest index on ties), gathers the selected atoms
once, and re-projects onto them.  The largest pairing reaches t times
the maximum for every t in (0, 1], so each run is also a run of the
algorithm at every weaker t.  A projection is solved one of three
ways: in closed form on a support of coordinate atoms in distinct rows,
at every q; by weighted least squares at q = 2; and otherwise by
minimizing the q-th power of the residual norm with the shared
smoothed-Newton solver.  A run stops early on an exact recovery
(residual norm at most 1e-12), when no atom sees the residual, or at a
flat step, one whose projection lowers the residual norm by less than
1e-9 relative; the flat step is dropped.
``sigma_profile`` reads an exact recovery as 0 from its step on.

On coordinate atoms, each nonzero in one row and no two in the same
row, the greedy keeps the largest weighted coefficients, and a step is
a few array operations.  There ``sigma_profile`` and the octahedron
covers run all their samples in one stacked pass, step by step, that
equals ``wcga`` on each sample bit for bit: a step measures the
residuals of every run in one stacked norm call, whose rows round as
the vector norm of one run does.  Other dictionaries run ``wcga`` once
per sample.

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
from .spaces import Dictionary, _check_rows, _integer, _levels, _power_norm, norm, norm_A

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
_STOP_TOL = 1e-12  # residual norm at which the greedy loop stops: an exact recovery
_FLAT_TOL = 1e-9  # relative drop below which a greedy step is flat: the loop drops it and stops
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

    Three ways, tried in order:

    - coordinate atoms, each nonzero on one coordinate and no two on the
      same one: c_j = f_i / g_j(i) on atom j's coordinate i, exact at
      every q, since it zeroes the residual on the support and no c
      moves it elsewhere;
    - q = 2: weighted least squares, the minimum-norm solution when atoms
      on the support are dependent;
    - otherwise the q-th-power objective is minimized by smoothed Newton
      down to a relative Newton decrement of tol.
    """
    f = np.asarray(f, dtype=float)
    fnorm = norm(dictionary.space, f)  # rejects a wrong length or a non-finite f
    G = dictionary.atoms[:, list(support)]
    return _project(f, fnorm, G, dictionary.space, tol, None)


def _coordinate_rows(atoms: np.ndarray) -> np.ndarray | None:
    """Each atom's row when the atoms are coordinate, else None.

    Coordinate means that each atom (column) has one nonzero and no two
    atoms share a row.
    """
    n = atoms.shape[1]
    # unit atoms are never zero, so n nonzeros put exactly one in each column
    if np.count_nonzero(atoms) != n:
        return None
    _, rows = np.nonzero(atoms.T)  # ordered by column
    return rows if np.unique(rows).size == n else None


def _project(f, fnorm, G, space, tol, warm):
    """``chebyshev_project`` of a checked f of norm fnorm onto the columns of G.

    G holds the support's atoms, gathered by the caller; ``wcga`` and
    ``best_mterm_bruteforce`` reuse the same columns for the residual.
    ``warm``, when given, is the Newton start in unscaled coefficients.
    """
    n = G.shape[1]
    if n == 0:
        return np.zeros(0)
    rows = _coordinate_rows(G)
    if rows is not None:
        return f[rows] / G[rows, np.arange(n)]
    w = space.weight_vector()
    if space.q == 2.0:
        sw = np.sqrt(w)
        c, *_ = np.linalg.lstsq(sw[:, None] * G, sw * f, rcond=None)
        return c
    if fnorm == 0.0:
        return np.zeros(n)
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
    _integer("m", m, 0, n)
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
        G = dictionary.atoms[:, support]
        coeffs = _project(f, fnorm, G, dictionary.space, _PROJECT_TOL, None)
        r = norm(dictionary.space, f - G @ coeffs)
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
    f is checked and measured once, each residual is measured once and
    that norm also builds its norming functional, and each step gathers
    its atoms once; every kept step keeps its coefficients in
    ``step_coefficients``.

    The run stops early on three tests:

    - the residual norm is at most 1e-12, an exact recovery;
    - no atom sees the residual: the largest pairing is at most 1e-14
      of max(|f|, 1);
    - a flat step: the step's new residual norm is at least
      ``history[-1] * (1 - 1e-9)``.  The flat step is dropped, its
      atom, coefficients and history entry with it.

    The third test follows from the projection.  Under an exact
    Chebyshev projection the residual r has the least norm in f's
    coset of the span, so the norming functional F of r vanishes on
    every support atom, and the norm is nonincreasing from step to step
    (Temlyakov, *Greedy Approximation*, 2011).  For 1 < q < infinity
    the norm is differentiable at r != 0, with derivative F, so along
    an atom g with F(g) != 0 a small step lowers it strictly:
    ||r - lambda g|| = ||r|| - lambda F(g) + o(lambda).  The projection
    onto the grown support does at least as well, so every exact step
    whose atom is seen lowers the norm strictly.  A step that lowers
    nothing therefore means that the largest pairing, and with it every
    pairing, sits at the level of the projection's own tolerance: an
    inexact q != 2 projection stops at its Newton-decrement target, so
    after an exact recovery the residual sits at the solver's floor,
    not near 0.  Every later step would then add an atom with a
    coefficient at that floor and leave the norm where it is: noise, at
    a full solve each.
    """
    space = dictionary.space
    _integer("m", m, 0, dictionary.size)
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
        # the norming functional of the residual, whose norm is history[-1]
        F = np.sign(residual) * np.power(np.abs(residual) / history[-1], space.q - 1.0)
        vals = np.abs(dictionary.pairings(F))
        if support:
            vals[support] = -1.0
        j = int(np.argmax(vals))
        if vals[j] <= 1e-14 * max(fnorm, 1.0):
            break  # residual invisible to the remaining atoms
        support.append(j)
        G = dictionary.atoms[:, support]
        # each step returns a new array, which no later step writes to
        step = _project(f, fnorm, G, space, project_tol, np.append(coeffs, 0.0))
        step_residual = f - G @ step
        r = _power_norm(step_residual, w, space.q)
        if r >= history[-1] * (1.0 - _FLAT_TOL):
            support.pop()
            break  # a flat step: every pairing sits at the projection's tolerance
        coeffs, residual = step, step_residual
        history.append(r)
        snaps.append(coeffs)
    return SparseApproximant(support=support, coefficients=coeffs,
                             history=history, step_coefficients=snaps)


def _coordinate_wcga(samples: np.ndarray, dictionary: Dictionary,
                     rows: np.ndarray, m: int):
    """``wcga`` on every row of ``samples`` at once, for coordinate atoms.

    ``rows`` is ``_coordinate_rows(dictionary.atoms)``.  The samples get
    the checks ``wcga`` gives f and their norms one ``_power_norm``
    call; ``_coordinate_pass`` then runs them all.  So each run takes
    the steps, stops and errors of ``wcga(f, dictionary, m)``, bit for
    bit, and the whole makes at most m + 1 norm calls.
    """
    space = dictionary.space
    _integer("m", m, 0, dictionary.size)
    f = _check_rows(space, samples)
    fnorm = _power_norm(f, space.weight_vector(), space.q)
    if not fnorm.all():
        raise ZeroVectorError("cannot run the greedy loop on the zero vector")
    return _coordinate_pass(f, fnorm, dictionary, rows, m)


def _coordinate_pass(f: np.ndarray, fnorm: np.ndarray, dictionary: Dictionary,
                     rows: np.ndarray, m: int):
    """The lockstep greedy of ``_coordinate_wcga`` on checked samples f.

    ``fnorm`` holds the samples' norms as ``_power_norm`` takes them,
    none of them 0, and m is at most the dictionary size.  On coordinate
    atoms the greedy keeps the largest weighted coefficients: atom j's
    pairing with a functional F is (w_i F_i) g_j(i) on its row i, the
    one nonzero term of ``pairings``, and its coefficient f_i / g_j(i)
    never changes once it is picked.  Each step takes the pairings,
    picks, coefficients and residual entries of all live runs in one
    stacked pass, with the operations ``wcga`` rounds through, and
    measures every new residual in one ``_power_norm`` call, whose rows
    round as ``wcga``'s vector does: at most m norm calls.

    Returns four arrays: the supports (runs x m, padded with the
    dictionary size), the coefficients in pick order (zero-padded), the
    histories (runs x (m + 1), each padded with its last entry) and the
    number of steps of each run.
    """
    space, n = dictionary.space, dictionary.size
    w = space.weight_vector()
    runs = f.shape[0]
    g = dictionary.atoms[rows, np.arange(n)]  # each atom's nonzero
    support = np.full((runs, m), n)
    coef = np.zeros((runs, m))
    history = np.repeat(fnorm[:, None], m + 1, axis=1)
    steps = np.zeros(runs, dtype=int)
    residual = f.copy()
    picked = np.zeros((runs, n), dtype=bool)
    unseen = 1e-14 * np.maximum(fnorm, 1.0)
    live = np.flatnonzero(fnorm > _STOP_TOL)
    for s in range(m):
        if not live.size:
            break
        last = history[live, s]
        r = residual[live]
        # the norming functionals of the residuals, whose norms are last
        F = np.sign(r) * np.power(np.abs(r) / last[:, None], space.q - 1.0)
        vals = np.abs((w * F)[:, rows] * g)
        vals[picked[live]] = -1.0
        j = np.argmax(vals, axis=1)
        at = np.arange(live.size)
        seen = vals[at, j] > unseen[live]  # else the residual is invisible
        i = rows[j]
        c = f[live, i] / g[j]
        r[at, i] = f[live, i] - g[j] * c
        rnorm = _power_norm(r, w, space.q)
        # a flat step is dropped and ends its run
        kept = seen & (rnorm < last * (1.0 - _FLAT_TOL))
        live, j, c, r, rnorm = live[kept], j[kept], c[kept], r[kept], rnorm[kept]
        residual[live] = r
        picked[live, j] = True
        support[live, s] = j
        coef[live, s] = c
        history[live, s + 1:] = rnorm[:, None]
        steps[live] = s + 1
        live = live[rnorm > _STOP_TOL]  # an exact recovery
    return support, coef, history, steps


def sample_octahedron(dictionary: Dictionary, count: int, seed: int) -> list[dict]:
    """Draw signed Dirichlet mixtures of atoms from the norm_A unit ball.

    Support sizes are log-uniform over [1, n] so that both near-vertex
    and spread-out elements appear; coefficients are flat Dirichlet
    with independent signs, hence sum |c_j| = 1 exactly.  Returns dicts
    with the vector and its generating (indices, coefficients) pair.
    """
    if _integer("count", count, -math.inf, math.inf) < 1:
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
    the residuals at every intermediate m; on coordinate atoms all runs
    take one stacked pass, equal to ``wcga`` on each sample.  A run that
    ends on an exact recovery (residual norm at most 1e-12) reads 0 from
    that step on, not its round-off; a run that ends on a flat step
    keeps its last residual, a solver floor.  So a value is 0 exactly when every sample
    is recovered by that m.  The reported slope is the least-squares fit
    of log2(value) against log2(m) over the levels not recovered, the
    positive entries.
    """
    if not samples:
        raise EmptySampleError("sigma profile needs at least one sample")
    m_list = _levels("m_list", m_list, 1, math.inf)
    for i, f in enumerate(samples):
        value = norm_A(f, dictionary)
        if value > 1.0 + _MEMBERSHIP_TOL:
            raise ValueError(
                f"sample {i} lies outside the octahedron: norm_A = {value!r}")
    m_max = m_list[-1]
    rows = _coordinate_rows(dictionary.atoms)
    if rows is None:
        history = np.zeros((len(samples), m_max + 1))
        for i, f in enumerate(samples):
            hist = wcga(f, dictionary, m_max).history
            history[i] = hist + hist[-1:] * (m_max + 1 - len(hist))
    else:
        history = _coordinate_wcga(samples, dictionary, rows, m_max)[2]
    # only a run's last entry can be an exact recovery; it reads 0 from its step on
    history[history <= _STOP_TOL] = 0.0
    values = history[:, m_list].max(axis=0)
    pos = values > 0
    if pos.sum() >= 2:
        slope = np.polyfit(np.log2(np.asarray(m_list)[pos]),
                           np.log2(values[pos]), 1)[0]
    else:
        slope = float("nan")
    return SigmaProfile(m_list=m_list, values=values, slope=float(slope))
