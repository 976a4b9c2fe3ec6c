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

Every run goes through one loop, ``_greedy_pass``, which runs a stack
of samples in lockstep and equals a run of each sample alone, bit for
bit: each step takes the norming functionals, picks, stop tests and
residual norms of all live runs as stacked arrays, and measures every
new residual in one stacked norm call, whose rows round as the vector
norm of one run does.  The loop is a generator: it yields the runs'
state before the first step and after each step, and its callers read
that state where they need it.  ``wcga`` is the one-sample case, and
``sigma_profile`` and the octahedron covers call the loop once for all
their samples.  On coordinate atoms, each nonzero in one row and no two
in the same row, the greedy keeps the largest weighted coefficients,
and a step is a few array operations; on other atoms each live run
pairs and projects on its own.

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

    G holds the support's atoms, gathered by the caller; ``_greedy_pass``
    and ``best_mterm_bruteforce`` reuse the same columns for the residual.
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
    f is checked and measured once, and ``_greedy_pass`` runs it as a
    stack of one row; the coefficients after each kept step are copied
    into ``step_coefficients``.

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
    _integer("m", m, 0, dictionary.size)
    f = np.asarray(f, dtype=float)
    fnorm = norm(dictionary.space, f)  # rejects a wrong length or a non-finite f
    if fnorm == 0.0:
        raise ZeroVectorError("cannot run the greedy loop on the zero vector")
    snaps = []
    for run in _greedy_pass(f[None], np.array([fnorm]), dictionary, m,
                            project_tol=project_tol):
        steps = int(run.steps[0])
        if steps > len(snaps):  # the step was kept
            snaps.append(run.coef[0, :steps].copy())
    return SparseApproximant(support=run.support[0, :steps].tolist(),
                             coefficients=snaps[-1] if snaps else np.zeros(0),
                             history=run.history[0, :steps + 1].tolist(),
                             step_coefficients=snaps)


@dataclass
class _Runs:
    """The state of the greedy runs of one ``_greedy_pass``, one row per sample.

    ``support`` (runs x m) is padded with the dictionary size, ``coef``
    (runs x m) holds the last kept coefficients in pick order,
    zero-padded, ``history`` (runs x (m + 1)) the residual norms, each
    padded with its last entry, and ``steps`` the steps each run kept.
    The pass updates the arrays in place after every step.
    """

    support: np.ndarray
    coef: np.ndarray
    history: np.ndarray
    steps: np.ndarray


def _greedy_pass(f: np.ndarray, fnorm: np.ndarray, dictionary: Dictionary, m: int,
                 *, project_tol: float):
    """The weak Chebyshev greedy of ``wcga`` on every row of checked samples f.

    ``fnorm`` holds the samples' norms as ``_power_norm`` takes them,
    and m is at most the dictionary size; a sample of norm at most
    1e-12 takes no step.  The runs go in lockstep: each step builds the
    norming functionals of all live residuals, picks, applies the three
    stop tests and measures every new residual in one ``_power_norm``
    call, whose rows round as a vector alone does; so the pass makes at
    most m norm calls, and each run takes the steps of the same greedy
    run alone, bit for bit.

    A generator: it yields its one ``_Runs`` state before the first step
    and again after each of the m steps, also once every run has
    stopped, so the s-th state read holds every run after min(s, steps
    kept) steps.  The state changes in place at the next step; a reader
    that keeps a part of it copies that part.

    On coordinate atoms (``_coordinate_rows``) the greedy keeps the
    largest weighted coefficients: atom j's pairing with a functional F
    is (w_i F_i) g_j(i) on its row i, the one nonzero term of
    ``pairings``, and its coefficient f_i / g_j(i) never changes once it
    is picked, so a step is a few stacked array operations.  On other
    atoms each live run that still sees its residual takes its pairings
    through ``pairings``, a vector-matrix product, and projects on its
    own, warm-started from its last coefficients plus a 0.
    """
    space, n = dictionary.space, dictionary.size
    w = space.weight_vector()
    rows = _coordinate_rows(dictionary.atoms)
    g = None if rows is None else dictionary.atoms[rows, np.arange(n)]  # each atom's nonzero
    runs = f.shape[0]
    support = np.full((runs, m), n)
    coef = np.zeros((runs, m))
    history = np.repeat(fnorm[:, None], m + 1, axis=1)
    steps = np.zeros(runs, dtype=int)
    state = _Runs(support, coef, history, steps)
    residual = f.copy()
    picked = np.zeros((runs, n), dtype=bool)
    unseen = 1e-14 * np.maximum(fnorm, 1.0)
    live = np.flatnonzero(fnorm > _STOP_TOL)
    yield state
    for s in range(m):
        if not live.size:
            yield state
            continue
        last = history[live, s]
        r = residual[live]
        # the norming functionals of the residuals, whose norms are last
        F = np.sign(r) * np.power(np.abs(r) / last[:, None], space.q - 1.0)
        if rows is None:
            vals = np.abs(np.array([dictionary.pairings(Fk) for Fk in F]))
        else:
            vals = np.abs((w * F)[:, rows] * g)
        vals[picked[live]] = -1.0
        j = np.argmax(vals, axis=1)
        seen = vals[np.arange(live.size), j] > unseen[live]  # else the residual is invisible
        if not seen.all():
            live, j, last, r = live[seen], j[seen], last[seen], r[seen]
        if rows is None:
            c = np.empty((live.size, s + 1))
            for k, run in enumerate(live):
                G = dictionary.atoms[:, np.append(support[run, :s], j[k])]
                c[k] = _project(f[run], fnorm[run], G, space, project_tol,
                                np.append(coef[run, :s], 0.0))
                r[k] = f[run] - G @ c[k]
        else:
            i = rows[j]
            c = f[live, i] / g[j]
            r[np.arange(live.size), i] = f[live, i] - g[j] * c
        rnorm = _power_norm(r, w, space.q)
        # a flat step is dropped and ends its run
        kept = rnorm < last * (1.0 - _FLAT_TOL)
        live, j, c, r, rnorm = live[kept], j[kept], c[kept], r[kept], rnorm[kept]
        residual[live] = r
        picked[live, j] = True
        support[live, s] = j
        if rows is None:
            coef[live, :s + 1] = c
        else:
            coef[live, s] = c
        history[live, s + 1:] = rnorm[:, None]
        steps[live] = s + 1
        live = live[rnorm > _STOP_TOL]  # an exact recovery
        yield state


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


def sigma_profile(samples: list[np.ndarray] | np.ndarray, dictionary: Dictionary,
                  m_list: list[int]) -> SigmaProfile:
    """Empirical m-term error of the atom hull over a witness sample.

    The samples come as a list of vectors or as a 2-D stack, one per
    row.  Every sample must pass the hull membership test (norm_A <= 1
    plus tolerance), and no level may exceed the dictionary size.  One
    greedy run per sample up to max(m_list) supplies the residuals at
    every intermediate m, and all runs take one ``_greedy_pass``, equal
    to ``wcga`` on each sample.  A run that ends on an exact recovery
    (residual norm at most 1e-12) reads 0 from that step on, not its
    round-off; a run that ends on a flat step keeps its last residual, a
    solver floor.  So a value is 0 exactly when every sample is
    recovered by that m.  The reported slope is the least-squares fit
    of log2(value) against log2(m) over the levels not recovered, the
    positive entries.
    """
    if not len(samples):
        raise EmptySampleError("sigma profile needs at least one sample")
    m_list = _levels("m_list", m_list, 1, dictionary.size)
    for i, f in enumerate(samples):
        value = norm_A(f, dictionary)
        if value > 1.0 + _MEMBERSHIP_TOL:
            raise ValueError(
                f"sample {i} lies outside the octahedron: norm_A = {value!r}")
    space = dictionary.space
    f = _check_rows(space, samples)
    fnorm = _power_norm(f, space.weight_vector(), space.q)
    if not fnorm.all():
        raise ZeroVectorError("cannot run the greedy loop on the zero vector")
    *_, run = _greedy_pass(f, fnorm, dictionary, m_list[-1], project_tol=_PROJECT_TOL)
    history = run.history
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
