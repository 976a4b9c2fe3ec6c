"""Covering and packing machinery for entropy-number experiments.

Everything here works on finite witness samples of the target set, so
every "upper bound" is an upper bound for the sampled set and is
labeled as such by its certificate.  Three bound sources exist:

* ``exact_entropy_small``: the exact best radius achievable with at
  most 2^k centers chosen from the sample itself (binary search over
  the sorted pairwise distances, exact set cover underneath).  Each
  probe tries, in order: the greedy cover; more than 2^k points no two
  of which share a center; the set-cover LP on the cover matrix with
  dominated centers dropped; the exact MILP on that matrix.  A cover
  found at a probe moves the upper end down to the cover's own radius.
  With centers restricted to the set the value sits between the true
  entropy radius and twice it.
* ``greedy_cover`` / ``farthest_point_packing``: the classical
  first-uncovered-point cover and farthest-point traversal; a packing
  of more than 2^k points with separation s certifies a lower bound
  s/2.
* ``octahedron_cover_profile`` and the l_p-ball profile: constructive
  covers from m-term approximants whose coefficients are truncated onto
  an integer grid, built by one routine for both sets, whose one scan
  over m serves every budget k.  The atom hull (the octahedron) takes
  greedy approximants on an l1-ball grid, read off one greedy run per
  witness after each of its steps; the l_p ball keeps each point's m
  largest coordinates on a cube grid.  The center count is a
  combinatorial product that is asserted, never assumed, to stay at or
  below 2^k.

Certificates are JSON-serializable and re-verifiable through checkers
that use only the stored metric, never the construction that produced
them; keys a loader does not read, such as the ``set_id`` of older
documents, are ignored.  Distances dispatch through one ``Metric``
interface covering the ambient (weighted) l_q norm, the max-pairing
norm over a dictionary, and the max-over-selected-points seminorm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.spatial.distance import cdist

from .errors import (
    BudgetExceededError,
    CertificateError,
    DimensionMismatchError,
    EmptySampleError,
    EntroboundError,
    QuantizationBudgetError,
)
from .greedy import (
    Octahedron,
    _greedy_pass,
    sample_octahedron,
    wcga,  # unused here; perfbench/tracing.py wraps it by this name
)
from .spaces import (
    Dictionary,
    NormedSpaceSpec,
    _check_rows,
    _exponent,
    _indices,
    _integer,
    _is_real,
    _levels,
    _matrix_power_norm,
    _power_norm,
    _real,
    dual_norm,
    norm,
    pair,
)

__all__ = [
    "Metric",
    "AmbientMetric",
    "UNormMetric",
    "PointwiseMaxMetric",
    "metric_from_json",
    "CoverCertificate",
    "PackingCertificate",
    "verify_cover",
    "verify_packing",
    "EntropyProfile",
    "exact_entropy_small",
    "exact_cover_count",
    "greedy_cover",
    "farthest_point_packing",
    "octahedron_cover_profile",
    "ball_entropy_experiment",
    "BallEntropyResult",
    "duality_sum_check",
    "DualitySumReport",
    "log_ratio_envelope",
]

_EXACT_MAX_POINTS = 512
_EXACT_MAX_CENTERS = 16
_DIST_TOL = 1e-12
_VERIFY_TOL = 1e-9  # slack of the certificate checks
# the octahedron cover's greedy runs: at most this many terms, each
# projection solved to this relative Newton decrement
_COVER_M_CAP = 24
_COVER_PROJECT_TOL = 1e-8


# ---------------------------------------------------------------------------
# metrics

class Metric:
    """Distance dispatch: map points to feature rows, then a fixed norm.

    The norm is the max norm unless a subclass overrides ``_feature_dist``.
    """

    kind = "abstract"

    def features(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _feature_dist(self, FA: np.ndarray, FB: np.ndarray) -> np.ndarray:
        return cdist(FA, FB, "chebyshev")

    def _check_dim(self, cols: int) -> None:
        """Reject points with ``cols`` coordinates unless they fit the metric."""
        if cols != self._dim:
            raise DimensionMismatchError(self._dim, cols, "point")

    def norms(self, R: np.ndarray) -> np.ndarray:
        """The norm of every row of R, each its distance to 0."""
        return np.abs(self.features(R)).max(axis=1)

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        self._check_dim(A.shape[1])
        self._check_dim(B.shape[1])
        return self._feature_dist(self.features(A), self.features(B))

    def to_json(self) -> dict:
        raise NotImplementedError


class AmbientMetric(Metric):
    """Distance in the ambient (weighted) l_q norm of a space."""

    kind = "ambient"

    def __init__(self, space: NormedSpaceSpec):
        self.space = space
        self._dim = space.dim

    def features(self, X):
        return X

    def _feature_dist(self, FA, FB):
        return cdist(FA, FB, "minkowski", p=self.space.q, w=self.space.weights)

    def norms(self, R):
        return _matrix_power_norm(R, self.space.weight_vector(), self.space.q)

    def to_json(self):
        return {"kind": self.kind, "space": self.space.to_json()}


class UNormMetric(Metric):
    """max_j |<F1 - F2, g_j>| over the atoms of a dictionary."""

    kind = "u-norm"

    def __init__(self, dictionary: Dictionary):
        self.dictionary = dictionary
        self._dim = dictionary.atoms.shape[0]
        w = dictionary.space.weight_vector()
        self._paired_atoms = w[:, None] * dictionary.atoms

    def features(self, X):
        return X @ self._paired_atoms

    def to_json(self):
        return {"kind": self.kind, "dictionary": self.dictionary.to_json()}


class PointwiseMaxMetric(Metric):
    """max over a fixed subset of coordinates |x_i - y_i| (a seminorm)."""

    kind = "linf-points"

    def __init__(self, indices: np.ndarray):
        self.indices = _indices(indices)

    def _check_dim(self, cols):
        need = int(self.indices.max(initial=-1)) + 1
        if cols < need:
            raise DimensionMismatchError(f"at least {need}", cols, "point")

    def features(self, X):
        return X[:, self.indices]

    def to_json(self):
        return {"kind": self.kind, "indices": self.indices.tolist()}


def metric_from_json(doc: dict) -> Metric:
    kind = doc["kind"]
    if kind == "ambient":
        return AmbientMetric(NormedSpaceSpec.from_json(doc["space"]))
    if kind == "u-norm":
        return UNormMetric(Dictionary.from_json(doc["dictionary"]))
    if kind == "linf-points":
        return PointwiseMaxMetric(doc["indices"])
    raise CertificateError(f"unknown metric kind {kind!r}")


# ---------------------------------------------------------------------------
# certificates

@dataclass
class CoverCertificate:
    """2^k-budget cover of a witness sample at the stated radius.

    ``count_bound`` is the certified number of possible centers (a
    combinatorial count for constructive covers; the literal center
    count otherwise), an integer like k, and must satisfy count_bound <=
    2^k.  ``centers`` materializes only the centers actually assigned to
    witness points, which is enough for independent re-verification.
    """

    centers: np.ndarray
    radius: float
    k: int
    count_bound: int
    metric: Metric
    provenance: str
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        # a document's k 3.9 is not read as 3, nor its radius true as 1.0
        _integer("k", self.k, 0, math.inf)
        _integer("count_bound", self.count_bound, 0, math.inf)
        if not _is_real(self.radius):
            raise ValueError(f"radius: need a real number, got {self.radius!r}")

    def to_json(self) -> dict:
        return {
            "type": "cover",
            "radius": self.radius,
            "k": self.k,
            "count_bound": int(self.count_bound),
            "provenance": self.provenance,
            "metric": self.metric.to_json(),
            "centers": np.asarray(self.centers, dtype=float).tolist(),
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CoverCertificate":
        return cls(
            centers=np.asarray(doc["centers"], dtype=float),
            radius=doc["radius"],
            k=doc["k"],
            count_bound=doc["count_bound"],
            metric=metric_from_json(doc["metric"]),
            provenance=str(doc["provenance"]),
            extra=dict(doc.get("extra", {})),
        )


@dataclass
class PackingCertificate:
    """Pairwise-separated points of the witness sample.

    count > 2^k points with separation s certify an entropy lower bound
    of s/2 at level k.
    """

    points: np.ndarray
    separation: float
    metric: Metric

    def __post_init__(self):
        if not _is_real(self.separation):  # a document's "1.5" is not read as 1.5
            raise ValueError(f"separation: need a real number, got {self.separation!r}")

    @property
    def count(self) -> int:
        return int(np.atleast_2d(self.points).shape[0])

    def to_json(self) -> dict:
        return {
            "type": "packing",
            "separation": self.separation,
            "metric": self.metric.to_json(),
            "points": np.asarray(self.points, dtype=float).tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PackingCertificate":
        return cls(
            points=np.asarray(doc["points"], dtype=float),
            separation=doc["separation"],
            metric=metric_from_json(doc["metric"]),
        )


def verify_cover(cert: CoverCertificate, witness: np.ndarray) -> bool:
    """Re-check a cover certificate against a witness sample.

    Uses only the stored metric and centers.  Raises CertificateError
    naming the first violated condition; a witness that is not finite
    raises ValueError, and an empty one EmptySampleError.
    """
    witness = _sample_points(witness)
    if cert.count_bound > 2 ** cert.k:
        raise CertificateError(
            f"count bound {cert.count_bound} exceeds 2^{cert.k}")
    centers = np.atleast_2d(np.asarray(cert.centers, dtype=float))
    if centers.shape[0] > cert.count_bound:
        raise CertificateError(
            f"{centers.shape[0]} materialized centers exceed the "
            f"certified bound {cert.count_bound}")
    if not (np.all(np.isfinite(centers)) and math.isfinite(cert.radius)):
        raise CertificateError("centers and radius must be finite")
    try:
        dists = cert.metric.pairwise(witness, centers).min(axis=1)
    except DimensionMismatchError as exc:
        raise CertificateError(f"centers or witness do not fit the metric: {exc}") from exc
    worst = float(dists.max())
    if not worst <= cert.radius + _VERIFY_TOL:  # written so that NaN fails
        raise CertificateError(
            f"witness point at distance {worst!r} exceeds radius {cert.radius!r}")
    return True


def verify_packing(cert: PackingCertificate) -> bool:
    """Re-check that the stored points are pairwise >= separation apart.

    Raises CertificateError when they are not, when the points or the
    separation are not finite, or when the points do not fit the metric.
    """
    pts = np.atleast_2d(np.asarray(cert.points, dtype=float))
    if not (np.all(np.isfinite(pts)) and math.isfinite(cert.separation)):
        raise CertificateError("packing points and separation must be finite")
    if pts.shape[0] < 2:
        return True
    try:
        D = cert.metric.pairwise(pts, pts)
    except DimensionMismatchError as exc:
        raise CertificateError(f"points do not fit the metric: {exc}") from exc
    off = D + np.diag(np.full(len(D), np.inf))
    smallest = float(off.min())
    if not smallest >= cert.separation - _VERIFY_TOL:  # written so that NaN fails
        raise CertificateError(
            f"pair at distance {smallest!r} below separation {cert.separation!r}")
    return True


# ---------------------------------------------------------------------------
# profiles

@dataclass
class EntropyProfile:
    """Per-k lower/upper bounds with per-entry provenance tags.

    Tags: 'exact', 'greedy-cover', 'sparse-cover', 'packing', 'trivial',
    'none'.  Bounds are monotone envelopes (a budget-k bound is valid at
    every larger k, and vice versa for lower bounds), enforced at build
    time.
    """

    k_list: list[int]
    lower: np.ndarray
    upper: np.ndarray
    lower_source: list[str]
    upper_source: list[str]

    @classmethod
    def build(cls, k_list, lower, upper, lower_source, upper_source) -> "EntropyProfile":
        k_list = _levels("k_list", k_list, 0, math.inf)
        lower = np.asarray(lower, dtype=float).copy()
        upper = np.asarray(upper, dtype=float).copy()
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("profile bounds must be finite")
        lower_source = list(lower_source)
        upper_source = list(upper_source)
        for arr, src in ((lower, lower_source), (upper, upper_source)):
            if len(arr) != len(k_list) or len(src) != len(k_list):
                raise ValueError("profile columns must match k_list")
        for i in range(1, len(k_list)):          # covers transfer to larger k
            if upper[i] > upper[i - 1]:
                upper[i] = upper[i - 1]
                upper_source[i] = upper_source[i - 1]
        for i in range(len(k_list) - 2, -1, -1):  # packings transfer to smaller k
            if lower[i] < lower[i + 1]:
                lower[i] = lower[i + 1]
                lower_source[i] = lower_source[i + 1]
        bad = np.nonzero(lower > upper + 1e-12)[0]
        if bad.size:
            i = int(bad[0])
            raise CertificateError(
                f"lower bound {float(lower[i])!r} exceeds upper bound "
                f"{float(upper[i])!r} at k = {k_list[i]}")
        return cls(k_list=k_list, lower=lower, upper=upper,
                   lower_source=lower_source, upper_source=upper_source)


def log_ratio_envelope(n: int, k: np.ndarray, exponent: float) -> np.ndarray:
    """(log2(2n/k) / k)^exponent, the shape all experiments compare against."""
    k = np.asarray(k, dtype=float)
    return (np.log2(2.0 * n / k) / k) ** exponent


def _envelope_ratio(upper, n: int, k_list, exponent: float, scale: float):
    """The envelope times ``scale``, upper / envelope, and that ratio's max / min."""
    envelope = scale * log_ratio_envelope(n, k_list, exponent)
    ratio = upper / envelope
    return envelope, ratio, float(ratio.max() / ratio.min())


# ---------------------------------------------------------------------------
# exact and greedy oracles

def _greedy_indices_at(Dm: np.ndarray, r: float) -> list[int]:
    num = Dm.shape[0]
    uncovered = np.ones(num, dtype=bool)
    picked: list[int] = []
    while uncovered.any():
        i = int(np.argmax(uncovered))  # first uncovered point
        picked.append(i)
        uncovered &= Dm[i] > r + _DIST_TOL
    return picked


def _cover_matrix(Dm: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """0/1 cover matrix at radius r with dominated centers dropped.

    Rows are points and columns candidate centers.  A column whose
    covered set lies strictly inside another column's is dropped, and
    of equal columns only the first is kept; every row stays.  Returns
    the reduced matrix and the kept columns' indices in ``Dm``.
    """
    cov = (Dm <= r + _DIST_TOL).astype(float)
    shared = cov.T @ cov
    size = np.diag(shared)
    order = np.arange(len(size))
    inside = shared == size[:, None]  # column c's set lies inside column d's
    dominated = inside & ((size[None, :] > size[:, None])
                          | ((size[None, :] == size[:, None])
                             & (order[None, :] < order[:, None])))
    cols = np.flatnonzero(~dominated.any(axis=1))
    return cov[:, cols], cols


def _min_cover_count(cov: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Exact set cover of a reduced cover matrix: its size and centers."""
    num = cov.shape[0]
    res = milp(
        c=np.ones(cov.shape[1]),
        constraints=LinearConstraint(cov, lb=np.ones(num), ub=np.full(num, np.inf)),
        integrality=np.ones(cov.shape[1]),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise EntroboundError(f"set-cover solve failed with status {res.status}")
    return int(round(res.fun)), cols[res.x > 0.5]


def _separated_count(cov: np.ndarray, budget: int) -> int:
    """Size of a greedy set of points no two of which share a center.

    Each such point needs a center of its own.  Points with the fewest
    sharers go first; the scan stops once the set exceeds ``budget``.
    """
    share = (cov @ cov.T) > 0.0
    blocked = np.zeros(cov.shape[0], dtype=bool)
    count = 0
    for i in np.argsort(share.sum(axis=1), kind="stable"):
        if not blocked[i]:
            count += 1
            if count > budget:
                break
            blocked |= share[i]
    return count


def _cover_feasible(Dm: np.ndarray, r: float, budget: int) -> np.ndarray | None:
    """Centers of a cover by at most ``budget`` radius-r balls, or None.

    The probes run cheapest first:

    1. a greedy cover that fits answers yes;
    2. more than ``budget`` points that pairwise share no center answer
       no;
    3. a set-cover LP value above the budget answers no, on the cover
       matrix with dominated centers dropped;
    4. the exact MILP on that matrix decides the rest.

    The returned centers may cover at a smaller radius than r; the
    caller's search moves its upper end to that radius.
    """
    picked = _greedy_indices_at(Dm, r)
    if len(picked) <= budget:
        return np.asarray(picked)
    cov, cols = _cover_matrix(Dm, r)
    if _separated_count(cov, budget) > budget:
        return None
    relax = linprog(np.ones(cov.shape[1]), A_ub=-cov, b_ub=-np.ones(cov.shape[0]),
                    bounds=(0, 1), method="highs")
    if relax.status == 0 and relax.fun > budget + 1e-6:
        return None
    count, centers = _min_cover_count(cov, cols)
    return centers if count <= budget else None


def _greedy_search(Dm: np.ndarray, candidates: np.ndarray, budget: int,
                   start: int) -> int:
    """Binary search from ``start`` for a radius index where greedy fits.

    Greedy counts are not monotone in r, but every feasible probe yields
    a sound cover, so the smallest feasible index probed is kept; the
    last index (the largest distance) covers with one center.
    """
    best = len(candidates) - 1
    lo, hi = start, best
    while lo <= hi:
        mid = (lo + hi) // 2
        if len(_greedy_indices_at(Dm, candidates[mid])) <= budget:
            best = mid
            hi = mid - 1
        else:
            lo = mid + 1
    return best


def _exact_restricted_radius(Dm: np.ndarray, budget: int) -> float:
    """Smallest pairwise-distance value at which ``budget`` centers cover.

    The search window is narrowed first by two cheap certificates: a
    (budget+1)-point packing rules out radii below half its separation,
    and the best greedy-feasible value is already an upper bound.  Each
    probe that finds a cover moves the upper end to the radius that
    cover actually reaches, which is itself a candidate; coverage is
    monotone in r, so the value found is the one plain bisection finds.
    """
    if budget == 1:
        return float(Dm.max(axis=1).min())
    candidates = np.unique(Dm)
    lo_val = 0.0
    if budget + 1 <= Dm.shape[0]:
        _, ins = _fps(Dm, budget + 1, 0)
        lo_val = ins[-1] / 2.0 - _DIST_TOL
    lo_idx = int(np.searchsorted(candidates, lo_val))
    hi_idx = _greedy_search(Dm, candidates, budget, lo_idx)
    # candidates[hi_idx] is feasible (greedy said so); bisection below it
    while lo_idx < hi_idx:
        mid = (lo_idx + hi_idx) // 2
        centers = _cover_feasible(Dm, candidates[mid], budget)
        if centers is None:
            lo_idx = mid + 1
            continue
        # the cover's own radius is a candidate at which it is feasible
        # too; indices below lo_idx were ruled out, so it clamps there
        reached = Dm[:, centers].min(axis=1).max()
        hi_idx = min(mid, max(lo_idx, int(np.searchsorted(candidates, reached))))
    return float(candidates[hi_idx])


def _sample_points(W) -> np.ndarray:
    """W as a 2-D float array of points; empty or non-finite W raises."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.shape[0] == 0:
        raise EmptySampleError("the sample has no points")
    if not np.all(np.isfinite(W)):
        raise ValueError("points must be finite")
    return W


def _exact_distances(W, metric: Metric) -> np.ndarray:
    """Pairwise distances of a sample within the exact oracles' point limit."""
    W = _sample_points(W)
    if W.shape[0] > _EXACT_MAX_POINTS:
        raise BudgetExceededError(
            f"{W.shape[0]} points exceed the exact-oracle limit {_EXACT_MAX_POINTS}")
    return metric.pairwise(W, W)


def exact_cover_count(W: np.ndarray, radius: float, metric: Metric) -> int:
    """Exact minimal number of radius-balls centered in W that cover W."""
    radius = _real("radius", radius, 0)
    return _min_cover_count(*_cover_matrix(_exact_distances(W, metric), radius))[0]


def exact_entropy_small(W: np.ndarray, k: int, metric: Metric) -> float:
    """Exact minimal radius covering W with at most 2^k centers from W.

    Restricted to centers inside the set, so the value lies between the
    free-center entropy radius and twice it.  Binary search over the
    sorted pairwise distances.  Each feasibility probe is answered by
    the first of: the greedy cover when it fits (yes); more than 2^k
    points that pairwise share no center (no); the set-cover LP on the
    cover matrix with dominated centers dropped (no when above 2^k);
    the exact MILP on that matrix.  A cover found by greedy or the MILP
    moves the upper end of the search to the cover's own radius.
    Budgeted at |W| <= 512 and 2^k <= 16.
    """
    if _integer("k", k, -math.inf, math.inf) < 0 or 2 ** k > _EXACT_MAX_CENTERS:
        raise BudgetExceededError(
            f"2^{k} centers exceed the exact-oracle limit {_EXACT_MAX_CENTERS}")
    return _exact_restricted_radius(_exact_distances(W, metric), 2 ** k)


def greedy_cover(W: np.ndarray, epsilon: float, metric: Metric) -> CoverCertificate:
    """First-uncovered-point cover of the sample at a fixed radius."""
    W = _sample_points(W)
    epsilon = _real("epsilon", epsilon, 0)
    Dm = metric.pairwise(W, W)
    picked = _greedy_indices_at(Dm, epsilon)
    count = len(picked)
    k = 0 if count <= 1 else math.ceil(math.log2(count))
    return CoverCertificate(
        centers=W[picked], radius=epsilon, k=k, count_bound=count,
        metric=metric, provenance="greedy-cover")


def _fps(Dm: np.ndarray, count: int, start: int) -> tuple[list[int], list[float]]:
    num = Dm.shape[0]
    picked = [start]
    insertion = [float("inf")]
    dmin = Dm[start].copy()
    while len(picked) < count:
        j = int(np.argmax(dmin))
        insertion.append(float(dmin[j]))
        picked.append(j)
        np.minimum(dmin, Dm[j], out=dmin)
    return picked, insertion


def _packing_lowers(Dm: np.ndarray,
                    k_list: list[int]) -> tuple[list[float], list[str]]:
    """Half the separation of the first 2^k + 1 traversal points, per k.

    One farthest-point traversal of the distance matrix ``Dm`` from
    point 0 serves every k, since it visits the same points in the same
    order whatever its length; a k whose 2^k + 1 points the set does not
    hold gets 0.  The traversal stops at the last point a k reads.
    """
    count = max((2 ** k + 1 for k in k_list if 2 ** k + 1 <= len(Dm)), default=1)
    _, insertion = _fps(Dm, count, 0)
    lowers, sources = [], []
    for k in k_list:
        want = 2 ** k + 1
        if want <= len(insertion):
            lowers.append(insertion[want - 1] / 2.0)
            sources.append("packing")
        else:
            lowers.append(0.0)
            sources.append("none")
    return lowers, sources


def farthest_point_packing(W: np.ndarray, count: int,
                           metric: Metric) -> PackingCertificate:
    """Farthest-point traversal; the separation is exact.

    The start is the first draw of ``default_rng(0)`` over the points.
    The reported separation is the recomputed minimal pairwise distance
    of the selected points, not the traversal's bookkeeping.
    """
    W = _sample_points(W)
    num = W.shape[0]
    _integer("count", count, 1, num)
    Dm = metric.pairwise(W, W)
    picked, _ = _fps(Dm, count, int(np.random.default_rng(0).integers(num)))
    pts = W[picked]
    if count == 1:
        sep = float("inf")
    else:
        sub = Dm[np.ix_(picked, picked)] + np.diag(np.full(count, np.inf))
        sep = float(sub.min())
    return PackingCertificate(points=pts, separation=sep, metric=metric)


# ---------------------------------------------------------------------------
# constructive covers from quantized sparse approximants

def _l1_grid_count(m: int, M: int) -> int:
    """Number of integer vectors z in Z^m with sum |z_i| <= M."""
    total = 0
    for j in range(0, min(m, M) + 1):
        total += (2 ** j) * math.comb(m, j) * math.comb(M, j)
    return total


def _max_grid_radius(count, m: int, target: int) -> int:
    """Largest M >= 0 with count(m, M) <= target, or -1 when target < 1.

    ``count(m, M)`` must grow without bound in M, which every grid count
    does for m >= 1.  The search doubles past the target and then
    bisects, in exact integer arithmetic.
    """
    if target < 1:
        return -1
    lo, hi = 0, 1  # count(m, lo) <= target throughout
    while count(m, hi) <= target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count(m, mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def _quantized_covers(sample: np.ndarray, atoms: np.ndarray, levels, grid_count,
                      metric: Metric, k_list: list[int],
                      m_cap: int) -> dict[int, CoverCertificate]:
    """Cover a witness sample by grid-quantized m-term approximants, per budget k.

    ``atoms`` holds the n atoms as columns.  ``levels(top)`` yields, for
    m = 1, ..., top in turn, every witness's m-term support (a runs x m
    index array, padded with n), its coefficients (zero-padded) and a
    bound B on them: truncating c onto the step-B/M grid lands in the
    grid of ``grid_count(m, M)`` points.  A budget k can use m <= k when
    comb(n, m) times the M = 1 grid fits 2^k centers, and top is the
    largest m <= m_cap that some k can use.  Each usable m, with the
    largest M that fits, is one option of k, next to the zero center.
    One scan over m measures each option's radius in one array pass,
    and each k keeps the smallest (the first among ties).  Only a
    winner's centers are deduplicated into its certificate.
    """
    runs = sample.shape[0]
    dim, n = atoms.shape
    # comb(n, m) is not monotone in m, so an unusable m never ends the range
    top = max((m for m in range(1, min(m_cap, k_list[-1]) + 1)
               if math.comb(n, m) * grid_count(m, 1) <= 1 << k_list[-1]), default=0)
    trivial = float(metric.norms(sample).max())
    best = {k: (trivial, 0, 0, 0.0, None) for k in k_list}
    for m, (support, coef, bound) in enumerate(levels(top), start=1):
        for k in k_list:
            M = _max_grid_radius(grid_count, m, (1 << k) // math.comb(n, m))
            if k < m or M < 1:
                continue
            delta = bound / M if bound > 0 else 0.0
            z = np.trunc(coef / delta) if delta > 0 else np.zeros_like(coef)
            quantized = np.zeros((runs, n + 1))  # column n takes the padding
            quantized[np.arange(runs)[:, None], support] = z * delta
            centers = quantized[:, :n] @ atoms.T
            radius = float(metric.norms(sample - centers).max())
            if radius < best[k][0]:
                best[k] = (radius, m, M, delta, (support, z, centers))

    covers = {}
    for k, (radius, m, M, delta, chosen) in best.items():
        if m == 0:
            centers, count = np.zeros((1, dim)), 1
        else:
            support, z, centers = chosen
            first = {}
            for i, key in enumerate(zip(map(tuple, support.tolist()),
                                        map(tuple, z.tolist()))):
                first.setdefault(key, i)
            centers = centers[list(first.values())]
            count = math.comb(n, m) * grid_count(m, M)
        if count > (1 << k):
            raise QuantizationBudgetError(
                f"certified count {count} exceeds 2^{k}; pick a larger k")
        covers[k] = CoverCertificate(
            centers=centers, radius=radius, k=k, count_bound=count,
            metric=metric, provenance="sparse-cover" if m > 0 else "trivial",
            extra={"m": m, "grid_radius": M, "grid_step": delta})
    return covers


def _signed_subsets(rng: np.random.Generator, n: int, per_level: int):
    """Random signed subsets of range(n) at the dyadic sizes 2, 4, ... <= n.

    Yields (indices, signs) ``per_level`` times per size, smallest size
    first; each draw chooses the indices, then the signs.
    """
    level = 2
    while level <= n:
        for _ in range(per_level):
            idx = rng.choice(n, size=level, replace=False)
            yield idx, rng.choice([-1.0, 1.0], size=level)
        level *= 2


def _octahedron_witness(dictionary: Dictionary, size: int, seed: int) -> np.ndarray:
    """Vertices, signed equal-mass dyadic mixtures, and Dirichlet mixtures."""
    rng = np.random.default_rng(seed)
    rows = [dictionary.atoms.T, -dictionary.atoms.T]
    for idx, signs in _signed_subsets(rng, dictionary.size, 3):
        rows.append((dictionary.atoms[:, idx] @ (signs / len(idx)))[None, :])
    have = sum(r.shape[0] for r in rows)
    extra = max(size - have, 0)
    if extra:
        mix = sample_octahedron(dictionary, extra, seed + 1)
        rows.append(np.stack([s["vector"] for s in mix]))
    return np.vstack(rows)


def _greedy_levels(sample: np.ndarray, dictionary: Dictionary, top: int):
    """One greedy run per witness point, read after each of ``top`` steps.

    All witnesses run in one ``_greedy_pass``, and after its m-th step,
    for m = 1, ..., top, this yields every witness's support (padded
    with n) and coefficients (zero-padded) after min(m, steps taken)
    steps, as fresh copies, with the largest of their l1 norms as the
    grid bound.  A witness of norm at most 1e-12 takes no step and reads
    as the zero approximant.  Each l1 norm is summed over the run's own
    m columns at the step it takes, since a sum over a zero-padded row
    can round differently.
    """
    space = dictionary.space
    fnorm = _power_norm(sample, space.weight_vector(), space.q)
    states = _greedy_pass(sample, fnorm, dictionary, top, project_tol=_COVER_PROJECT_TOL)
    next(states)  # the state before the first step
    l1 = np.zeros(sample.shape[0])
    for m, run in enumerate(states, start=1):
        took = run.steps == m
        l1[took] = np.abs(run.coef[took, :m]).sum(axis=1)
        yield run.support[:, :m].copy(), run.coef[:, :m].copy(), float(l1.max())


def _dyadic_segment_cover(octa: Octahedron, k: int, sample: np.ndarray,
                          metric: Metric) -> CoverCertificate:
    # one atom: the hull is the segment [-g, g]; offset grid is optimal
    g = octa.dictionary.atoms[:, 0]
    space = octa.dictionary.space
    coeff = np.array([pair(space, f, g) / pair(space, g, g) for f in sample])
    if k == 0:
        centers = np.zeros((1, space.dim))
        radius = max(norm(space, f) for f in sample)
        half, step = 0, 0.0
    else:
        step = 2.0 ** (1 - k)
        half = 2 ** (k - 1)
        z = np.clip(np.floor(coeff / step), -half, half - 1)
        c = (z + 0.5) * step
        centers = np.unique(c)[:, None] * g[None, :]
        radius = max(norm(space, f - ci * g) for f, ci in zip(sample, c))
    # the same extra keys as _quantized_covers: 2^k grid cells of width step
    return CoverCertificate(
        centers=centers, radius=float(radius), k=k, count_bound=2 ** k,
        metric=metric, provenance="sparse-cover",
        extra={"m": 1, "grid_radius": half, "grid_step": step})


def octahedron_cover_profile(octa: Octahedron, k_list: list[int], *,
                             sample: np.ndarray | None = None,
                             sample_size: int = 400,
                             seed: int = 0) -> dict[int, CoverCertificate]:
    """Constructive covers of the atom hull, one per 2^k center budget.

    Greedy m-term approximants with coefficients truncated onto an
    integer l1-ball grid; the pair (m, grid radius) is chosen per k by
    minimizing the measured radius among all pairs whose exact
    combinatorial center count fits the budget.  The radius is measured
    on the witness sample, so each certificate covers the sampled hull.

    All budgets share one scan over m and one stacked greedy pass, equal
    to ``wcga`` on each witness, of as many steps as some budget can
    use.  After the pass's m-th step, every budget that can use m tries
    each witness's run after min(m, steps taken) steps as its m-term
    approximant; the grid bound is the largest l1 norm of those
    coefficients over the witnesses.  A one-atom hull is a segment and
    gets the dyadic offset grid instead.
    """
    dictionary = octa.dictionary
    n = dictionary.size
    # the one-atom hull's dyadic covers take any k; other budgets stop at n
    k_list = _levels("k_list", k_list, 0, n if n > 1 else math.inf)
    if sample is None:
        sample = _octahedron_witness(dictionary, sample_size, seed)
    # checked here: the greedy levels check nothing until the scan reads them
    sample = _check_rows(dictionary.space, _sample_points(sample))
    metric = AmbientMetric(dictionary.space)
    if n == 1:
        return {k: _dyadic_segment_cover(octa, k, sample, metric) for k in k_list}
    return _quantized_covers(sample, dictionary.atoms,
                             lambda top: _greedy_levels(sample, dictionary, top),
                             _l1_grid_count, metric, k_list, _COVER_M_CAP)


# ---------------------------------------------------------------------------
# lp-ball experiment

def _ball_witness(p: float, n: int, size: int, seed: int) -> np.ndarray:
    """Vertices, dyadic equal-mass points and low-discrepancy sphere points."""
    rng = np.random.default_rng(seed)
    rows = [np.zeros((1, n)), np.eye(n), -np.eye(n)]
    for idx, signs in _signed_subsets(rng, n, 4):
        v = np.zeros(n)
        v[idx] = signs * len(idx) ** (-1.0 / p)
        rows.append(v[None, :])
    have = sum(r.shape[0] for r in rows)
    extra = max(size - have, 0)
    if extra:
        from scipy.stats import qmc  # scipy.stats is slow to import; only this needs it

        sob = qmc.Sobol(d=n, scramble=False).random(2 ** math.ceil(math.log2(extra)))
        pts = 2.0 * sob[:extra] - 1.0
        norms = np.power(np.power(np.abs(pts), p).sum(axis=1), 1.0 / p)
        norms[norms == 0.0] = 1.0
        # three quarters on the sphere, the rest pulled inside
        radial = np.where(np.arange(extra) % 4 == 3, 0.5, 1.0)
        rows.append(pts / norms[:, None] * radial[:, None])
    return np.vstack(rows)


@dataclass
class BallEntropyResult:
    profile: EntropyProfile
    sample_size: int


def ball_entropy_experiment(p: float, n: int, k_list: list[int], *,
                            sample_size: int, seed: int) -> BallEntropyResult:
    """Bracketed entropy profile of the unit l_p ball in the max norm.

    Upper entries come from the constructive keep-m-coordinates covers:
    each witness keeps its m largest coordinates, truncated onto the
    step-1/M cube grid (clamped by the trivial zero-center bound, which
    never exceeds 1); lower entries from farthest-point packings of the
    witness sample.  Everything refers to the sampled ball; k stops at n.
    """
    _real("p", p, 2)
    k_list = _levels("k_list", k_list, 1, n)
    sample = _ball_witness(p, n, sample_size, seed)
    metric = PointwiseMaxMetric(np.arange(n))
    order = np.argsort(-np.abs(sample), axis=1, kind="stable")

    def largest_coordinates(top):
        for m in range(1, top + 1):
            support = np.sort(order[:, :m], axis=1)
            yield support, np.take_along_axis(sample, support, axis=1), 1.0

    covers = _quantized_covers(sample, np.eye(n), largest_coordinates,
                               lambda m, M: (2 * M + 1) ** m, metric, k_list, n)
    uppers = [covers[k].radius for k in k_list]
    upper_src = [covers[k].provenance for k in k_list]

    lowers, lower_src = _packing_lowers(metric.pairwise(sample, sample), k_list)

    profile = EntropyProfile.build(k_list, lowers, uppers, lower_src, upper_src)
    return BallEntropyResult(profile=profile, sample_size=sample.shape[0])


# ---------------------------------------------------------------------------
# duality sum check

def _dual_ball_witness(space: NormedSpaceSpec, size: int, seed: int) -> np.ndarray:
    """Points of the dual-norm unit ball (functional coefficient vectors)."""
    rng = np.random.default_rng(seed)
    d = space.dim
    rows = [np.zeros((1, d))]
    for sign in (1.0, -1.0):
        axes = sign * np.eye(d)
        norms = _power_norm(axes, space.weight_vector(), space.dual_exponent)
        rows.append(axes / norms[:, None])
    for idx, signs in _signed_subsets(rng, d, 3):
        v = np.zeros(d)
        v[idx] = signs
        rows.append((v / dual_norm(space, v))[None, :])
    have = sum(r.shape[0] for r in rows)
    for _ in range(max(size - have, 0)):
        v = rng.standard_normal(d)
        nv = dual_norm(space, v)
        if nv == 0.0:
            continue
        r = rng.uniform() ** (1.0 / d)
        rows.append((r * v / nv)[None, :])
    return np.vstack(rows)


def _greedy_brackets(Dm: np.ndarray, k_list: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Packing lowers and greedy-cover uppers of one sampled set, per k.

    The sums only need a sound sandwich, and exact set-cover solves are
    slow on these symmetric sets; one center is exact in closed form.
    """
    lowers, _ = _packing_lowers(Dm, k_list)
    values = np.unique(Dm)
    uppers = np.array([float(Dm.max(axis=1).min()) if k == 0 else
                       float(values[_greedy_search(Dm, values, 2 ** k, 0)])
                       for k in k_list])
    return np.minimum(lowers, uppers), uppers


@dataclass
class DualitySumReport:
    """Two-sided comparison of entropy sums for an atom hull and its dual ball.

    ``hull`` brackets cover the hull of the atoms in the ambient norm;
    ``dual_ball`` brackets cover the dual-norm unit ball in the
    max-pairing norm.  ``ratio_interval`` brackets
    sum_k dual^p / sum_k hull^p with p = q'/2.
    """

    p_exponent: float
    k_list: list[int]
    hull_lower: np.ndarray
    hull_upper: np.ndarray
    dual_lower: np.ndarray
    dual_upper: np.ndarray
    ratio_interval: tuple[float, float]
    contains_one: bool
    flagged: bool
    status: str


def duality_sum_check(dictionary: Dictionary, m: int, *,
                      sample_size: int, seed: int) -> DualitySumReport:
    """Empirical check that the two dual entropy sums stay comparable.

    Brackets epsilon-hat_k for k = 0..m on both sides with greedy covers
    and packings alone (``_greedy_brackets``; no exact restricted cover),
    forms sum epsilon^p with p = q'/2, and reports the
    ratio interval.  Flags the report when the interval excludes every
    constant in [1e-3, 1e3]; a wide bracket alone downgrades the status
    to 'warning' without failing.
    """
    space = dictionary.space
    n = dictionary.size
    if n > 12:
        raise BudgetExceededError(
            f"duality sum check is budgeted for n <= 12 atoms, got {n}")
    _exponent("q", space.q, 2.0)
    _integer("m", m, 0, math.inf)
    p_exp = space.dual_exponent / 2.0

    # duplicate witnesses inflate the distance matrices and the greedy
    # searches over them without changing any radius, so drop them up front
    hull_sample = np.unique(_octahedron_witness(dictionary, sample_size, seed), axis=0)
    hull_D = AmbientMetric(space).pairwise(hull_sample, hull_sample)

    dual_sample = np.unique(_dual_ball_witness(space, sample_size, seed + 1), axis=0)
    dual_D = UNormMetric(dictionary).pairwise(dual_sample, dual_sample)

    k_list = list(range(m + 1))
    hull_lower, hull_upper = _greedy_brackets(hull_D, k_list)
    dual_lower, dual_upper = _greedy_brackets(dual_D, k_list)

    s_hull_lo = float(np.power(hull_lower, p_exp).sum())
    s_hull_hi = float(np.power(hull_upper, p_exp).sum())
    s_dual_lo = float(np.power(dual_lower, p_exp).sum())
    s_dual_hi = float(np.power(dual_upper, p_exp).sum())

    lo = s_dual_lo / s_hull_hi if s_hull_hi > 0 else 0.0
    hi = s_dual_hi / s_hull_lo if s_hull_lo > 0 else float("inf")
    contains_one = lo <= 1.0 <= hi
    flagged = hi < 1e-3 or lo > 1e3
    wide = (hi / lo > 1e6) if lo > 0 and math.isfinite(hi) else True
    status = "warning" if (wide and not flagged) else ("flagged" if flagged else "ok")
    return DualitySumReport(
        p_exponent=p_exp, k_list=k_list,
        hull_lower=hull_lower, hull_upper=hull_upper,
        dual_lower=dual_lower, dual_upper=dual_upper,
        ratio_interval=(lo, hi), contains_one=contains_one,
        flagged=flagged, status=status)
