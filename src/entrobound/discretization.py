"""Sampling discretization on finite measure spaces.

A subspace of functions on finitely many weighted points is given by a
basis that is orthonormal in the weighted inner product; the points and
their weights are a ``spaces.MeasureSpace``, which checks the weights
and supplies the L_p(mu) norm.  This module
computes its reproducing kernel and the uniform-norm constant

    M_p = sup { ||f||_inf / ||f||_{L_p(mu)} : f in the subspace }

by two independent routes: direct maximization per point, and the dual
minimal-norm representer problem, whose agreement is the classical
duality test.  The direct route also builds the pointwise-evaluation
dictionary w_j / g_j for a chosen set of sample points: the extremal
function of each direct solve gives the Hahn-Banach representer of
evaluation, and one projection onto the subspace makes it reproduce
evaluation to round-off.  The dual route stays the cross-check.  The
module verifies the resulting transfer inequality
max_j |f(x^j)| <= 2 M_p max_j |<f, g_j>|  on random subspace elements.
``it1_experiment`` chains everything into an entropy profile of the
unit L_p ball of the subspace measured in the max-over-sample-points
seminorm, compared against the (log(2n/k)/k)^(1/p) envelope.

Both inner problems are convex for p in [2, inf): the direct problem
minimizes a p-th power over an affine slice of coefficients (d - 1
unknowns for a d-dimensional subspace), the dual one a p'-th power
(p' in (1, 2]) over the functions g on the N points that represent
evaluation, B^T(mu g) = B[x], each Newton step solving one d x d Schur
system.  Both use the shared smoothed-Newton solver, the direct problem
in its slice form and the dual one in its constrained form.  Every
support point poses one problem of the same shape, so each route solves
all N of them as one stack in the solver's masked stage loop: a serial
solve of one such problem is bound by numpy call overhead, not flops.
Each point keeps its own iterations, and a failed solve names its
support point.  p = 2 short-circuits to closed forms, where w_j is the
kernel row D(x^j, .).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._optim import (
    minimize_power_constrained,
    minimize_power_residual,  # unused here; perfbench/tracing.py wraps it by this name
    minimize_power_sliced,
)
from .entropy import (
    EntropyProfile,
    PointwiseMaxMetric,
    _envelope_ratio,
    _fps,  # unused here; perfbench/tracing.py wraps it by this name
    _packing_lowers,
    octahedron_cover_profile,
)
from .errors import (
    CertificateError,
    DimensionMismatchError,
    GramDefectError,
    NormBoundError,
    PropertyViolationError,
)
from .greedy import Octahedron
from .spaces import (Dictionary, MeasureSpace, _indices, _integer, _levels, _real,
                     discrete_space, norm_U)

__all__ = [
    "Subspace",
    "SamplePointSet",
    "DiscretizationDictionary",
    "m_p_direct",
    "m_p_dual",
    "build_discretization_dictionary",
    "verify_transfer",
    "TransferReport",
    "it1_experiment",
    "SubspaceEntropyResult",
    "random_subspace",
]

_GRAM_TOL = 1e-10
# decrement target of the direct solves behind the evaluation dictionary:
# the representer inherits the extremal's error at about the square root
# of the decrement, while the point value's error is of its order
_REPRESENTER_TOL = 1e-15
_NORM_BOUND_SLACK = 1e-6  # on ||w_j||_{p'} <= 2 M_p
_MP_TOL = 1e-9  # decrement target of the per-point solves behind M_p
_WITNESS_SIZE = 512  # unit-ball functions that it1's packings draw from


@dataclass(frozen=True, eq=False)
class Subspace:
    """Column-orthonormal basis of functions on a weighted point set.

    ``basis`` has one row per support point and one column per basis
    function; orthonormality is checked in the weighted inner product
    at construction time.
    """

    measure: MeasureSpace
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "basis", basis)
        if basis.ndim != 2:
            raise ValueError("basis must be a matrix (points x functions)")
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis must be finite")
        if basis.shape[0] != self.measure.size:
            raise DimensionMismatchError(self.measure.size, basis.shape[0],
                                         "basis rows")
        if not 1 <= basis.shape[1] <= basis.shape[0]:
            raise ValueError(
                f"need between 1 and {basis.shape[0]} basis functions, "
                f"got {basis.shape[1]}")
        gram = basis.T @ (self.measure.weights[:, None] * basis)
        defect = float(np.abs(gram - np.eye(self.dim)).max())
        if defect > _GRAM_TOL:
            raise GramDefectError(defect)

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

    @property
    def support_size(self) -> int:
        return int(self.basis.shape[0])

    @cached_property
    def _kernel(self) -> np.ndarray:
        """Reproducing kernel D(x, y) = sum_i u_i(x) u_i(y), shared, not copied.

        <f, D(x, .)>_mu = f(x) for subspace elements, and the weighted
        trace equals the subspace dimension.
        """
        return self.basis @ self.basis.T

    def evaluate(self, coefficients: np.ndarray) -> np.ndarray:
        return self.basis @ np.asarray(coefficients, dtype=float)


@dataclass(frozen=True, eq=False)
class SamplePointSet:
    """Distinct support-point indices at which functions are sampled."""

    indices: np.ndarray

    def __post_init__(self):
        idx = _indices(self.indices)
        if idx.size == 0:
            raise ValueError("need at least one sample point")
        object.__setattr__(self, "indices", idx)
        if len(np.unique(idx)) != idx.size:
            raise ValueError("indices must be distinct")

    @property
    def count(self) -> int:
        return int(self.indices.size)


# ---------------------------------------------------------------------------
# the uniform-norm constant, two ways

def _direct_solves(sub: Subspace, p: float,
                   tol: float) -> tuple[np.ndarray, np.ndarray]:
    """max { f(x) : f in the subspace, ||f||_p <= 1 } at every point x, with the extremals.

    The extremal f* = B c* minimizes ||f||_p over subspace elements with
    f(x) = 1, that is over the c with B[x] . c = 1, so the point value
    is 1 / ||f*||_p.  Returns the point values and the coefficient rows
    c*, one per support point, from one stacked slice-form solve.  Where
    every subspace element vanishes, the point value is 0 and c* is zero.
    """
    coefficients, values = minimize_power_sliced(sub.basis, sub.measure.weights, p,
                                                 decrement_tol=tol)
    return values ** (-1.0 / p), coefficients  # the value inf of a vanishing point gives 0


def m_p_direct(sub: Subspace, p: float) -> float:
    """sup ||f||_inf / ||f||_p over the subspace, by direct maximization.

    Per support point, maximizing f(x) over the L_p ball is the smooth
    convex problem of minimizing ||f||_p^p over an affine coefficient
    slice; all points are solved as one stack.  p = 2 collapses to the
    closed form sqrt(D(x, x)).
    """
    _real("p", p, 2)
    if p == 2:
        return float(np.sqrt((sub.basis ** 2).sum(axis=1).max()))
    return float(_direct_solves(sub, p, _MP_TOL)[0].max())


def _dual_solves(sub: Subspace, p: float,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """min ||g||_{p'} over the representers g of evaluation at every point, with the minimizers.

    A representer reproduces evaluation on the subspace, B^T(mu g) = B[x].
    The kernel row D(x, .) is one, because the basis is mu-orthonormal,
    and the others differ from it by the complement's elements.  One
    stacked constrained solve starts every point at its kernel row, with
    constraint matrix C = mu B, so each Newton step solves one d x d
    Schur system per point.  A point where every subspace element
    vanishes has the zero kernel row, which is the minimizer, and takes
    no solve.  A full space has each kernel row as its only representer.
    Returns the norms and the minimizers, one row per support point.
    """
    mu = sub.measure.weights
    K = sub._kernel
    pp = p / (p - 1.0)
    if sub.dim == sub.support_size:
        return (np.abs(K) ** pp @ mu) ** (1.0 / pp), K.copy()
    minimizers, values = minimize_power_constrained(mu[:, None] * sub.basis, K, mu, pp,
                                                    decrement_tol=tol)
    return values ** (1.0 / pp), minimizers


def m_p_dual(sub: Subspace, p: float) -> float:
    """The same constant through the minimal-norm representer problem.

    For each point, the norm of the evaluation functional equals the
    least L_{p'} norm of a representer g of evaluation, B^T(mu g) = B[x]:
    the distance from the kernel section D(x, .) to the orthogonal
    complement of the subspace.  Each point is one constrained problem
    started at D(x, .), and all points are solved as one stack; a point
    where every subspace element vanishes has the zero representer and
    takes no solve.  Agreement with ``m_p_direct``, which solves the
    primal problem, is the duality cross-check.  p = 2 collapses to
    ||D(x, .)||_2, the Hilbert projection onto the complement being zero.
    """
    _real("p", p, 2)
    if p == 2:
        mu = sub.measure.weights
        K = sub._kernel
        return float(np.sqrt(((K ** 2) @ mu).max()))
    return float(_dual_solves(sub, p, _MP_TOL)[0].max())


# ---------------------------------------------------------------------------
# the evaluation dictionary

@dataclass(frozen=True, eq=False)
class DiscretizationDictionary:
    """Evaluation vectors w_j and their normalizations g_j.

    w_j reproduces point evaluation on the subspace,
    <f, w_j>_mu = f(x^j), and ||w_j||_{p'} is certified to stay within
    twice the uniform-norm constant.  g_j = w_j / ||w_j||_{p'} are unit
    atoms in L_{p'}(mu).
    """

    subspace: Subspace
    points: SamplePointSet
    p: float
    w_vectors: np.ndarray       # one row per sample point
    w_norms: np.ndarray
    atoms: np.ndarray           # g_j as columns, support_size x n
    m_p: float

    def u_dictionary(self) -> Dictionary:
        """The g_j atoms as a dictionary in L_{p'}(mu)."""
        space = discrete_space(self.subspace.measure.weights,
                               self.p / (self.p - 1.0))
        return Dictionary(self.atoms, space)


def _representer(sub: Subspace, x: int, f: np.ndarray, p: float) -> np.ndarray:
    """The evaluation representer at x built from the direct extremal f*.

    w = |f*|^(p-2) f* / ||f*||_p^p is the Hahn-Banach representer, with
    ||w||_{p'} = 1 / ||f*||_p; one projection w += B(B[x] - B^T(mu w))
    removes the solver slack from the reproducing identity.
    """
    mu = sub.measure.weights
    B = sub.basis
    w = np.abs(f) ** (p - 2.0) * f / sub.measure.norm(f, p) ** p
    return w + B @ (B[x] - B.T @ (mu * w))


def build_discretization_dictionary(sub: Subspace, pts: SamplePointSet,
                                    p: float) -> DiscretizationDictionary:
    """Assemble the evaluation representers w_j and g_j for the sample points.

    For p != 2 the direct route builds everything: one stacked direct
    solve over the support points gives M_p as the largest point value,
    and at each sample point x the extremal f* yields the Hahn-Banach
    representer w = |f*|^(p-2) f* / ||f*||_p^p, whose L_{p'} norm is the norm of
    the evaluation functional, followed by one projection that makes it
    reproduce evaluation to round-off.  The dual minimal-norm
    representer route (``m_p_dual``) stays the independent cross-check.
    For p = 2, w_j is the kernel row D(x^j, .).  Both dictionary invariants are
    checked here: the reproducing identity on the basis to 1e-8, and
    the norm bound ||w_j||_{p'} <= 2 M_p + 1e-6.
    """
    _real("p", p, 2)
    if np.any(pts.indices >= sub.support_size):
        raise ValueError(
            f"sample points must index the {sub.support_size} support points")
    mu = sub.measure.weights
    pp = p / (p - 1.0)
    if p == 2:
        m_p = m_p_dual(sub, p)
        w_rows = [sub._kernel[x].copy() for x in pts.indices]
    else:
        values, coefs = _direct_solves(sub, p, _REPRESENTER_TOL)
        m_p = float(values.max())
        w_rows = [np.zeros(sub.support_size) if values[x] == 0.0
                  else _representer(sub, x, sub.basis @ coefs[x], p)
                  for x in pts.indices]

    w_vectors = np.stack(w_rows)
    w_norms = sub.measure.norm(w_vectors, pp)
    bound = 2.0 * m_p + _NORM_BOUND_SLACK
    for j, (x, w_norm) in enumerate(zip(pts.indices, w_norms.tolist())):
        if w_norm == 0.0:
            raise ValueError(
                f"every subspace element vanishes at sample point {x}; "
                "the evaluation functional is degenerate")
        if w_norm > bound:
            raise NormBoundError(j, w_norm, bound)

    repro = sub.basis.T @ (mu[:, None] * w_vectors.T)  # dim x n
    wanted = sub.basis[pts.indices].T
    drift = float(np.abs(repro - wanted).max())
    if drift > 1e-8:
        raise CertificateError(
            f"reproducing identity off by {drift!r} on the basis")
    atoms = (w_vectors / w_norms[:, None]).T
    return DiscretizationDictionary(
        subspace=sub, points=pts, p=float(p), w_vectors=w_vectors,
        w_norms=w_norms, atoms=atoms, m_p=m_p)


@dataclass
class TransferReport:
    max_ratio: float
    bound: float            # 2 M_p


def verify_transfer(sub: Subspace, ddict: DiscretizationDictionary, *,
                    trials: int, seed: int) -> TransferReport:
    """Check max_j |f(x^j)| <= 2 M_p max_j |<f, g_j>| on random f.

    Draws Gaussian coefficient vectors; a violation beyond the 1e-8
    slack raises with the witness coefficients.  Reports the largest
    observed left/right ratio.
    """
    rng = np.random.default_rng(seed)
    bound = 2.0 * ddict.m_p
    idx = ddict.points.indices
    u_dict = ddict.u_dictionary()
    max_ratio = 0.0
    for _ in range(trials):
        c = rng.standard_normal(sub.dim)
        f = sub.evaluate(c)
        left = float(np.abs(f[idx]).max())
        right = norm_U(f, u_dict)
        if left > bound * right + 1e-8:
            raise PropertyViolationError(
                f"transfer inequality violated: {left!r} > "
                f"{bound!r} * {right!r}", witness=c)
        if right > 0:
            max_ratio = max(max_ratio, left / (bound * right))
    return TransferReport(max_ratio=max_ratio, bound=bound)


# ---------------------------------------------------------------------------
# the subspace entropy experiment

def _function_witness(sub: Subspace, ddict: DiscretizationDictionary, p: float,
                      size: int, seed: int) -> np.ndarray:
    """Unit-ball members of the subspace in L_p(mu), as point-value rows."""
    rng = np.random.default_rng(seed)
    rows = [np.zeros((1, sub.support_size))]
    # kernel spikes peak at the sample points and drive the packing
    spikes = sub._kernel[ddict.points.indices]
    nrm = sub.measure.norm(spikes, p)
    rows.append(spikes[nrm > 0] / nrm[nrm > 0, None])
    rows.append(sub.basis.T / sub.measure.norm(sub.basis.T, p)[:, None])
    have = sum(r.shape[0] for r in rows)
    for _ in range(max(size - have, 0)):
        c = rng.standard_normal(sub.dim)
        f = sub.evaluate(c)
        nrm = sub.measure.norm(f, p)
        if nrm > 0:
            rows.append((f / nrm)[None, :])
    return np.vstack(rows)


@dataclass
class SubspaceEntropyResult:
    """Entropy profile of the subspace L_p ball in the sample seminorm."""

    profile: EntropyProfile
    m_p: float
    envelope: np.ndarray
    upper_ratio: np.ndarray
    spread: float


def it1_experiment(sub: Subspace, pts: SamplePointSet, p: float, k_list: list[int], *,
                   seed: int, cover_sample_size: int) -> SubspaceEntropyResult:
    """Entropy profile of { f : ||f||_p <= 1 } in max_j |f(x^j)|.

    Upper entries take the smaller of the trivial radius M_p (the whole
    ball sits within M_p of zero in the seminorm) and 2 M_p times the
    constructive cover radius of the g_j hull in L_{p'}(mu); the latter
    route treats the covering radius of the hull as a stand-in for its
    dual-ball counterpart, with the duality constant taken as one, and
    is labeled 'sparse-cover'.  Lower entries are certified packings of
    sampled unit-ball functions.  Ratios compare the uppers against
    M_p (log2(2n/k)/k)^(1/p).
    """
    _real("p", p, 2)
    n = pts.count
    k_list = _levels("k_list", k_list, 1, n)

    ddict = build_discretization_dictionary(sub, pts, p)
    octa = Octahedron(ddict.u_dictionary())
    certs = octahedron_cover_profile(octa, k_list, seed=seed,
                                     sample_size=cover_sample_size)

    uppers, upper_src = [], []
    for k in k_list:
        theorem_route = 2.0 * ddict.m_p * certs[k].radius
        if theorem_route < ddict.m_p:
            uppers.append(theorem_route)
            upper_src.append("sparse-cover")
        else:
            uppers.append(ddict.m_p)
            upper_src.append("trivial")

    sample = _function_witness(sub, ddict, p, _WITNESS_SIZE, seed + 1)
    metric = PointwiseMaxMetric(pts.indices)
    lowers, lower_src = _packing_lowers(metric.pairwise(sample, sample), k_list)

    profile = EntropyProfile.build(k_list, lowers, uppers, lower_src, upper_src)
    envelope, upper_ratio, spread = _envelope_ratio(profile.upper, n, k_list,
                                                    1.0 / p, ddict.m_p)
    return SubspaceEntropyResult(profile=profile, m_p=ddict.m_p, envelope=envelope,
                                 upper_ratio=upper_ratio, spread=spread)


def random_subspace(dim: int, support_size: int, seed: int, *,
                    measure: MeasureSpace | None = None) -> Subspace:
    """Orthonormalize seeded Gaussian vectors under the weighted product."""
    _integer("support_size", support_size, 1, math.inf)
    if measure is None:
        measure = MeasureSpace.uniform(support_size)
    if measure.size != support_size:
        raise DimensionMismatchError(support_size, measure.size, "measure points")
    _integer("dim", dim, 1, support_size)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((support_size, dim))
    root = np.sqrt(measure.weights)
    Q, R = np.linalg.qr(root[:, None] * G)
    Q = Q * np.sign(np.diag(R))  # deterministic orientation
    return Subspace(measure, Q / root[:, None])
