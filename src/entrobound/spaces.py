"""Finite-dimensional normed spaces and dictionary-induced norms.

Two norm families are supported: plain l_q on R^dim and L_q(mu) over a
discrete probability measure.  Both are uniformly smooth for q > 1; for
q in (1, 2] the modulus of smoothness satisfies rho(u) <= u^q / q, for
q >= 2 it satisfies rho(u) <= (q - 1) u^2 / 2.

On top of the ambient norm the module provides the two norms attached
to a dictionary D = {g_1, ..., g_n} of unit atoms:

* ``norm_A``: the minimal l1 coefficient norm over exact representations
  f = sum c_j g_j (an exact linear program).  Its unit ball is the
  absolutely convex hull of the atoms.
* ``norm_U``: the dual quantity max_j |<F, g_j>| for a functional F.
  The supremum of |<F, f>| over the norm_A unit ball is attained at an
  atom (with sign), which is the duality identity tested throughout.

``estimate_modulus`` produces a certified lower estimate of the modulus
of smoothness by randomized search with local ascent; it can never
exceed the true modulus, hence never the analytic bounds above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .errors import (
    AtomNormalizationError,
    DimensionMismatchError,
    EmptyDictionaryError,
    SpanMembershipError,
    ZeroVectorError,
)

__all__ = [
    "NormKind",
    "NormedSpaceSpec",
    "Dictionary",
    "DualFunctional",
    "sequence_space",
    "discrete_space",
    "canonical_dictionary",
    "minimal_l1_coefficients",
    "norm",
    "pair",
    "dual_norm",
    "norming_functional",
    "norm_A",
    "norm_U",
    "estimate_modulus",
    "smoothness_bound",
]

_WEIGHT_TOL = 1e-12
_ATOM_TOL = 1e-10


class NormKind(Enum):
    SEQUENCE_LQ = "sequence_lq"
    DISCRETE_LQ_MU = "discrete_lq_mu"


@dataclass(frozen=True, eq=False)
class NormedSpaceSpec:
    """Dimension, exponent q > 1 and (for the discrete kind) the measure."""

    dim: int
    q: float
    norm_kind: NormKind = NormKind.SEQUENCE_LQ
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not (self.q > 1.0) or not math.isfinite(self.q):
            raise ValueError(f"q must lie in (1, inf), got {self.q}")
        if self.norm_kind is NormKind.DISCRETE_LQ_MU:
            if self.weights is None:
                raise ValueError("discrete spaces need a weight vector")
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.dim,):
                raise DimensionMismatchError(self.dim, w.shape, "weight vector")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            if np.any(w <= 0):
                raise ValueError("weights must be strictly positive")
            if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
                raise ValueError(
                    f"weights must sum to 1 within {_WEIGHT_TOL:.0e}, "
                    f"got {float(w.sum())!r}")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValueError("sequence spaces take no weights")

    @property
    def dual_exponent(self) -> float:
        return self.q / (self.q - 1.0)

    @property
    def smoothness_exponent(self) -> float:
        return min(self.q, 2.0)

    @property
    def smoothness_constant(self) -> float:
        """Constant gamma with rho(u) <= gamma * u^smoothness_exponent."""
        return 1.0 / self.q if self.q <= 2.0 else (self.q - 1.0) / 2.0

    def weight_vector(self) -> np.ndarray:
        if self.norm_kind is NormKind.DISCRETE_LQ_MU:
            return self.weights
        return self._unit_weights

    @cached_property
    def _unit_weights(self) -> np.ndarray:
        """Read-only vector of ones, built once per sequence space."""
        ones = np.ones(self.dim)
        ones.flags.writeable = False
        return ones

    def to_json(self) -> dict:
        doc = {"dim": self.dim, "q": self.q, "norm_kind": self.norm_kind.value}
        if self.weights is not None:
            doc["weights"] = [float(w) for w in self.weights]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "NormedSpaceSpec":
        weights = doc.get("weights")
        return cls(
            dim=int(doc["dim"]),
            q=float(doc["q"]),
            norm_kind=NormKind(doc.get("norm_kind", "sequence_lq")),
            weights=None if weights is None else np.asarray(weights, dtype=float),
        )


def sequence_space(dim: int, q: float) -> NormedSpaceSpec:
    return NormedSpaceSpec(dim=dim, q=q)


def discrete_space(weights: np.ndarray, q: float) -> NormedSpaceSpec:
    w = np.asarray(weights, dtype=float)
    return NormedSpaceSpec(dim=w.size, q=q,
                           norm_kind=NormKind.DISCRETE_LQ_MU, weights=w)


def _check_dim(space: NormedSpaceSpec, x: np.ndarray, what: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (space.dim,):
        raise DimensionMismatchError(space.dim, x.shape, what)
    return x


def norm(space: NormedSpaceSpec, x: np.ndarray) -> float:
    """(Sum w_i |x_i|^q)^(1/q)."""
    x = _check_dim(space, x)
    ax = np.abs(x)
    top = float(ax.max(initial=0.0))
    if top == 0.0:
        return 0.0
    # factor out the peak so large q does not underflow
    w = space.weight_vector()
    return top * float(np.power(w @ np.power(ax / top, space.q), 1.0 / space.q))


def pair(space: NormedSpaceSpec, f_coeffs: np.ndarray, x: np.ndarray) -> float:
    """Duality pairing <F, x>; integrates against the measure when present."""
    f_coeffs = _check_dim(space, f_coeffs, "functional")
    x = _check_dim(space, x)
    return float((space.weight_vector() * f_coeffs) @ x)


def dual_norm(space: NormedSpaceSpec, f_coeffs: np.ndarray) -> float:
    """Norm of a functional in the dual exponent q' = q / (q - 1)."""
    dual = NormedSpaceSpec(dim=space.dim, q=space.dual_exponent,
                           norm_kind=space.norm_kind,
                           weights=space.weights)
    return norm(dual, f_coeffs)


@dataclass(frozen=True, eq=False)
class DualFunctional:
    """A functional on the space, represented by its coefficient vector."""

    coefficients: np.ndarray
    space: NormedSpaceSpec

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           _check_dim(self.space, self.coefficients, "functional"))

    def pair(self, x: np.ndarray) -> float:
        return pair(self.space, self.coefficients, x)

    def dual_norm(self) -> float:
        return dual_norm(self.space, self.coefficients)


def norming_functional(space: NormedSpaceSpec, f: np.ndarray) -> DualFunctional:
    """The unique functional with ||F||* = 1 and <F, f> = ||f||.

    Closed form F_i = sign(f_i) |f_i / ||f|| |^(q-1); raises on the zero
    vector, where no norming functional is defined.
    """
    f = _check_dim(space, f)
    nf = norm(space, f)
    if nf == 0.0:
        raise ZeroVectorError("the zero vector has no norming functional")
    scaled = np.abs(f) / nf
    coeffs = np.sign(f) * np.power(scaled, space.q - 1.0)
    return DualFunctional(coefficients=coeffs, space=space)


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Finitely many unit-norm atoms, one per column of ``atoms``."""

    atoms: np.ndarray
    space: NormedSpaceSpec

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] == 0:
            raise EmptyDictionaryError("dictionary needs at least one atom")
        if atoms.shape[0] != self.space.dim:
            raise DimensionMismatchError(self.space.dim, atoms.shape[0], "atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "atoms", atoms)
        for j in range(atoms.shape[1]):
            nj = norm(self.space, atoms[:, j])
            if abs(nj - 1.0) > _ATOM_TOL:
                raise AtomNormalizationError(j, nj)

    @property
    def size(self) -> int:
        return self.atoms.shape[1]

    def atom(self, j: int) -> np.ndarray:
        return self.atoms[:, j]

    @cached_property
    def _range(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank-truncated SVD (U_r, s_r, V_r) of the atom matrix."""
        U, s, Vt = np.linalg.svd(self.atoms, full_matrices=False)
        rank = int((s > (s[0] if s.size else 0.0) * 1e-12).sum())
        return U[:, :rank], s[:rank], Vt[:rank]

    def pairings(self, f_coeffs: np.ndarray) -> np.ndarray:
        """Vector of <F, g_j> for a functional coefficient vector."""
        w = self.space.weight_vector()
        return (w * np.asarray(f_coeffs, dtype=float)) @ self.atoms

    def to_json(self) -> dict:
        return {"atoms": self.atoms.tolist(), "space": self.space.to_json()}

    @classmethod
    def from_json(cls, doc: dict) -> "Dictionary":
        return cls(atoms=np.asarray(doc["atoms"], dtype=float),
                   space=NormedSpaceSpec.from_json(doc["space"]))


def canonical_dictionary(dim: int, q: float) -> Dictionary:
    """Coordinate vectors as atoms of the sequence space l_q^dim."""
    return Dictionary(atoms=np.eye(dim), space=sequence_space(dim, q))


def _l1_lp(f: np.ndarray, dictionary: Dictionary,
           span_tol: float) -> tuple[float, np.ndarray]:
    f = _check_dim(dictionary.space, f)
    n = dictionary.size
    fnorm2 = float(np.linalg.norm(f))
    if fnorm2 == 0.0:
        return 0.0, np.zeros(n)
    Ur, sr, Vr = dictionary._range
    if sr.size == 0:
        raise SpanMembershipError(1.0, span_tol)
    coords = Ur.T @ f
    residual = float(np.linalg.norm(f - Ur @ coords)) / fnorm2
    if residual > span_tol:
        raise SpanMembershipError(residual, span_tol)
    # split c = c+ - c-; equality constraints projected onto the column space
    A_eq = np.hstack([sr[:, None] * Vr, -(sr[:, None] * Vr)])
    res = linprog(c=np.ones(2 * n), A_eq=A_eq, b_eq=coords,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise SpanMembershipError(residual, span_tol)
    x = np.asarray(res.x)
    return max(float(res.fun), 0.0), x[:n] - x[n:]


def norm_A(f: np.ndarray, dictionary: Dictionary, *, span_tol: float = 1e-8) -> float:
    """Minimal sum |c_j| over exact representations f = sum c_j g_j.

    Solved as an exact linear program after projecting the equality
    constraints onto the dictionary's column space; raises
    SpanMembershipError (naming the relative least-squares residual)
    when f lies outside the span.
    """
    return _l1_lp(f, dictionary, span_tol)[0]


def minimal_l1_coefficients(f: np.ndarray, dictionary: Dictionary,
                            *, span_tol: float = 1e-8) -> np.ndarray:
    """A coefficient vector attaining norm_A(f); same LP, solution returned."""
    return _l1_lp(f, dictionary, span_tol)[1]


def norm_U(F, dictionary: Dictionary) -> float:
    """max_j |<F, g_j>| for a functional F (DualFunctional or coefficients).

    Equals the supremum of |<F, f>| over the norm_A unit ball: the hull
    is absolutely convex, so the supremum sits at an atom with a sign.
    """
    coeffs = F.coefficients if isinstance(F, DualFunctional) else F
    return float(np.abs(dictionary.pairings(coeffs)).max())


def smoothness_bound(space: NormedSpaceSpec, u: float) -> float:
    """Analytic upper bound for the modulus of smoothness at u >= 0."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    q = space.q
    if q <= 2.0:
        return (u ** q) / q
    return (q - 1.0) * u * u / 2.0


def _sphere(space: NormedSpaceSpec, v: np.ndarray) -> np.ndarray:
    return v / norm(space, v)


def estimate_modulus(space: NormedSpaceSpec, u: float,
                     *, trials: int = 8, seed: int = 0,
                     steps: int = 400) -> float:
    """Lower estimate of rho(u) = sup (||x+uy|| + ||x-uy||)/2 - 1 on the sphere.

    Randomized starts followed by projected gradient ascent with
    backtracking.  Every evaluation uses feasible points, so the result
    is a true lower bound up to float rounding.
    """
    if u < 0:
        raise ValueError("u must be nonnegative")
    if u == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    d = space.dim

    def value(x, y):
        return 0.5 * (norm(space, x + u * y) + norm(space, x - u * y)) - 1.0

    def grad_of_norm(v):
        # gradient of ||.|| at v (the norming functional scaled by weights)
        nv = norm(space, v)
        if nv == 0.0:
            return np.zeros_like(v)
        w = space.weight_vector()
        return w * np.sign(v) * np.power(np.abs(v) / nv, space.q - 1.0)

    def ascend(x, y):
        best = value(x, y)
        eta = 0.5
        for _ in range(steps):
            gp = grad_of_norm(x + u * y)
            gm = grad_of_norm(x - u * y)
            gx = 0.5 * (gp + gm)
            gy = 0.5 * u * (gp - gm)
            # remove radial components, then renormalize after the step
            gx = gx - (gx @ x) / max(x @ x, 1e-300) * x
            gy = gy - (gy @ y) / max(y @ y, 1e-300) * y
            moved = False
            while eta > 1e-13:
                xn = _sphere(space, x + eta * gx)
                yn = _sphere(space, y + eta * gy)
                cand = value(xn, yn)
                if cand > best + 1e-16:
                    x, y, best = xn, yn, cand
                    moved = True
                    eta *= 1.5
                    break
                eta *= 0.5
            if not moved:
                break
        return best

    best = 0.0
    starts = []
    if d >= 2:
        e1, e2 = np.zeros(d), np.zeros(d)
        e1[0], e2[1] = 1.0, 1.0
        starts.append((_sphere(space, e1), _sphere(space, e2)))
    for _ in range(trials):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        if norm(space, x) == 0.0 or norm(space, y) == 0.0:
            continue
        starts.append((_sphere(space, x), _sphere(space, y)))
    for x, y in starts:
        best = max(best, ascend(x, y))
    return max(best, 0.0)
