"""Finite-dimensional normed spaces, their measure, and dictionary norms.

Two norm families are supported: plain l_q on R^dim and L_q(mu) over a
discrete probability measure.  A space's weights decide its family:
none make it l_q^dim, and given weights make it L_q(mu).  Both are
uniformly smooth for q > 1; for q in (1, 2] the modulus of smoothness
satisfies rho(u) <= u^q / q, for q >= 2 it satisfies
rho(u) <= (q - 1) u^2 / 2.

The module owns the measure: ``MeasureSpace`` is the one place where
weights are checked (finite, strictly positive, summing to one), and
one weighted power norm serves ``norm``, ``dual_norm``,
``MeasureSpace.norm`` and every stack of vectors measured at once, each
row rounding as the vector alone; only the cover metrics' row norms
pair a matrix with the weights in one product, which rounds
differently.  A functional is a plain coefficient vector; ``pair``
integrates it against the measure, and ``norming_functional`` returns
the coefficients of the functional that norms a vector.

On top of the ambient norm the module provides the two norms attached
to a dictionary D = {g_1, ..., g_n} of unit atoms:

* ``norm_A``: the minimal l1 coefficient norm over exact representations
  f = sum c_j g_j.  Independent atoms give a unique representation, read
  off the atom matrix's SVD; dependent ones take an exact linear program.
  Its unit ball is the absolutely convex hull of the atoms.
* ``norm_U``: the dual quantity max_j |<F, g_j>| for a functional F.
  The supremum of |<F, f>| over the norm_A unit ball is attained at an
  atom (with sign), which is the duality identity tested throughout.

``smoothness_bound`` evaluates the analytic bounds on the modulus of
smoothness above.

The package's input rules are defined here once, each raising a
``ValueError`` whose text starts with the argument's name: an integer
in [lo, hi] (``_integer``), a finite real >= lo (``_real``), a finite
exponent in (1, hi] (``_exponent``), a level list (``_levels``) and an
index vector (``_indices``).  None of them takes a bool or a string,
and the real rules refuse NaN and inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "MeasureSpace",
    "NormedSpaceSpec",
    "Dictionary",
    "sequence_space",
    "discrete_space",
    "canonical_dictionary",
    "norm",
    "pair",
    "dual_norm",
    "norming_functional",
    "norm_A",
    "norm_U",
    "smoothness_bound",
]

_WEIGHT_TOL = 1e-12
_ATOM_TOL = 1e-10
_SPAN_TOL = 1e-8  # relative least-squares residual that still counts as in the span
_FLOAT_MAX = float(np.finfo(float).max)  # inf, and an integer above it, has no finite float


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool is not one, nor is an integral float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python or numpy real, inf and NaN included; a bool or a string is not one."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _integer(name: str, value, lo, hi):
    """``value`` when it is an integer in [lo, hi], else a ValueError naming ``name``."""
    if _is_int(value) and lo <= value <= hi:
        return value
    span = "" if lo == -math.inf else f" >= {lo}" if hi == math.inf else f" in [{lo}, {hi}]"
    raise ValueError(f"{name}: need an integer{span}, got {value!r}")


def _real(name: str, value, lo) -> float:
    """``value`` as a float when it is a finite real >= lo, else a ValueError naming ``name``."""
    if _is_real(value) and lo <= value <= _FLOAT_MAX:  # NaN fails both comparisons
        return float(value)
    raise ValueError(f"{name}: need a finite real number >= {lo}, got {value!r}")


def _exponent(name: str, value, hi) -> float:
    """``value`` as a float when it is a finite exponent in (1, hi], else a ValueError."""
    if _is_real(value) and 1 < value <= min(hi, _FLOAT_MAX):
        return float(value)
    span = "> 1" if hi == math.inf else f"in (1, {hi}]"
    raise ValueError(f"{name}: need a finite exponent {span}, got {value!r}")


def _levels(name: str, value, lo, hi) -> list[int]:
    """A list, tuple or 1-D array of increasing integers in [lo, hi], as a list of ints."""
    listed = isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) == 1
    if not listed or not len(value):
        raise ValueError(f"{name}: must be a nonempty list, got {value!r}")
    if not all(_is_int(v) for v in value):
        raise ValueError(f"{name}: entries must be integers, got {value!r}")
    if value[0] < lo or any(a >= b for a, b in zip(value, value[1:])):
        raise ValueError(f"{name}: must be increasing and >= {lo}, got {value!r}")
    if value[-1] > hi:
        raise ValueError(f"{name}: entries must stay <= {hi}, got {value[-1]}")
    return [int(v) for v in value]


def _indices(value) -> np.ndarray:
    """A 1-D vector of nonnegative integers: -1 is not read from the end, nor 1.7 as 1."""
    idx = np.asarray(value)
    # entry by entry, since numpy reads [0, True] as integers and [] as floats
    if idx.ndim != 1 or not all(_is_int(v) for v in value) or np.any(idx < 0):
        raise ValueError(f"indices must be nonnegative integers, got {value!r}")
    return idx.astype(int)


def _power_norm(values: np.ndarray, w: np.ndarray, q: float):
    """(sum_i w_i |v_i|^q)^(1/q) of a vector, or of every row of a stack.

    The peak is factored out so that large q does not underflow; at
    q = inf the weighted sum is raised to the power 0, which leaves the
    peak.  Each row is paired with w by a dot product of its own
    (``np.vecdot``, numpy 2.0 on), the one w @ v takes on a vector, and
    the stack is laid out in C order first, since a strided row pairs
    differently.  So every row of a stack rounds exactly as the same
    vector alone, whatever the stack's size or layout; checked bit for
    bit on numpy 2.4.6 with OpenBLAS.  A vector's norm is a float, a
    stack's an array.
    """
    a = np.abs(values, order="C")
    stack = a.ndim > 1
    peak = a.max(axis=-1, keepdims=stack, initial=0.0)
    # a zero row is divided by 1, so its norm reads 0 at every q
    scaled = np.power(a / (peak + (peak == 0.0)), q)
    sums = np.vecdot(scaled, w)
    if stack:
        return peak[:, 0] * np.power(sums, 1.0 / q)
    return float(peak) * float(np.power(sums, 1.0 / q))


def _matrix_power_norm(M: np.ndarray, w: np.ndarray, q: float) -> np.ndarray:
    """``_power_norm`` of every row of a matrix, paired as the one product M @ w.

    A matrix product rounds differently from a row's own dot product, so
    a value may differ from ``_power_norm`` of its row in the last bit.
    The cover metrics' row norms read this path.
    """
    a = np.abs(M)
    top = a.max(axis=1)
    scaled = a / np.where(top > 0.0, top, 1.0)[:, None]
    return top * np.power(np.power(scaled, q) @ w, 1.0 / q)


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finitely many points with positive weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError(
                f"weights must sum to 1 within {_WEIGHT_TOL:.0e}, "
                f"got {float(w.sum())!r}")

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @classmethod
    def uniform(cls, size: int) -> "MeasureSpace":
        return cls(np.full(_integer("size", size, 1, math.inf), 1.0 / size))

    def norm(self, values: np.ndarray, p: float) -> float:
        """||values||_{L_p(mu)} of a vector or of each stacked row; p = inf reads the peak."""
        return _power_norm(values, self.weights, p)


@dataclass(frozen=True, eq=False)
class NormedSpaceSpec:
    """Dimension, exponent q > 1 and, for L_q(mu), the measure's weights.

    No weights make the space l_q^dim; weights make it L_q(mu) over
    ``dim`` points, and ``MeasureSpace`` checks them.
    """

    dim: int
    q: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        _integer("dim", self.dim, 1, math.inf)
        _exponent("q", self.q, math.inf)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.dim,):
                raise DimensionMismatchError(self.dim, w.shape, "weight vector")
            object.__setattr__(self, "weights", MeasureSpace(w).weights)

    @property
    def dual_exponent(self) -> float:
        return self.q / (self.q - 1.0)

    def weight_vector(self) -> np.ndarray:
        return self._unit_weights if self.weights is None else self.weights

    @cached_property
    def _unit_weights(self) -> np.ndarray:
        """Read-only vector of ones, built once per sequence space."""
        ones = np.ones(self.dim)
        ones.flags.writeable = False
        return ones

    def to_json(self) -> dict:
        doc = {"dim": self.dim, "q": self.q}
        if self.weights is not None:
            doc["weights"] = [float(w) for w in self.weights]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "NormedSpaceSpec":
        """Read ``to_json`` output; older documents also name the kind."""
        weights = doc.get("weights")
        kind = doc.get("norm_kind")
        if kind not in (None, "sequence_lq", "discrete_lq_mu"):
            raise ValueError(f"unknown norm kind {kind!r}")
        if kind is not None and (kind == "discrete_lq_mu") != (weights is not None):
            raise ValueError(f"norm kind {kind!r} contradicts the weights")
        return cls(
            dim=doc["dim"],
            q=doc["q"],
            weights=None if weights is None else np.asarray(weights, dtype=float),
        )


def sequence_space(dim: int, q: float) -> NormedSpaceSpec:
    return NormedSpaceSpec(dim=dim, q=q)


def discrete_space(weights: np.ndarray, q: float) -> NormedSpaceSpec:
    w = np.asarray(weights, dtype=float)
    return NormedSpaceSpec(dim=w.size, q=q, weights=w)


def _check_dim(space: NormedSpaceSpec, x: np.ndarray, what: str = "vector") -> np.ndarray:
    """x as a float vector of the space; a wrong length or a non-finite entry raises."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.dim,):
        raise DimensionMismatchError(space.dim, x.shape, what)
    if not np.isfinite(x).all():
        raise ValueError(f"the {what} must be finite")
    return x


def _check_rows(space: NormedSpaceSpec, x: np.ndarray) -> np.ndarray:
    """x as a float matrix whose every row passes ``_check_dim``."""
    x = np.asarray(x, dtype=float)
    if x.shape[1:] != (space.dim,):
        raise DimensionMismatchError(space.dim, x.shape[1:])  # the shape of a row
    if not np.isfinite(x).all():
        raise ValueError("the vector must be finite")
    return x


def norm(space: NormedSpaceSpec, x: np.ndarray) -> float:
    """(Sum w_i |x_i|^q)^(1/q)."""
    return _power_norm(_check_dim(space, x), space.weight_vector(), space.q)


def pair(space: NormedSpaceSpec, f_coeffs: np.ndarray, x: np.ndarray) -> float:
    """Duality pairing <F, x>; integrates against the measure when present."""
    f_coeffs = _check_dim(space, f_coeffs, "functional")
    x = _check_dim(space, x)
    return float((space.weight_vector() * f_coeffs) @ x)


def dual_norm(space: NormedSpaceSpec, f_coeffs: np.ndarray) -> float:
    """Norm of a functional in the dual exponent q' = q / (q - 1)."""
    return _power_norm(_check_dim(space, f_coeffs, "functional"),
                       space.weight_vector(), space.dual_exponent)


def norming_functional(space: NormedSpaceSpec, f: np.ndarray) -> np.ndarray:
    """Coefficients of the unique functional with ||F||* = 1 and <F, f> = ||f||.

    Closed form F_i = sign(f_i) |f_i / ||f|| |^(q-1); raises on the zero
    vector, where no norming functional is defined.
    """
    f = _check_dim(space, f)
    nf = _power_norm(f, space.weight_vector(), space.q)  # norm(space, f), checked once
    if nf == 0.0:
        raise ZeroVectorError("the zero vector has no norming functional")
    return np.sign(f) * np.power(np.abs(f) / nf, space.q - 1.0)


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
        norms = _power_norm(atoms.T, self.space.weight_vector(), self.space.q)
        bad = np.flatnonzero(np.abs(norms - 1.0) > _ATOM_TOL)
        if bad.size:
            j = int(bad[0])
            raise AtomNormalizationError(j, float(norms[j]))

    @property
    def size(self) -> int:
        return self.atoms.shape[1]

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


def _l1_lp(f: np.ndarray, dictionary: Dictionary) -> tuple[float, np.ndarray]:
    f = _check_dim(dictionary.space, f)
    n = dictionary.size
    fnorm2 = float(np.linalg.norm(f))
    if fnorm2 == 0.0:
        return 0.0, np.zeros(n)
    Ur, sr, Vr = dictionary._range
    if sr.size == 0:
        raise SpanMembershipError(1.0, _SPAN_TOL)
    # HiGHS's tolerances are absolute, so the LP sees f / ||f||_2 and the
    # value and coefficients are scaled back
    fs = f / fnorm2
    coords = Ur.T @ fs
    residual = float(np.linalg.norm(fs - Ur @ coords))
    if residual > _SPAN_TOL:
        raise SpanMembershipError(residual, _SPAN_TOL)
    if sr.size == n:
        # independent atoms: the representation is unique, so no LP is needed
        c = Vr.T @ (coords / sr)
        return float(np.abs(c).sum()) * fnorm2, c * fnorm2
    # split c = c+ - c-; equality constraints projected onto the column space
    A_eq = np.hstack([sr[:, None] * Vr, -(sr[:, None] * Vr)])
    res = linprog(c=np.ones(2 * n), A_eq=A_eq, b_eq=coords,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise SpanMembershipError(residual, _SPAN_TOL)
    x = np.asarray(res.x)
    return max(float(res.fun), 0.0) * fnorm2, (x[:n] - x[n:]) * fnorm2


def norm_A(f: np.ndarray, dictionary: Dictionary) -> float:
    """Minimal sum |c_j| over exact representations f = sum c_j g_j.

    Linearly independent atoms (rank of the atom matrix equal to its
    column count, as for coordinate atoms) admit one representation,
    read off the cached SVD in closed form.  Dependent atoms take an
    exact linear program with the equality constraints projected onto
    the dictionary's column space.  Either way f lying outside the span
    raises SpanMembershipError, naming the relative least-squares
    residual.
    """
    return _l1_lp(f, dictionary)[0]


def norm_U(F: np.ndarray, dictionary: Dictionary) -> float:
    """max_j |<F, g_j>| for a functional F given by its coefficients.

    Equals the supremum of |<F, f>| over the norm_A unit ball: the hull
    is absolutely convex, so the supremum sits at an atom with a sign.
    """
    return float(np.abs(dictionary.pairings(F)).max())


def smoothness_bound(space: NormedSpaceSpec, u: float) -> float:
    """Analytic upper bound for the modulus of smoothness at u >= 0."""
    u = _real("u", u, 0)
    q = space.q
    if q <= 2.0:
        return (u ** q) / q
    return (q - 1.0) * u * u / 2.0
