"""Seeded inputs, operations and independent output checks per workload.

An operation is one call to a public entry point of ``entrobound``.  Every
call goes through a module attribute looked up at call time, so the traced
mode can wrap those attributes without touching the package source.

Inputs are stratified: the sizes, support lengths and instance shapes of a
round are fixed, and the seed chooses only the values inside them.  The work
of a round therefore depends little on the seed, which keeps the run-to-run
spread of the timings small.

Each check recomputes what it needs in plain numpy and returns a list of
problems; an empty list means the operation's output is correct.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import entrobound.discretization as D
import entrobound.entropy as E
import entrobound.greedy as G
import entrobound.harness as H
import entrobound.spaces as S

_REL = 1e-9          # relative slack for values the program computes exactly
_MP_GAP = 1e-4       # direct and dual M_p must agree this closely
_ENUM_CELLS = 4_000_000  # largest N * C(N, b) * b handled by subset enumeration


@dataclass
class Op:
    """One timed call and the check of its result."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


def _rngs(seed: int, tag: int, count: int) -> list[np.random.Generator]:
    ss = np.random.SeedSequence([seed, tag])
    return [np.random.default_rng(child) for child in ss.spawn(count)]


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


# ---------------------------------------------------------------------------
# input generators

def octahedron_samples(rng, n: int, count: int) -> np.ndarray:
    """Signed Dirichlet mixtures of coordinate atoms, supports log-spaced over [1, n]."""
    sizes = np.clip(np.rint(np.exp(np.linspace(0.0, math.log(n), count))), 1, n)
    rows = np.zeros((count, n))
    for row, k in zip(rows, sizes.astype(int)):
        row[rng.choice(n, size=k, replace=False)] = (
            rng.choice([-1.0, 1.0], size=k) * rng.dirichlet(np.ones(k)))
    return rows


def octahedron_witness(rng, n: int, size: int) -> np.ndarray:
    """Vertices, equal-mass dyadic mixtures, then log-spaced Dirichlet mixtures."""
    rows = [np.eye(n), -np.eye(n)]
    level = 2
    while level <= n:
        mixtures = np.zeros((3, n))
        for row in mixtures:
            signs = rng.choice([-1.0, 1.0], size=level)
            row[rng.choice(n, size=level, replace=False)] = signs / level
        rows.append(mixtures)
        level *= 2
    have = sum(r.shape[0] for r in rows)
    rows.append(octahedron_samples(rng, n, max(size - have, 0)))
    return np.vstack(rows)


def weighted_subspace(rng, dim: int, support: int, uniform: bool):
    """A seeded subspace, orthonormal in the weighted inner product."""
    if uniform:
        mu = np.full(support, 1.0 / support)
    else:
        w = rng.uniform(0.5, 1.5, support)
        mu = w / w.sum()
    root = np.sqrt(mu)
    Q, R = np.linalg.qr(root[:, None] * rng.standard_normal((support, dim)))
    basis = (Q * np.sign(np.diag(R))) / root[:, None]
    return mu, basis


def _subspace(mu, basis):
    # built inside each call so that no cached kernel or complement survives
    # from one round to the next
    return D.Subspace(D.MeasureSpace(mu), basis)


def point_sets(rng) -> list[tuple[np.ndarray, int]]:
    """Gaussian and 4-cluster sets in dimension 2..4 with 2, 4 or 8 centers."""
    sets = []
    for dim in (2, 3, 4):
        for k in (1, 2, 3):
            for clustered in (False, True):
                for count in (20, 48, 96):
                    pts = rng.normal(size=(count, dim))
                    if clustered:
                        centers = rng.normal(scale=4.0, size=(4, dim))
                        pts = centers[rng.integers(0, 4, size=count)] + 0.3 * pts
                    sets.append((pts, k))
    return sets


# ---------------------------------------------------------------------------
# independent checks

def _close(value, ref, rel=_REL) -> bool:
    return abs(value - ref) <= rel * abs(ref) + 1e-12


def lq_tail(samples: np.ndarray, m: int, q: float) -> float:
    """max over rows of the l_q norm left after dropping the m largest entries."""
    mags = -np.sort(-np.abs(samples), axis=1)[:, m:]
    return float((mags ** q).sum(axis=1).max() ** (1.0 / q)) if mags.size else 0.0


def check_sigma(values, samples: np.ndarray, m_list, q: float) -> list[str]:
    problems = []
    l1 = np.abs(samples).sum(axis=1).max()
    if l1 > 1.0 + 1e-12:
        problems.append(f"a sample leaves the atom hull: l1 norm {l1!r}")
    for m, value in zip(m_list, map(float, values)):
        ref = lq_tail(samples, m, q)
        if not _close(value, ref):
            problems.append(f"sigma at m={m}: {value!r}, l_q tail {ref!r}")
        if q == 2.0 and value > 0.5 / math.sqrt(m) + 1e-12:
            problems.append(f"sigma at m={m}: {value!r} > 1/(2 sqrt m)")
    return problems


def delannoy(m: int, M: int) -> int:
    """#{z in Z^m : sum |z_i| <= M}, as sum_j C(m, j) C(M + m - j, m)."""
    return sum(math.comb(m, j) * math.comb(M + m - j, m) for j in range(m + 1))


def _abs_power(a: np.ndarray, q: float) -> np.ndarray:
    """a ** q for a >= 0, with the common exponents spelled out for speed."""
    if q == 2.0:
        return a * a
    if q == 1.5:
        return a * np.sqrt(a)
    return a ** q


def check_covers(certs: dict, witness: np.ndarray, n: int, q: float) -> list[str]:
    problems = []
    for k, cert in certs.items():
        m, M = cert.extra["m"], cert.extra["grid_radius"]
        recount = math.comb(n, m) * delannoy(m, M) if m else 1
        if cert.count_bound != recount or recount > 2 ** k:
            problems.append(f"k={k}: count bound {cert.count_bound}, "
                            f"recount {recount}, budget 2^{k}")
        centers = np.atleast_2d(cert.centers)
        worst = 0.0
        for lo in range(0, witness.shape[0], 64):
            diff = np.abs(witness[lo:lo + 64, None, :] - centers[None, :, :])
            # the power sum of the nearest center is the smallest one
            power = (_abs_power(diff, q).sum(axis=2)).min(axis=1).max()
            worst = max(worst, float(power) ** (1.0 / q))
        if worst > cert.radius * (1.0 + _REL) + 1e-12:
            problems.append(f"k={k}: witness at distance {worst!r} > radius {cert.radius!r}")
    return problems


def check_profile(lower, upper, trivial: float, what: str) -> list[str]:
    lower, upper = np.asarray(lower), np.asarray(upper)
    slack = 1e-12 * max(trivial, 1.0)
    if np.any(lower < 0) or np.any(lower > upper + slack) or np.any(upper > trivial + slack):
        return [f"{what}: need 0 <= lower <= upper <= {trivial!r}, got {lower} / {upper}"]
    return []


def check_envelope(ks, upper, envelope, ratio, n: int, exponent: float,
                   scale: float = 1.0) -> list[str]:
    ks = np.asarray(ks, dtype=float)
    ref = scale * (np.log2(2.0 * n / ks) / ks) ** exponent
    if not np.allclose(envelope, ref, rtol=_REL, atol=0.0):
        return [f"envelope {list(envelope)} differs from {list(ref)}"]
    if not np.allclose(ratio, np.asarray(upper) / ref, rtol=_REL, atol=0.0):
        return ["ratio column is not upper / envelope"]
    return []


def m2_closed_form(basis: np.ndarray) -> float:
    return float(np.sqrt((basis ** 2).sum(axis=1).max()))


def mp_sample_lower(rng_seed: int, mu, basis, p: float, trials: int = 256) -> float:
    """max ||f||_inf / ||f||_p over random subspace elements and kernel sections."""
    rng = np.random.default_rng(rng_seed)
    F = np.hstack([basis @ rng.standard_normal((basis.shape[1], trials)),
                   basis @ basis.T])  # columns are functions on the support
    lp = (mu[:, None] * np.abs(F) ** p).sum(axis=0) ** (1.0 / p)
    return float((np.abs(F).max(axis=0) / lp).max())


def check_mp(value: float, mu, basis, p: float, lower_seed: int) -> list[str]:
    lo = mp_sample_lower(lower_seed, mu, basis, p)
    hi = m2_closed_form(basis)
    if not lo * (1.0 - _REL) <= value <= hi * (1.0 + _REL):
        return [f"M_{p:g} = {value!r} outside [{lo!r}, {hi!r}]"]
    if p == 2.0 and not _close(value, hi):
        return [f"M_2 = {value!r}, closed form {hi!r}"]
    return []


def enumerate_radius(Dm: np.ndarray, budget: int) -> float | None:
    """Best radius over all center subsets of size ``budget``; None if too many."""
    num = Dm.shape[0]
    if budget >= num:
        return 0.0
    if budget == 2:
        best = math.inf
        for a in range(num):
            best = min(best, float(np.minimum(Dm[:, a:a + 1], Dm[:, a:]).max(axis=0).min()))
        return best
    if num * math.comb(num, budget) * budget > _ENUM_CELLS:
        return None
    subsets = np.array(list(itertools.combinations(range(num), budget)))
    return float(Dm[:, subsets].min(axis=2).max(axis=0).min())


def traversal_bracket(Dm: np.ndarray, budget: int) -> tuple[float, float]:
    """Farthest-point traversal: packing/2 and the greedy-cover radius."""
    dmin = Dm[0].copy()
    for _ in range(budget - 1):
        dmin = np.minimum(dmin, Dm[int(np.argmax(dmin))])
    radius = float(dmin.max())  # next insertion distance = cover radius
    return radius / 2.0, radius


def check_exact(value: float, pts: np.ndarray, k: int) -> list[str]:
    Dm = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    budget = 2 ** k
    ref = enumerate_radius(Dm, budget)
    if ref is not None:
        if not _close(value, ref):
            return [f"exact radius {value!r}, enumeration {ref!r}"]
        return []
    lo, hi = traversal_bracket(Dm, budget)
    if not lo * (1.0 - _REL) <= value <= hi * (1.0 + _REL):
        return [f"exact radius {value!r} outside [{lo!r}, {hi!r}]"]
    return []


# ---------------------------------------------------------------------------
# harness runs at exponent 2

def _report_check(fn):
    def check(result):
        report, text = result
        if not text:
            return ["empty rendered report"]
        return fn(report)
    return check


def _harness_op(experiment: str, check, **fields) -> Op:
    cfg = H.ExperimentConfig(experiment=experiment, **fields)
    return Op(f"run:{experiment}", lambda: H.run(cfg), _report_check(check))


def _sigma_decay_run(seed: int) -> Op:
    n, count, m_list = 256, 50, [4, 8, 16, 32, 64]

    def check(report):
        samples = np.stack([s["vector"] for s in G.sample_octahedron(
            S.canonical_dictionary(n, 2.0), count, seed)])
        return check_sigma(report.columns["sigma"], samples, m_list, 2.0)
    return _harness_op("sigma-decay", check, seed=seed, q=2.0, n=n,
                       m_list=m_list, samples=count)


def _ball_entropy_run(seed: int) -> Op:
    n = 32

    def check(report):
        c = report.columns
        return (check_profile(c["lower"], c["upper"], 1.0, "ball profile")
                + check_envelope(c["k"], c["upper"], c["envelope"], c["ratio"], n, 0.5))
    return _harness_op("ball-entropy", check, seed=seed, p=2.0, n=n)


def _mp_duality_run(seed: int, p: float, trials: int) -> Op:
    dim, support = 4, 64

    def check(report):
        c = report.columns
        problems = []
        for trial, sub_seed, uniform, direct, dual in zip(
                c["trial"], c["seed"], c["uniform"], c["direct"], c["dual"]):
            if abs(direct - dual) > _MP_GAP:
                problems.append(f"trial {trial}: direct {direct!r}, dual {dual!r}")
            if uniform:
                sub = D.random_subspace(dim, support, sub_seed)
                problems += check_mp(direct, sub.measure.weights, sub.basis, p, sub_seed)
            elif direct < 1.0 - 1e-12:
                # the weighted measure stays inside the runner; a probability
                # measure still gives ||f||_p <= ||f||_inf, so M_p >= 1
                problems.append(f"trial {trial}: M_p = {direct!r} < 1")
        return problems
    return _harness_op("mp-duality", check, seed=seed, p=p, trials=trials,
                       subspace_dim=dim, support_size=support)


def _duality_check_run(seed: int) -> Op:
    def check(report):
        c = report.columns
        problems = (check_profile(c["hull_lower"], c["hull_upper"], 2.0, "hull brackets")
                    + check_profile(c["dual_lower"], c["dual_upper"], 2.0, "dual brackets"))
        p = report.metadata["p_exponent"]
        lo = sum(v ** p for v in c["dual_lower"]) / sum(v ** p for v in c["hull_upper"])
        hi = sum(v ** p for v in c["dual_upper"]) / sum(v ** p for v in c["hull_lower"])
        got_lo, got_hi = report.metadata["ratio_interval"]
        if not (_close(got_lo, lo) and _close(got_hi, hi)):
            problems.append(f"ratio interval {[got_lo, got_hi]}, recomputed {[lo, hi]}")
        if report.metadata["contains_one"] != (lo <= 1.0 <= hi):
            problems.append("contains_one disagrees with the interval")
        return problems
    return _harness_op("duality-check", check, seed=seed, q=2.0)


# ---------------------------------------------------------------------------
# library calls on benchmark inputs

def _sigma_profile_op(rng, q: float) -> Op:
    n, m_list = 256, [4, 8, 16, 32, 64]
    samples = octahedron_samples(rng, n, 50)
    rows = list(samples)
    return Op(f"sigma_profile:q={q:g}",
              lambda: G.sigma_profile(rows, S.canonical_dictionary(n, q), m_list),
              lambda prof: check_sigma(prof.values, samples, m_list, q))


def _cover_profile_op(rng, q: float) -> Op:
    n, k_list = 64, [6, 12, 24, 64]
    witness = octahedron_witness(rng, n, 400)
    return Op(f"octahedron_cover_profile:q={q:g}",
              lambda: E.octahedron_cover_profile(
                  G.Octahedron(S.canonical_dictionary(n, q)), k_list, sample=witness),
              lambda certs: check_covers(certs, witness, n, q))


def _it1_op(rng, p: float, dim: int, support: int, n: int, k_list,
            cover_sample: int) -> Op:
    mu, basis = weighted_subspace(rng, dim, support, uniform=True)
    pts = np.sort(rng.choice(support, n, replace=False))
    lower_seed = _sub_seed(rng)

    def call():
        return D.it1_experiment(_subspace(mu, basis), D.SamplePointSet(pts), p,
                                k_list, seed=lower_seed,
                                cover_sample_size=cover_sample)

    def check(res):
        prof = res.profile
        return (check_mp(res.m_p, mu, basis, p, lower_seed)
                + check_profile(prof.lower, prof.upper, res.m_p, "it1 profile")
                + check_envelope(prof.k_list, prof.upper, res.envelope,
                                 res.upper_ratio, n, 1.0 / p, res.m_p))
    return Op(f"it1_experiment:p={p:g}", call, check)


def _exact_ops(rng) -> list[Op]:
    ops = []
    for pts, k in point_sets(rng):
        metric = E.AmbientMetric(S.sequence_space(pts.shape[1], 2.0))
        ops.append(Op(f"exact_entropy_small:k={k}",
                      lambda pts=pts, k=k, metric=metric: E.exact_entropy_small(pts, k, metric),
                      lambda value, pts=pts, k=k: check_exact(value, pts, k)))
    return ops


# ---------------------------------------------------------------------------
# workloads

def _closed_form(seed: int) -> list[Op]:
    ops = []
    for rng in _rngs(seed, 0, 2):
        ops += [
            _sigma_decay_run(_sub_seed(rng)),
            _ball_entropy_run(_sub_seed(rng)),
            _mp_duality_run(_sub_seed(rng), 2.0, 20),
            _duality_check_run(_sub_seed(rng)),
            _cover_profile_op(rng, 2.0),
            _it1_op(rng, 2.0, 8, 256, 64, [6, 12, 24, 64], 320),
        ]
    ops += _exact_ops(_rngs(seed, 1, 1)[0])
    return ops


def _greedy_newton(seed: int) -> list[Op]:
    rng, = _rngs(seed, 2, 1)
    return [_sigma_profile_op(rng, 1.5), _cover_profile_op(rng, 1.5)]


def _subspace_newton(seed: int) -> list[Op]:
    rng, = _rngs(seed, 3, 1)
    # ten calls of two trials each (one uniform, one weighted measure): the
    # calls cost about the same, so the median operation is one of them
    ops = [_mp_duality_run(_sub_seed(rng), 3.0, 2) for _ in range(10)]
    return ops + [_it1_op(rng, 4.0, 6, 160, 16, [4, 8, 16], 64)]


# name -> builder of the fixed operation sequence of one round
WORKLOADS = {
    "closed-form": _closed_form,
    "greedy-newton": _greedy_newton,
    "subspace-newton": _subspace_newton,
}
