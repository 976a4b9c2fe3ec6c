"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every test re-runs its experiment from scratch at the full advertised
scale, asserts the stated tolerance, and checks the stated time budget.
Seeds are fixed; none of them was needed to make a criterion pass, the
margins are wide across seeds.
"""

import math
import time

import numpy as np
from scipy.optimize import linprog
from conftest import record_criterion

from entrobound import (
    AmbientMetric,
    Dictionary,
    FitModel,
    MeasureSpace,
    SamplePointSet,
    ball_entropy_experiment,
    best_mterm_bruteforce,
    build_discretization_dictionary,
    canonical_dictionary,
    duality_sum_check,
    exact_cover_count,
    exact_entropy_small,
    farthest_point_packing,
    fit_envelope,
    greedy_cover,
    it1_experiment,
    log_ratio_envelope,
    m_p_direct,
    m_p_dual,
    norm,
    norm_U,
    random_subspace,
    sample_octahedron,
    sequence_space,
    sigma_profile,
    verify_transfer,
    wcga,
)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    record_criterion(line)
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_greedy_residual_decay():
    """Worst-case m-term decay beats the target log-log slopes."""
    start = time.monotonic()
    slopes = {}
    for q in (2.0, 1.5):
        d = canonical_dictionary(256, q)
        samples = [s["vector"] for s in sample_octahedron(d, 50, seed=7)]
        m_list = [4, 8, 16, 32, 64]
        values = sigma_profile(samples, d, m_list).values
        slopes[q] = fit_envelope((m_list, values), model=FitModel.POWER_M).exponent
    elapsed = time.monotonic() - start
    ok = slopes[2.0] <= -0.40 and slopes[1.5] <= -0.25 and elapsed <= 120.0
    _report(1, ok, f"slope(q=2)={slopes[2.0]:.4f} <= -0.40, "
                   f"slope(q=1.5)={slopes[1.5]:.4f} <= -0.25 ({elapsed:.1f}s)")


def test_criterion_02_greedy_is_optimal_on_orthonormal_atoms():
    """WCGA with t=1 matches best m-term approximation exactly."""
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = Dictionary(Q, sequence_space(n, 2.0))
        f = rng.standard_normal(n)
        for m in range(n + 1):
            gap = abs(wcga(f, d, m).residual_norm
                      - best_mterm_bruteforce(f, d, m).residual_norm)
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed <= 60.0
    _report(2, ok, f"max |greedy - bruteforce| = {worst:.3e} <= 1e-9 "
                   f"over 100 functions, all m ({elapsed:.1f}s)")


def test_criterion_03_max_pairing_solves_the_hull_program():
    """max_j |<F, g_j>| equals the LP optimum of <F, .> over the hull."""
    start = time.monotonic()
    rng = np.random.default_rng(5)
    worst_gap = 0.0
    worst_excess = 0.0
    for trial in range(1000):
        dim = int(rng.integers(1, 21))
        count = int(rng.integers(1, 21))
        space = sequence_space(dim, float(rng.uniform(1.2, 3.0)))
        atoms = rng.standard_normal((dim, count))
        atoms /= [norm(space, atoms[:, j]) for j in range(count)]
        d = Dictionary(atoms, space)
        F = rng.standard_normal(dim)
        value = norm_U(F, d)
        # sup <F, Ac> over sum |c| <= 1 via c = c+ - c-
        obj = (space.weight_vector() * F) @ atoms
        res = linprog(c=np.concatenate([-obj, obj]),
                      A_ub=np.ones((1, 2 * count)), b_ub=[1.0],
                      bounds=(0, None), method="highs")
        worst_gap = max(worst_gap, abs(value + res.fun))
        for s in sample_octahedron(d, 5, seed=trial):
            pairing = abs(float((space.weight_vector() * F) @ s["vector"]))
            worst_excess = max(worst_excess, pairing - value)
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-9 and worst_excess <= 1e-9
    _report(3, ok, f"max |norm_U - LP| = {worst_gap:.3e} <= 1e-9, "
                   f"max hull excess = {worst_excess:.3e} <= 1e-9 "
                   f"over 1000 pairs ({elapsed:.1f}s)")


def test_criterion_04_packing_and_greedy_sandwich_the_exact_oracle():
    """Finite sets: packing/2 lower-bounds the exact radius, greedy
    covers at the exact radius stay within 4x the optimal count."""
    start = time.monotonic()
    master = np.random.default_rng(2024)
    worst_ratio = 0.0
    packing_ok = True
    for trial in range(50):
        dim = int(master.integers(2, 5))
        count = int(master.integers(20, 201))
        pts = master.normal(size=(count, dim))
        if trial % 3 == 2:
            centers = master.normal(scale=4.0, size=(4, dim))
            pts = centers[master.integers(0, 4, size=count)] + 0.3 * pts
        k = int(master.integers(1, 4))
        metric = AmbientMetric(sequence_space(dim, 2.0))
        exact = exact_entropy_small(pts, k, metric)
        pack = farthest_point_packing(pts, 2 ** k + 1, metric)
        packing_ok = packing_ok and pack.separation / 2.0 <= exact + 1e-9
        greedy_count = greedy_cover(pts, exact, metric).count_bound
        optimal_count = exact_cover_count(pts, exact, metric)
        worst_ratio = max(worst_ratio, greedy_count / optimal_count)
    elapsed = time.monotonic() - start
    ok = packing_ok and worst_ratio <= 4.0 and elapsed <= 120.0
    _report(4, ok, f"packing/2 <= exact on 50 sets: {packing_ok}, "
                   f"worst greedy/optimal = {worst_ratio:.2f} <= 4 "
                   f"({elapsed:.1f}s)")


def test_criterion_05_ball_uppers_track_the_envelope():
    """l_2 ball uppers stay below 1 and within a factor-8 band of
    (log2(2n/k)/k)^(1/2) across n in {16, 32, 64} and all k."""
    start = time.monotonic()
    ratios = []
    max_upper = 0.0
    for n in (16, 32, 64):
        ks = list(range(math.ceil(math.log2(n)), n + 1))
        res = ball_entropy_experiment(2.0, n, ks, sample_size=2048, seed=0)
        envelope = log_ratio_envelope(n, np.asarray(ks, dtype=float), 0.5)
        ratios.extend((res.profile.upper / envelope).tolist())
        max_upper = max(max_upper, float(res.profile.upper.max()))
    spread = max(ratios) / min(ratios)
    elapsed = time.monotonic() - start
    ok = spread <= 8.0 and max_upper <= 1.0 + 1e-12 and elapsed <= 300.0
    _report(5, ok, f"ratio spread = {spread:.3f} <= 8, "
                   f"max upper = {max_upper:.6f} <= 1 ({elapsed:.1f}s)")


def test_criterion_06_uniform_norm_constant_two_routes():
    """Direct and dual computations of M_p agree on random subspaces."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    gaps = {2.0: 0.0, 3.0: 0.0, 4.0: 0.0}
    for trial in range(20):
        dim = int(rng.integers(1, 9))
        support = int(rng.integers(max(dim, 8), 129))
        if trial % 2 == 1:
            w = rng.uniform(0.5, 1.5, support)
            measure = MeasureSpace(w / w.sum())
        else:
            measure = None
        sub = random_subspace(dim, support, int(rng.integers(2 ** 31)),
                              measure=measure)
        for p in gaps:
            gaps[p] = max(gaps[p], abs(m_p_direct(sub, p) - m_p_dual(sub, p)))
    elapsed = time.monotonic() - start
    ok = gaps[2.0] <= 1e-6 and gaps[3.0] <= 1e-4 and gaps[4.0] <= 1e-4
    _report(6, ok, f"max gaps: p=2 {gaps[2.0]:.2e} <= 1e-6, "
                   f"p=3 {gaps[3.0]:.2e} <= 1e-4, p=4 {gaps[4.0]:.2e} <= 1e-4 "
                   f"over 20 subspaces ({elapsed:.1f}s)")


def test_criterion_07_dictionary_invariants_and_transfer():
    """Built dictionaries reproduce point evaluation, keep their norm
    bound, and never violate the transfer inequality."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    builds = [
        (3, 20, 2.0, False),
        (3, 20, 3.0, False),
        (4, 32, 4.0, True),
        (2, 48, 3.0, True),
    ]
    worst_repro = 0.0
    worst_norm_slack = -np.inf
    for dim, support, p, skew in builds:
        if skew:
            w = rng.uniform(0.5, 1.5, support)
            measure = MeasureSpace(w / w.sum())
        else:
            measure = None
        sub = random_subspace(dim, support, int(rng.integers(2 ** 31)),
                              measure=measure)
        pts = SamplePointSet(np.sort(rng.choice(support, support // 2,
                                                replace=False)))
        ddict = build_discretization_dictionary(sub, pts, p)
        mu = sub.measure.weights
        repro = sub.basis.T @ (mu[:, None] * ddict.w_vectors.T)
        worst_repro = max(worst_repro,
                          float(np.abs(repro - sub.basis[pts.indices].T).max()))
        worst_norm_slack = max(worst_norm_slack,
                               float(ddict.w_norms.max() - 2.0 * ddict.m_p))
        verify_transfer(sub, ddict, trials=1000, seed=7)  # raises on a violation
    elapsed = time.monotonic() - start
    ok = worst_repro <= 1e-8 and worst_norm_slack <= 1e-6
    _report(7, ok, f"reproducing drift = {worst_repro:.2e} <= 1e-8, "
                   f"max ||w|| - 2 M_p = {worst_norm_slack:.2e} <= 1e-6, "
                   f"transfer: 0 violations in 4x1000 trials ({elapsed:.1f}s)")


def test_criterion_08_subspace_profiles_track_the_envelope():
    """Subspace ball uppers stay within a factor-8 band of
    M_p (log2(2n/k)/k)^(1/p) for the two reference configurations."""
    start = time.monotonic()
    spreads = {}
    for seed, dim, support, n, p in ((0, 8, 256, 64, 2.0), (1, 4, 128, 32, 4.0)):
        rng = np.random.default_rng(seed)
        sub = random_subspace(dim, support, int(rng.integers(2 ** 31)))
        pts = SamplePointSet(np.sort(rng.choice(support, n, replace=False)))
        ks = list(range(math.ceil(math.log2(n)), n + 1))
        res = it1_experiment(sub, pts, p, ks, seed=seed, cover_sample_size=320)
        spreads[(dim, support, n, p)] = res.spread
    elapsed = time.monotonic() - start
    ok = all(s <= 8.0 for s in spreads.values()) and elapsed <= 600.0
    detail = ", ".join(f"(N={d},s={s},n={n},p={p:g}): {v:.3f}"
                       for (d, s, n, p), v in spreads.items())
    _report(8, ok, f"ratio spreads <= 8: {detail} ({elapsed:.1f}s)")


def test_criterion_09_dual_entropy_sums_stay_comparable():
    """The hull and dual-ball entropy sums bracket a common constant."""
    start = time.monotonic()
    small = duality_sum_check(canonical_dictionary(6, 2.0), 4,
                              sample_size=320, seed=0)
    large = duality_sum_check(canonical_dictionary(12, 2.0), 8,
                              sample_size=320, seed=0)
    rough = duality_sum_check(canonical_dictionary(8, 1.5), 6,
                              sample_size=320, seed=0)
    lo, hi = rough.ratio_interval
    elapsed = time.monotonic() - start
    ok = (small.contains_one and large.contains_one
          and 1e-2 <= lo and hi <= 1e2)
    _report(9, ok, f"q=2 intervals contain 1: n=6 {small.contains_one}, "
                   f"n=12 {large.contains_one}; q=1.5 interval "
                   f"[{lo:.4f}, {hi:.4f}] within [1e-2, 1e2] ({elapsed:.1f}s)")


def test_criterion_10_envelope_fit_recovers_synthetic_laws():
    """fit_envelope returns exact exponent and constant on clean data."""
    start = time.monotonic()
    m = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    fit_m = fit_envelope((m, 2.5 * m ** (-0.75)), model=FitModel.POWER_M)
    k = np.arange(6, 65, dtype=float)
    values = 1.25 * log_ratio_envelope(64, k, 1.0) ** 0.5
    fit_k = fit_envelope((k, values), 64, model=FitModel.LOG_RATIO_K)
    err = max(abs(fit_m.exponent + 0.75), abs(fit_m.constant - 2.5),
              abs(fit_k.exponent - 0.5), abs(fit_k.constant - 1.25))
    elapsed = time.monotonic() - start
    ok = err <= 1e-9
    _report(10, ok, f"max recovery error = {err:.3e} <= 1e-9 "
                    f"for both fit models ({elapsed:.1f}s)")
