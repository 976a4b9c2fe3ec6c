"""Covers, packings, exact oracles, and the entropy experiments.

The exact restricted-centers oracle is cross-checked against direct
subset enumeration, and the batched quantized cover against a loop that
measures one witness at a time; the experiment outputs are pinned to
frozen values so a refactor that shifts any radius is caught immediately.
"""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import entrobound
from entrobound import (
    AmbientMetric,
    BudgetExceededError,
    CertificateError,
    CoverCertificate,
    Dictionary,
    DimensionMismatchError,
    EmptySampleError,
    EntropyProfile,
    Octahedron,
    PackingCertificate,
    PointwiseMaxMetric,
    SamplePointSet,
    UNormMetric,
    ball_entropy_experiment,
    build_discretization_dictionary,
    canonical_dictionary,
    discrete_space,
    duality_sum_check,
    exact_cover_count,
    exact_entropy_small,
    farthest_point_packing,
    greedy_cover,
    log_ratio_envelope,
    metric_from_json,
    norm,
    octahedron_cover_profile,
    random_subspace,
    sample_octahedron,
    sequence_space,
    verify_cover,
    verify_packing,
    wcga,
)
import entrobound.entropy as entropy_module
from entrobound.entropy import (
    _DIST_TOL,
    _ball_witness,
    _cover_feasible,
    _cover_matrix,
    _l1_grid_count,
    _max_grid_radius,
    _min_cover_count,
    _octahedron_witness,
    _quantized_cover,
    _separated_count,
)

EUCLID2 = AmbientMetric(sequence_space(2, 2.0))


# ---------------------------------------------------------------------------
# metrics

def test_ambient_metric_matches_the_norm():
    rng = np.random.default_rng(0)
    space = sequence_space(3, 1.5)
    metric = AmbientMetric(space)
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((2, 3))
    D = metric.pairwise(A, B)
    for i in range(4):
        for j in range(2):
            assert D[i, j] == pytest.approx(norm(space, A[i] - B[j]), abs=1e-12)


def test_unorm_metric_is_the_max_pairing_distance():
    d = canonical_dictionary(3, 2.0)
    metric = UNormMetric(d)
    A = np.array([[1.0, 2.0, -1.0]])
    B = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    D = metric.pairwise(A, B)
    assert D[0, 0] == pytest.approx(2.0)
    assert D[0, 1] == pytest.approx(2.0)


def test_pointwise_max_metric_reads_only_its_indices():
    metric = PointwiseMaxMetric(np.array([0, 2]))
    A = np.array([[1.0, 99.0, 3.0]])
    B = np.array([[0.0, -99.0, 1.0]])
    assert metric.pairwise(A, B)[0, 0] == pytest.approx(2.0)


@pytest.mark.parametrize("space", [sequence_space(3, 2.0),
                                   discrete_space(np.array([0.2, 0.3, 0.5]), 2.0)])
def test_ambient_metric_rejects_points_of_another_dimension(space):
    # before the check the plain space measured the 2-d points in l2 and
    # the weighted one failed inside scipy on the weight length
    W = np.random.default_rng(0).standard_normal((10, 2))
    metric = AmbientMetric(space)
    with pytest.raises(DimensionMismatchError):
        exact_entropy_small(W, 1, metric)
    with pytest.raises(DimensionMismatchError):
        greedy_cover(W, 0.5, metric)
    with pytest.raises(DimensionMismatchError):
        metric.pairwise(np.zeros((2, 3)), W)
    assert metric.pairwise(np.zeros((2, 3)), np.ones((1, 3))).shape == (2, 1)


def test_unorm_metric_rejects_points_that_do_not_match_its_atoms():
    metric = UNormMetric(canonical_dictionary(3, 2.0))
    W = np.random.default_rng(1).standard_normal((6, 4))
    with pytest.raises(DimensionMismatchError):
        exact_entropy_small(W, 1, metric)
    with pytest.raises(DimensionMismatchError):
        metric.pairwise(np.zeros((1, 3)), np.zeros((1, 2)))


def test_pointwise_max_metric_needs_its_largest_index():
    metric = PointwiseMaxMetric(np.array([0, 2]))
    with pytest.raises(DimensionMismatchError, match="at least 3"):
        metric.pairwise(np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(DimensionMismatchError):
        greedy_cover(np.zeros((4, 2)), 0.5, metric)
    # a seminorm on some coordinates: longer points fit
    assert metric.pairwise(np.zeros((1, 5)), np.ones((1, 3)))[0, 0] == 1.0


def test_pointwise_max_metric_rejects_negative_indices():
    # -1 would quietly measure the last coordinate
    with pytest.raises(ValueError, match="nonnegative"):
        metric_from_json({"kind": "linf-points", "indices": [-1]})
    with pytest.raises(ValueError, match="nonnegative"):
        PointwiseMaxMetric(np.array([0, -2]))


def test_pointwise_max_metric_rejects_fractional_indices():
    # 1.7 would quietly measure coordinate 1
    with pytest.raises(ValueError, match="integer"):
        metric_from_json({"kind": "linf-points", "indices": [0, 1.7]})
    with pytest.raises(ValueError, match="integer"):
        PointwiseMaxMetric(np.array([2.0]))
    # an empty list, which numpy reads as floats, still gives the zero seminorm
    assert metric_from_json({"kind": "linf-points", "indices": []}).indices.size == 0


def test_metric_json_round_trips():
    pts = np.random.default_rng(1).standard_normal((5, 3))
    metrics = [
        AmbientMetric(sequence_space(3, 1.5)),
        UNormMetric(canonical_dictionary(3, 2.0)),
        PointwiseMaxMetric(np.array([0, 1])),
    ]
    for metric in metrics:
        back = metric_from_json(metric.to_json())
        assert np.allclose(back.pairwise(pts, pts), metric.pairwise(pts, pts))


# ---------------------------------------------------------------------------
# certificates

def _toy_cover():
    W = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return CoverCertificate(centers=W[:1], radius=1.0, k=0, count_bound=1,
                            metric=EUCLID2, provenance="greedy-cover"), W


def test_verify_cover_accepts_an_honest_certificate():
    cert, W = _toy_cover()
    assert verify_cover(cert, W)


def test_verify_cover_rejects_each_violation():
    cert, W = _toy_cover()
    with pytest.raises(CertificateError):
        verify_cover(CoverCertificate(centers=cert.centers, radius=1.0, k=0,
                                      count_bound=2, metric=EUCLID2,
                                      provenance="greedy-cover"), W)
    with pytest.raises(CertificateError):
        verify_cover(CoverCertificate(centers=W, radius=1.0, k=1,
                                      count_bound=1, metric=EUCLID2,
                                      provenance="greedy-cover"), W)
    with pytest.raises(CertificateError):
        verify_cover(CoverCertificate(centers=cert.centers, radius=0.5, k=0,
                                      count_bound=1, metric=EUCLID2,
                                      provenance="greedy-cover"), W)


def test_verify_cover_names_centers_and_witness_that_do_not_fit_the_metric():
    cert, W = _toy_cover()
    doc = cert.to_json()
    doc["centers"] = [[0.0, 0.0, 0.0]]  # a 3-dimensional center in a 2-dimensional space
    wrong = CoverCertificate.from_json(doc)
    with pytest.raises(CertificateError, match="do not fit the metric"):
        verify_cover(wrong, W)
    with pytest.raises(CertificateError, match="do not fit the metric"):
        verify_cover(cert, np.zeros((2, 3)))


def test_verify_cover_rejects_non_finite_data():
    # a NaN distance compares false either way, so an unchecked NaN witness
    # point would pass and carry the far point (5, 5, 5, 5) through with it
    cert = octahedron_cover_profile(Octahedron(canonical_dictionary(4, 2.0)), [3],
                                    seed=0, sample_size=40)[3]
    with pytest.raises(ValueError, match="finite"):
        verify_cover(cert, np.array([[np.nan, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0]]))
    cert, W = _toy_cover()
    for centers, radius in ((np.array([[np.nan, 0.0]]), 1.0),
                            (cert.centers, np.nan), (cert.centers, np.inf)):
        bad = CoverCertificate(centers=centers, radius=radius, k=0, count_bound=1,
                               metric=EUCLID2, provenance="greedy-cover")
        with pytest.raises(CertificateError, match="finite"):
            verify_cover(bad, W)


def test_verify_packing_rejects_non_finite_data():
    pts = np.array([[0.0, 0.0], [np.nan, 0.0], [2.0, 0.0]])
    for points, separation in ((pts, 2.0), (pts[[0, 2]], np.nan)):
        bad = PackingCertificate(points=points, separation=separation, metric=EUCLID2)
        with pytest.raises(CertificateError, match="finite"):
            verify_packing(bad)


def test_verify_packing_names_points_that_do_not_fit_the_metric():
    # the same fault as a cover's misfit centers, and the same error
    doc = PackingCertificate(points=np.array([[0.0, 0.0], [2.0, 0.0]]), separation=2.0,
                             metric=EUCLID2).to_json()
    doc["points"] = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]  # 3-dimensional points in a 2-dimensional space
    with pytest.raises(CertificateError, match="do not fit the metric"):
        verify_packing(PackingCertificate.from_json(doc))


def test_packing_certificate_bounds():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    cert = PackingCertificate(points=pts, separation=2.0, metric=EUCLID2)
    assert verify_packing(cert)
    assert cert.count == 3
    bad = PackingCertificate(points=pts, separation=3.0, metric=EUCLID2)
    with pytest.raises(CertificateError):
        verify_packing(bad)


def test_certificate_documents_reject_non_integral_counts():
    # int() once read k 3.9 as 3, count_bound 4.9 as 4 and the space's dim
    # 2.7 as 2, and verify_cover passed each of them
    cert, W = _toy_cover()
    doc = cert.to_json()
    flat = dict(doc["metric"], space=dict(doc["metric"]["space"], dim=2.7))
    for bad, match in ((dict(doc, k=3.9), "k: need an integer"),
                       (dict(doc, k=3, count_bound=4.9), "count_bound: need an integer"),
                       (dict(doc, k=True), "k: need an integer"),
                       (dict(doc, metric=flat), "dim: need an integer")):
        with pytest.raises(ValueError, match=match):
            CoverCertificate.from_json(bad)
    numpy_ints = CoverCertificate(centers=cert.centers, radius=1.0, k=np.int64(0),
                                  count_bound=np.int64(1), metric=EUCLID2,
                                  provenance="greedy-cover")
    assert verify_cover(numpy_ints, W)


def test_certificate_documents_reject_non_real_radii():
    # float() once read "radius": true as 1.0 and "1.5" as 1.5, and the true
    # document passed verify_cover on the toy cover
    cert, W = _toy_cover()
    pack = farthest_point_packing(W, 2, EUCLID2)
    for bad in (True, "1.5", None):
        with pytest.raises(ValueError, match="^radius: need a real number"):
            CoverCertificate.from_json(dict(cert.to_json(), radius=bad))
        with pytest.raises(ValueError, match="^separation: need a real number"):
            PackingCertificate.from_json(dict(pack.to_json(), separation=bad))
    # values pass through as written; finiteness is left to the verifiers
    assert CoverCertificate.from_json(dict(cert.to_json(), radius=1)).radius == 1
    assert verify_cover(CoverCertificate.from_json(dict(cert.to_json(), radius=1)), W)
    lone = farthest_point_packing(W, 1, EUCLID2)
    assert lone.separation == math.inf
    back = PackingCertificate.from_json(json.loads(json.dumps(lone.to_json())))
    assert back.separation == math.inf
    nan_cover = CoverCertificate.from_json(
        json.loads(json.dumps(dict(cert.to_json(), radius=math.nan))))
    with pytest.raises(CertificateError, match="finite"):
        verify_cover(nan_cover, W)


def test_certificate_json_round_trips():
    cert, W = _toy_cover()
    again = CoverCertificate.from_json(cert.to_json())
    assert verify_cover(again, W)
    pack = farthest_point_packing(W, 2, EUCLID2)
    back = PackingCertificate.from_json(pack.to_json())
    assert verify_packing(back)
    assert back.separation == pack.separation
    # documents written before set_id (and the packing's extra) went away
    old_cover = dict(cert.to_json(), set_id="toy", extra={"m": 0})
    old_pack = dict(pack.to_json(), set_id="toy", extra={})
    again = CoverCertificate.from_json(old_cover)
    back = PackingCertificate.from_json(old_pack)
    assert verify_cover(again, W) and verify_packing(back)
    assert "set_id" not in again.to_json() and "set_id" not in back.to_json()


@st.composite
def _certified_point_sets(draw):
    """Points on a 1/4 lattice, pairwise apart under one metric of each kind."""
    dim = draw(st.integers(2, 4))
    q = draw(st.sampled_from([1.5, 2.0, 3.0]))
    kind = draw(st.sampled_from(["ambient", "weighted", "u-norm", "linf-points"]))
    if kind == "ambient":
        metric = AmbientMetric(sequence_space(dim, q))
    elif kind == "weighted":
        w = np.array(draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)), float)
        metric = AmbientMetric(discrete_space(w / w.sum(), q))
    elif kind == "u-norm":
        space = sequence_space(dim, q)
        ones = np.ones((dim, 1))
        metric = UNormMetric(Dictionary(np.hstack([np.eye(dim), ones / norm(space, ones[:, 0])]),
                                        space))
    else:
        metric = PointwiseMaxMetric(np.array(sorted(draw(st.sets(
            st.integers(0, dim - 1), min_size=1, max_size=dim)))))
    rows = draw(st.lists(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim),
                         min_size=2, max_size=10))
    W = np.array(rows, dtype=float) / 4.0
    D = metric.pairwise(W, W)
    keep = []
    for i in range(len(W)):  # a seminorm may put distinct rows at distance 0
        if all(D[i, j] > 0.0 for j in keep):
            keep.append(i)
    assume(len(keep) >= 2)
    return W[keep], metric, draw(st.sampled_from([0.0, 0.3, 0.7, 1.1]))


def _json_copy(cert):
    return type(cert).from_json(json.loads(json.dumps(cert.to_json())))


@given(case=_certified_point_sets())
def test_certificates_survive_a_json_round_trip(case):
    W, metric, radius = case
    cover = _json_copy(greedy_cover(W, radius, metric))
    assert verify_cover(cover, W)
    # the last center's point lay beyond the radius of every earlier center
    cover.centers = cover.centers.copy()
    cover.centers[-1] = 1e6
    with pytest.raises(CertificateError):
        verify_cover(cover, W)
    pack = _json_copy(farthest_point_packing(W, len(W), metric))
    assert verify_packing(pack)
    pack.points = pack.points.copy()
    pack.points[1] = pack.points[0]
    with pytest.raises(CertificateError):
        verify_packing(pack)


# ---------------------------------------------------------------------------
# profiles

def test_entropy_profile_enforces_monotone_envelopes():
    prof = EntropyProfile.build([1, 2], [0.1, 0.4], [1.0, 1.2],
                                ["packing", "packing"], ["exact", "exact"])
    # the k=1 cover transfers to k=2, the k=2 packing transfers back
    assert prof.upper.tolist() == [1.0, 1.0]
    assert prof.lower.tolist() == [0.4, 0.4]
    with pytest.raises(ValueError):
        EntropyProfile.build([2, 1], [0.0, 0.0], [1.0, 1.0],
                             ["none", "none"], ["exact", "exact"])
    with pytest.raises(CertificateError):
        EntropyProfile.build([1, 2], [0.5, 2.0], [1.0, 1.0],
                             ["packing", "packing"], ["exact", "exact"])
    # a NaN upper passes every comparison, so it must be refused outright
    with pytest.raises(ValueError, match="finite"):
        EntropyProfile.build([1, 2], [0.1, 0.4], [1.0, math.nan],
                             ["packing", "packing"], ["exact", "exact"])


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5]),
                          st.sampled_from([0.5, 1.0, 2.0]),
                          st.sampled_from([0.0, 5e-13, 2e-12])),
                min_size=1, max_size=8))
@example([(0.5, 0.5, 5e-13)])  # within the slack
@example([(0.5, 0.5, 2e-12)])  # beyond it
def test_entropy_profile_build_is_the_monotone_envelope(entries):
    # values from a small grid make ties and near-crossings common; the
    # third entry nudges a lower bound just under or just over 1e-12 slack
    lower = np.array([lo + nudge for lo, _, nudge in entries])
    upper = np.array([up for _, up, _ in entries])
    k_list = list(range(1, len(entries) + 1))
    lower_source = [f"l{i}" for i in range(len(k_list))]
    upper_source = [f"u{i}" for i in range(len(k_list))]
    upper_env = np.minimum.accumulate(upper)
    lower_env = np.maximum.accumulate(lower[::-1])[::-1]
    if np.any(lower_env > upper_env + 1e-12):
        with pytest.raises(CertificateError):
            EntropyProfile.build(k_list, lower, upper, lower_source, upper_source)
        return
    prof = EntropyProfile.build(k_list, lower, upper, lower_source, upper_source)
    assert prof.upper.tolist() == upper_env.tolist()
    assert prof.lower.tolist() == lower_env.tolist()
    # each entry names the latest (upper) or earliest (lower) k it came from
    for i in range(len(k_list)):
        j = max(j for j in range(i + 1) if upper[j] == upper_env[i])
        assert prof.upper_source[i] == f"u{j}"
        j = min(j for j in range(i, len(k_list)) if lower[j] == lower_env[i])
        assert prof.lower_source[i] == f"l{j}"


def test_log_ratio_envelope_values():
    assert log_ratio_envelope(16, np.array([4.0]), 0.5)[0] == pytest.approx(
        math.sqrt(3.0 / 4.0), abs=1e-15)
    assert log_ratio_envelope(8, np.array([4.0]), 1.0)[0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# exact oracles

def _bruteforce_restricted(W, budget, metric):
    Dm = metric.pairwise(W, W)
    best = float("inf")
    for size in range(1, budget + 1):
        for centers in itertools.combinations(range(len(W)), size):
            best = min(best, Dm[:, centers].min(axis=1).max())
    return best


def test_exact_entropy_small_agrees_with_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(10):
        W = rng.standard_normal((12, 2))
        for k in (0, 1, 2):
            got = exact_entropy_small(W, k, EUCLID2)
            want = _bruteforce_restricted(W, 2 ** k, EUCLID2)
            assert got == pytest.approx(want, abs=0.0)


def test_exact_entropy_small_frozen_instance():
    rng = np.random.default_rng(7)
    W = rng.normal(size=(60, 2))
    radius = exact_entropy_small(W, 3, EUCLID2)
    assert radius == pytest.approx(0.8317272868234514, abs=1e-12)
    assert exact_cover_count(W, radius, EUCLID2) == 8
    # strictly below the optimum, 8 centers stop sufficing
    assert exact_cover_count(W, radius - 1e-9, EUCLID2) > 8


def test_exact_oracle_budget_guards():
    big = np.zeros((600, 2))
    with pytest.raises(BudgetExceededError):
        exact_entropy_small(big, 1, EUCLID2)
    small = np.zeros((4, 2))
    with pytest.raises(BudgetExceededError):
        exact_entropy_small(small, 5, EUCLID2)
    with pytest.raises(BudgetExceededError):
        exact_cover_count(big, 1.0, EUCLID2)


def test_frozen_instance_needs_two_lp_and_two_milp_solves(monkeypatch):
    calls = {"linprog": 0, "milp": 0}

    def counted(name):
        solve = getattr(entropy_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return solve(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(entropy_module, name, counted(name))
    W = np.random.default_rng(7).normal(size=(60, 2))
    assert exact_entropy_small(W, 3, EUCLID2) == 0.8317272868234514
    assert calls["linprog"] <= 2 and calls["milp"] <= 2


def _lattice_and_random_sets():
    rng = np.random.default_rng(11)
    grid = np.array(list(itertools.product(range(6), range(6))), dtype=float)
    cube = np.array(list(itertools.product((0.0, 1.0), repeat=4)))
    yield grid, EUCLID2
    yield grid, PointwiseMaxMetric(np.arange(2))
    yield cube, AmbientMetric(sequence_space(4, 2.0))
    for dim in (2, 3):
        W = rng.normal(size=(40, dim))
        yield np.vstack([W, W[:5]]), AmbientMetric(sequence_space(dim, 2.0))


def test_separated_points_never_outnumber_the_optimal_cover():
    for W, metric in _lattice_and_random_sets():
        Dm = metric.pairwise(W, W)
        for r in np.quantile(np.unique(Dm), [0.0, 0.02, 0.05, 0.1, 0.2, 0.4]):
            cov, _ = _cover_matrix(Dm, r)
            assert _separated_count(cov, len(W)) <= exact_cover_count(W, r, metric)


def test_dropping_dominated_centers_keeps_the_optimal_count():
    for W, metric in _lattice_and_random_sets():
        Dm = metric.pairwise(W, W)
        for r in np.quantile(np.unique(Dm), [0.05, 0.2]):
            full = (Dm <= r + _DIST_TOL).astype(float)
            cov, cols = _cover_matrix(Dm, r)
            assert np.array_equal(cov, full[:, cols])
            for c in np.setdiff1d(np.arange(len(W)), cols):
                assert (full[:, [c]] <= cov).all(axis=0).any()
            count, centers = _min_cover_count(full, np.arange(len(W)))
            assert _min_cover_count(cov, cols)[0] == count == len(centers)


def test_feasibility_probes_return_covers_that_cover():
    for W, metric in _lattice_and_random_sets():
        Dm = metric.pairwise(W, W)
        for r in np.quantile(np.unique(Dm), [0.05, 0.1, 0.2, 0.3]):
            optimal = exact_cover_count(W, r, metric)
            for budget in (2, 4, 8, 16):
                centers = _cover_feasible(Dm, r, budget)
                assert (centers is None) == (optimal > budget)
                if centers is not None:
                    assert len(centers) <= budget
                    assert Dm[:, centers].min(axis=1).max() <= r + _DIST_TOL


@st.composite
def _small_point_sets(draw):
    """At most 12 points in dimension 1-3 on an integer or a 1/8 lattice,
    with some rows repeated, so that distances tie and vanish."""
    dim = draw(st.integers(1, 3))
    span = draw(st.sampled_from([2, 40]))
    coordinate = st.integers(-span, span)
    rows = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                         min_size=1, max_size=10))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=12 - len(rows)))
    W = np.array(rows + [rows[i] for i in repeats], dtype=float)
    return W if span == 2 else W / 8.0


@given(W=_small_point_sets(), k=st.integers(0, 2), chebyshev=st.booleans())
def test_exact_oracle_matches_subset_enumeration(W, k, chebyshev):
    dim = W.shape[1]
    metric = (PointwiseMaxMetric(np.arange(dim)) if chebyshev
              else AmbientMetric(sequence_space(dim, 2.0)))
    radius = exact_entropy_small(W, k, metric)
    assert radius == _bruteforce_restricted(W, 2 ** k, metric)
    assert exact_cover_count(W, radius, metric) <= 2 ** k


def test_exact_entropy_small_rejects_non_finite_points():
    W = np.random.default_rng(7).normal(size=(20, 2))
    W[3, 1] = np.nan
    with pytest.raises(ValueError):
        exact_entropy_small(W, 3, EUCLID2)


def test_exact_oracles_reject_an_empty_sample():
    empty = np.zeros((0, 2))
    with pytest.raises(EmptySampleError):
        exact_entropy_small(empty, 1, EUCLID2)
    with pytest.raises(EmptySampleError):
        exact_cover_count(empty, 1.0, EUCLID2)


def test_exact_cover_count_rejects_non_finite_input():
    W = np.random.default_rng(7).normal(size=(20, 2))
    for radius in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError):
            exact_cover_count(W, radius, EUCLID2)
    W[3, 1] = np.inf
    with pytest.raises(ValueError):
        exact_cover_count(W, 0.5, EUCLID2)


def test_greedy_cover_on_the_unit_square():
    rng = np.random.default_rng(0)
    W = rng.uniform(-1.0, 1.0, size=(100, 2))
    metric = PointwiseMaxMetric(np.arange(2))
    cert = greedy_cover(W, 0.5, metric)
    exact = exact_cover_count(W, 0.5, metric)
    assert exact == 6
    assert cert.count_bound == 12     # first-uncovered greedy pays a factor 2 here
    assert exact <= cert.count_bound <= 4 * exact
    assert cert.provenance == "greedy-cover"
    assert verify_cover(cert, W)


def test_greedy_cover_validation():
    with pytest.raises(ValueError):
        greedy_cover(np.zeros((3, 2)), -0.1, EUCLID2)
    with pytest.raises(EmptySampleError):
        greedy_cover(np.zeros((0, 2)), 0.1, EUCLID2)
    with pytest.raises(ValueError):
        greedy_cover(np.zeros((3, 2)), np.nan, EUCLID2)


def test_greedy_cover_rejects_non_finite_points():
    W = np.random.default_rng(7).normal(size=(20, 2))
    W[3, 1] = np.nan
    with pytest.raises(ValueError):
        greedy_cover(W, 0.5, EUCLID2)


def test_farthest_point_packing_rejects_non_finite_points():
    W = np.random.default_rng(7).normal(size=(20, 2))
    W[3, 1] = -np.inf
    with pytest.raises(ValueError):
        farthest_point_packing(W, 4, EUCLID2)


def test_farthest_point_packing_properties():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((40, 2))
    p4 = farthest_point_packing(W, 4, EUCLID2)
    p5 = farthest_point_packing(W, 5, EUCLID2)
    # the traversal is incremental: 4 points are a prefix of 5
    assert np.array_equal(p4.points, p5.points[:4])
    assert p4.separation >= p5.separation - 1e-12
    assert verify_packing(p4) and verify_packing(p5)
    assert farthest_point_packing(W, 1, EUCLID2).separation == float("inf")
    with pytest.raises(ValueError):
        farthest_point_packing(W, 0, EUCLID2)
    with pytest.raises(ValueError):
        farthest_point_packing(W, 41, EUCLID2)


# ---------------------------------------------------------------------------
# integer grid helpers

def _cube_count(m, M):
    return (2 * M + 1) ** m


_GRID_COUNTS = (_l1_grid_count, _cube_count)


def _assert_max_grid_radius(count, m, t):
    M = _max_grid_radius(count, m, t)
    if t < 1:
        assert M == -1
    else:
        assert count(m, M) <= t < count(m, M + 1)


def test_max_grid_radius_is_maximal_on_wide_targets():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        t = int(rng.integers(0, 2 ** 63))
        for count in _GRID_COUNTS:
            _assert_max_grid_radius(count, m, t)
    for count in _GRID_COUNTS:
        for m, t in ((3, 0), (5, 1), (3, 8), (3, 7), (1, 2 ** 200)):
            _assert_max_grid_radius(count, m, t)


def test_max_grid_radius_is_maximal():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        t = int(rng.integers(1, 2 ** 60))
        for count in _GRID_COUNTS:
            _assert_max_grid_radius(count, m, t)
    for count in _GRID_COUNTS:
        assert _max_grid_radius(count, 3, 0) == -1
        assert _max_grid_radius(count, 3, -5) == -1
        assert _max_grid_radius(count, 2, 1) == 0


def test_l1_grid_count():
    # the l1 grid in 2 coordinates with radius 3 holds 25 points
    assert _l1_grid_count(2, 3) == 25
    for m in range(1, 4):
        for M in range(5):
            grid = itertools.product(range(-M, M + 1), repeat=m)
            assert _l1_grid_count(m, M) == sum(
                1 for z in grid if sum(map(abs, z)) <= M)


# ---------------------------------------------------------------------------
# constructive octahedron covers

def test_single_atom_hull_gets_dyadic_covers():
    octa = Octahedron(canonical_dictionary(1, 2.0))
    for k, half, step in ((0, 0, 0.0), (1, 1, 1.0), (3, 4, 0.25), (6, 32, 0.03125)):
        cert = octahedron_cover_profile(octa, [k], sample_size=32, seed=0)[k]
        assert cert.radius == pytest.approx(2.0 ** (-k), abs=0.0)
        assert cert.count_bound == 2 ** k
        assert cert.provenance == "sparse-cover"
        # the same keys as a quantized cover: 2^k offset cells of width 2^(1-k)
        assert cert.extra == {"m": 1, "grid_radius": half, "grid_step": step}


def test_octahedron_cover_profile_frozen_instance():
    octa = Octahedron(canonical_dictionary(8, 2.0))
    certs = octahedron_cover_profile(octa, [3, 8], seed=0, sample_size=200)
    assert certs[3].radius == pytest.approx(1.0)
    assert certs[3].provenance == "trivial"
    assert certs[3].count_bound == 1
    assert certs[8].radius == pytest.approx(0.5011098792790969, abs=1e-12)
    assert certs[8].count_bound == 248
    assert certs[8].extra["m"] == 1


def test_octahedron_cover_certificates_verify_on_their_witness():
    d = canonical_dictionary(6, 1.5)
    sample = np.array([s["vector"] for s in sample_octahedron(d, 40, 3)])
    cert = octahedron_cover_profile(Octahedron(d), [5], sample=sample, seed=1)[5]
    assert cert.radius == pytest.approx(0.7102902073030196, abs=1e-12)
    assert cert.count_bound <= 2 ** 5
    assert verify_cover(cert, sample)


def test_octahedron_cover_radii_shrink_with_budget():
    octa = Octahedron(canonical_dictionary(10, 2.0))
    certs = octahedron_cover_profile(octa, [4, 7, 10], seed=2, sample_size=120)
    radii = [certs[k].radius for k in (4, 7, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(radii, radii[1:]))
    for k in (4, 7, 10):
        assert certs[k].count_bound <= 2 ** k
    with pytest.raises(ValueError):
        octahedron_cover_profile(octa, [11], sample_size=40)


@pytest.mark.parametrize("n", [1, 4])
def test_octahedron_cover_profile_rejects_a_negative_budget(n):
    octa = Octahedron(canonical_dictionary(n, 2.0))
    with pytest.raises(ValueError):
        octahedron_cover_profile(octa, [-2], sample_size=10)
    with pytest.raises(ValueError):
        octahedron_cover_profile(octa, [1, -1], sample_size=10)


@pytest.mark.parametrize("n", [1, 4])
def test_octahedron_cover_profile_rejects_an_empty_k_list(n):
    with pytest.raises(ValueError, match="k_list"):
        octahedron_cover_profile(Octahedron(canonical_dictionary(n, 2.0)), [],
                                 sample_size=10)


def _reference_level(runs, m):
    """Each run's (support, coefficients) after min(m, steps) steps, or None
    for a run with no step, and the largest l1 norm among them."""
    levels = []
    for run in runs:
        if run is None or not run.step_coefficients:
            levels.append(None)
        else:
            steps = min(m, len(run.step_coefficients))
            levels.append((run.support[:steps], run.step_coefficients[steps - 1]))
    bound = max((float(np.abs(c).sum()) for _, c in filter(None, levels)),
                default=0.0)
    return levels, bound


def _per_witness_reference(dictionary, k, sample, runs, m_max):
    """The octahedron cover measured one witness and one option at a time.

    Returns the (m, grid radius, count bound, provenance, grid step)
    choice and the radius, with every distance a scalar ``norm`` call.
    """
    space = dictionary.space
    n = dictionary.size
    best = (max(norm(space, f) for f in sample), (0, 0, 1, "trivial", 0.0))
    for m in range(1, min(k, m_max) + 1):
        M = _max_grid_radius(_l1_grid_count, m, 2 ** k // math.comb(n, m))
        if M < 1:
            continue
        levels, bound = _reference_level(runs, m)
        delta = bound / M
        radius = 0.0
        for f, lev in zip(sample, levels):
            center = np.zeros(space.dim)
            if lev is not None:
                sup, c = lev
                center = dictionary.atoms[:, sup] @ (np.trunc(c / delta) * delta)
            radius = max(radius, norm(space, f - center))
        if radius < best[0]:
            count = math.comb(n, m) * _l1_grid_count(m, M)
            best = (radius, (m, M, count, "sparse-cover", delta))
    return best


def _it1_u_dictionary():
    sub = random_subspace(4, 64, 3)
    pts = SamplePointSet(np.arange(0, 64, 4))
    return build_discretization_dictionary(sub, pts, 3.0).u_dictionary()


def _reference_runs(dictionary, sample):
    return [None if norm(dictionary.space, f) == 0.0 else
            wcga(f, dictionary, dictionary.size, project_tol=1e-8)
            for f in sample]


@pytest.mark.parametrize("make_dictionary", [
    lambda: canonical_dictionary(12, 1.5), _it1_u_dictionary,
], ids=["canonical-q1.5", "it1-u-dictionary"])
def test_quantized_cover_matches_the_per_witness_reference(make_dictionary):
    dictionary = make_dictionary()
    n = dictionary.size
    sample = _octahedron_witness(dictionary, 120, 4)
    runs = _reference_runs(dictionary, sample)
    ks = list(range(1, n + 1))
    certs = octahedron_cover_profile(Octahedron(dictionary), ks, sample=sample)
    chosen = set()
    for k in ks:
        cert = certs[k]
        radius, choice = _per_witness_reference(dictionary, k, sample, runs, n)
        got = (cert.extra["m"], cert.extra["grid_radius"], cert.count_bound,
               cert.provenance, cert.extra["grid_step"])
        assert got == choice  # the grid step bit for bit
        assert cert.radius == pytest.approx(radius, rel=1e-14, abs=0.0)
        assert verify_cover(cert, sample)
        chosen.add(choice[0])
    assert 0 in chosen and len(chosen) > 2  # trivial and several sparse choices


def test_greedy_levels_match_the_per_run_reference():
    dictionary = canonical_dictionary(12, 1.5)
    n = dictionary.size
    # on this sample an l1 norm summed over a zero-padded row rounds the
    # bound differently: from m = 7 at the table's width, from m = 8 at m
    sample = _octahedron_witness(dictionary, 120, 5)
    sample[7] = 0.0  # a zero witness reads as the zero approximant
    level = entropy_module._greedy_levels(sample, dictionary, n)
    runs = _reference_runs(dictionary, sample)
    for m in range(1, n + 1):
        support, coef, bound = level(m)
        levels, want = _reference_level(runs, m)
        assert bound == want  # bit for bit: it sets the grid step
        for i, lev in enumerate(levels):
            sup, c = lev if lev is not None else ([], np.zeros(0))
            steps = len(sup)
            assert support[i, :steps].tolist() == list(sup)
            assert np.all(support[i, steps:] == n) and np.all(coef[i, steps:] == 0.0)
            assert np.array_equal(coef[i, :steps], c)


@given(n=st.integers(1, 8), q=st.sampled_from([1.5, 2.0, 3.0]),
       canonical=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_octahedron_covers_verify_within_budget(n, q, canonical, seed):
    if canonical:
        dictionary = canonical_dictionary(n, q)
    else:
        space = sequence_space(n + 2, q)
        atoms = np.random.default_rng(seed).standard_normal((n + 2, n))
        dictionary = Dictionary(
            atoms / [norm(space, a) for a in atoms.T], space)
    sample = _octahedron_witness(dictionary, 40, seed)
    trivial = max(norm(dictionary.space, f) for f in sample)
    ks = list(range(0, n + 1))
    certs = octahedron_cover_profile(Octahedron(dictionary), ks, sample=sample)
    for k in ks:
        cert = certs[k]
        assert cert.count_bound <= 2 ** k
        assert cert.radius <= trivial * (1.0 + 1e-12)  # round-off only
        assert verify_cover(cert, sample)


@given(n=st.integers(1, 8), p=st.sampled_from([2.0, 3.0, 4.0]),
       seed=st.integers(0, 2 ** 16))
def test_ball_covers_verify_within_budget(n, p, seed):
    sample = _ball_witness(p, n, 96, seed)
    order = np.argsort(-np.abs(sample), axis=1, kind="stable")

    def largest(m):
        support = np.sort(order[:, :m], axis=1)
        return support, np.take_along_axis(sample, support, axis=1), 1.0

    metric = PointwiseMaxMetric(np.arange(n))
    trivial = float(np.abs(sample).max())
    ks = list(range(1, n + 1))
    radii = []
    for k in ks:
        cert = _quantized_cover(sample, np.eye(n), largest, _cube_count,
                                metric, k, n)
        assert cert.count_bound <= 2 ** k
        assert cert.radius <= trivial
        assert verify_cover(cert, sample)
        radii.append(cert.radius)
    # the experiment builds the same covers, then takes the monotone envelope
    res = ball_entropy_experiment(p, n, ks, sample_size=96, seed=seed)
    assert np.array_equal(res.profile.upper, np.minimum.accumulate(radii))


# ---------------------------------------------------------------------------
# ball experiment

def test_ball_entropy_frozen_instance():
    res = ball_entropy_experiment(2.0, 8, [3, 4, 8], sample_size=256, seed=0)
    prof = res.profile
    assert prof.upper == pytest.approx([1.0, 1.0, 0.7071067811865476], abs=1e-12)
    assert prof.lower == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
    assert prof.upper_source == ["trivial", "trivial", "sparse-cover"]
    assert prof.lower_source == ["packing", "packing", "none"]
    assert res.sample_size == 256


def test_ball_entropy_is_deterministic():
    a = ball_entropy_experiment(2.0, 6, [3, 6], sample_size=128, seed=9)
    b = ball_entropy_experiment(2.0, 6, [3, 6], sample_size=128, seed=9)
    assert np.array_equal(a.profile.upper, b.profile.upper)
    assert np.array_equal(a.profile.lower, b.profile.lower)


def test_ball_entropy_brackets_the_segment():
    # in one dimension the ball is [-1, 1] and epsilon_1 is 1/2
    res = ball_entropy_experiment(2.0, 1, [1], sample_size=64, seed=0)
    assert res.profile.lower[0] <= 0.5 <= res.profile.upper[0]


def test_ball_entropy_validation():
    with pytest.raises(ValueError):
        ball_entropy_experiment(1.5, 4, [2], sample_size=2048, seed=0)
    for p in (math.nan, math.inf):  # NaN once slipped through as NaN uppers
        with pytest.raises(ValueError, match="finite p >= 2"):
            ball_entropy_experiment(p, 8, [3, 8], sample_size=64, seed=0)
    with pytest.raises(ValueError):
        ball_entropy_experiment(2.0, 4, [5], sample_size=2048, seed=0)
    with pytest.raises(ValueError):
        ball_entropy_experiment(2.0, 4, [], sample_size=2048, seed=0)


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # only the ball witness needs scipy.stats (its Sobol points), and the
    # import costs a large share of the package's start-up
    src = os.path.dirname(os.path.dirname(entrobound.__file__))
    code = "import sys, entrobound; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# the scipy subpackages that importing the package loads today; start-up
# work may drop names from this set, but no change may add one
_SCIPY_AT_IMPORT = {
    "__config__", "_cyutility", "_distributor_init", "_lib", "constants", "fft",
    "linalg", "optimize", "sparse", "spatial", "special", "version",
}


def test_importing_the_package_loads_no_new_scipy_subpackage():
    # start-up is most of every short run, and all of the benchmark's set-up
    # time; a module-level import of another scipy subpackage would add to it
    src = os.path.dirname(os.path.dirname(entrobound.__file__))
    code = ("import sys, entrobound; print(' '.join(sorted({name.split('.')[1] "
            "for name in sys.modules if name.startswith('scipy.')})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(out.split())
    assert loaded <= _SCIPY_AT_IMPORT, sorted(loaded - _SCIPY_AT_IMPORT)


# ---------------------------------------------------------------------------
# duality sums

def test_duality_sum_check_frozen_intervals():
    rep = duality_sum_check(canonical_dictionary(6, 2.0), 4, sample_size=320, seed=0)
    assert rep.ratio_interval == pytest.approx((0.450124197936713, 1.3725866746931799), abs=1e-12)
    assert rep.contains_one and rep.status == "ok" and not rep.flagged
    assert rep.p_exponent == pytest.approx(1.0)
    assert rep.k_list == [0, 1, 2, 3, 4]


def test_duality_sum_check_q_below_two():
    rep = duality_sum_check(canonical_dictionary(8, 1.5), 6, sample_size=320, seed=0)
    assert rep.p_exponent == pytest.approx(1.5)
    assert rep.ratio_interval == pytest.approx((0.2939735669675829, 1.704892800062475), abs=1e-12)
    assert not rep.flagged


def test_duality_sum_check_brackets_nest():
    rep = duality_sum_check(canonical_dictionary(6, 2.0), 4, sample_size=160, seed=1)
    assert np.all(rep.hull_lower <= rep.hull_upper + 1e-12)
    assert np.all(rep.dual_lower <= rep.dual_upper + 1e-12)


def test_duality_sum_check_validation():
    with pytest.raises(BudgetExceededError):
        duality_sum_check(canonical_dictionary(13, 2.0), 2, sample_size=320, seed=0)
    with pytest.raises(ValueError):
        duality_sum_check(canonical_dictionary(4, 3.0), 2, sample_size=320, seed=0)
    with pytest.raises(ValueError):
        duality_sum_check(canonical_dictionary(4, 2.0), -1, sample_size=320, seed=0)
