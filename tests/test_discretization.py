"""Subspaces on weighted point sets, the uniform-norm constant, and the
evaluation dictionaries behind the sampling experiments."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import null_space

import entrobound._optim as optim
from entrobound import (
    DimensionMismatchError,
    GramDefectError,
    MeasureSpace,
    NonConvergenceError,
    PropertyViolationError,
    SamplePointSet,
    Subspace,
    build_discretization_dictionary,
    it1_experiment,
    log_ratio_envelope,
    m_p_direct,
    m_p_dual,
    norm,
    norm_U,
    random_subspace,
    verify_transfer,
)
from entrobound.discretization import _direct_solves, _dual_solves, _representer


# ---------------------------------------------------------------------------
# measure spaces and subspaces

def test_measure_space_validation():
    with pytest.raises(ValueError):
        MeasureSpace(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        MeasureSpace(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        MeasureSpace(np.array([]))
    with pytest.raises(ValueError, match="finite"):
        MeasureSpace(np.array([np.nan, 1.0]))
    mu = MeasureSpace.uniform(4)
    assert mu.size == 4
    assert mu.weights == pytest.approx(np.full(4, 0.25))


def test_measure_space_norm_and_inner():
    mu = MeasureSpace(np.array([0.25, 0.75]))
    f = np.array([2.0, -1.0])
    assert mu.norm(f, 2.0) == pytest.approx(math.sqrt(0.25 * 4 + 0.75))
    assert mu.norm(f, float("inf")) == pytest.approx(2.0)
    assert mu.norm(np.zeros(2), 3.0) == 0.0
    assert float((mu.weights * f) @ f) == pytest.approx(0.25 * 4 + 0.75)


def test_subspace_requires_orthonormal_basis():
    mu = MeasureSpace.uniform(3)
    with pytest.raises(GramDefectError):
        Subspace(mu, np.ones((3, 1)) * 2.0)
    with pytest.raises(DimensionMismatchError):
        Subspace(MeasureSpace.uniform(4), np.ones((3, 1)))
    with pytest.raises(ValueError):
        Subspace(mu, np.ones((3, 0)))
    with pytest.raises(ValueError, match="finite"):
        Subspace(mu, np.array([[np.nan], [1.0], [1.0]]))


def test_random_subspace_is_orthonormal_and_deterministic():
    for measure in (None, MeasureSpace(np.linspace(1, 2, 10) / np.linspace(1, 2, 10).sum())):
        sub = random_subspace(3, 10, seed=5, measure=measure)
        gram = sub.basis.T @ (sub.measure.weights[:, None] * sub.basis)
        assert gram == pytest.approx(np.eye(3), abs=1e-10)
    a = random_subspace(3, 10, seed=5)
    b = random_subspace(3, 10, seed=5)
    assert np.array_equal(a.basis, b.basis)
    with pytest.raises(ValueError):
        random_subspace(11, 10, seed=0)
    with pytest.raises(ValueError, match="support_size"):  # once a ZeroDivisionError
        random_subspace(1, 0, seed=0)
    with pytest.raises(DimensionMismatchError):
        random_subspace(2, 10, seed=0, measure=MeasureSpace.uniform(8))


def test_sample_point_set_validation():
    with pytest.raises(ValueError):
        SamplePointSet(np.array([1, 1, 2]))
    with pytest.raises(ValueError):
        SamplePointSet(np.array([-1, 0]))
    with pytest.raises(ValueError):
        SamplePointSet(np.array([], dtype=int))
    pts = SamplePointSet(np.array([4, 0, 2]))
    assert pts.count == 3


def test_sample_point_set_rejects_non_integral_indices():
    # a cast would read 1.7 as 1, and 0.5 and 1.2 as the distinct 0 and 1
    for indices in ([0, 1.7], [0.5, 1.2], np.array([0.0, 1.0]), [True, False]):
        with pytest.raises(ValueError, match="nonnegative integers"):
            SamplePointSet(indices)
    assert SamplePointSet([2, 0]).indices.tolist() == [2, 0]


# ---------------------------------------------------------------------------
# reproducing kernel

def test_dirichlet_kernel_reproduces_point_evaluation():
    sub = random_subspace(4, 12, seed=7)
    K = sub._kernel
    assert K == pytest.approx(K.T, abs=1e-12)
    # weighted trace counts the dimension
    assert float(sub.measure.weights @ np.diag(K)) == pytest.approx(4.0, abs=1e-10)
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = sub.evaluate(rng.standard_normal(4))
        for x in (0, 5, 11):
            assert float((sub.measure.weights * f) @ K[x]) == pytest.approx(f[x], abs=1e-10)


# ---------------------------------------------------------------------------
# the uniform-norm constant

def test_m_p_is_one_for_constants():
    # the constant function has equal sup and L_p norms for every p
    sub = Subspace(MeasureSpace.uniform(2), np.ones((2, 1)))
    for p in (2.0, 3.0, 4.0):
        assert m_p_direct(sub, p) == pytest.approx(1.0, abs=1e-9)
        assert m_p_dual(sub, p) == pytest.approx(1.0, abs=1e-9)


def test_m_p_of_the_full_space_is_the_support_size_root():
    sub = random_subspace(6, 6, seed=9)
    for p in (2.0, 3.0, 4.0):
        assert m_p_direct(sub, p) == pytest.approx(6.0 ** (1.0 / p), rel=1e-7)


def test_m_p_is_nonincreasing_in_p_and_at_least_one():
    # ||f||_p grows with p under a probability measure, so the ratio
    # sup over L_p shrinks
    for seed in (10, 11):
        sub = random_subspace(3, 24, seed=seed)
        values = [m_p_dual(sub, p) for p in (2.0, 3.0, 4.0)]
        assert values[0] >= values[1] >= values[2] - 1e-9
        assert values[-1] >= 1.0 - 1e-9


def test_m_p_routes_agree():
    sub = random_subspace(4, 40, seed=12)
    assert abs(m_p_direct(sub, 2.0) - m_p_dual(sub, 2.0)) <= 1e-6
    assert abs(m_p_direct(sub, 3.0) - m_p_dual(sub, 3.0)) <= 1e-4


def test_m_p_rejects_small_exponents():
    # a non-finite p is a bad input too, not a solve that fails to converge
    sub = random_subspace(2, 8, seed=13)
    pts = SamplePointSet(np.arange(4))
    for p in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite p >= 2"):
            m_p_direct(sub, p)
        with pytest.raises(ValueError, match="finite p >= 2"):
            m_p_dual(sub, p)
        with pytest.raises(ValueError, match="finite p >= 2"):
            it1_experiment(sub, pts, p, [2], seed=0, cover_sample_size=320)


def _direct_point_solve(sub, x, p, tol):
    """Reference direct solve at one point: max f(x) over the L_p unit ball.

    f* = B(c0 + Z y*) minimizes ||f||_p over subspace elements with
    f(x) = 1, with Z a basis of the null space of B[x], so the point
    value is 1 / ||f*||_p; the p-th power is minimized over y by the
    serial residual form.  f* is None when every subspace element
    vanishes at x.
    """
    a = sub.basis[x]
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return 0.0, None
    B = sub.basis
    c0 = a / scale ** 2
    Z = null_space(a[None, :])
    if Z.shape[1] == 0:  # one-dimensional subspace
        f = B @ c0
        return 1.0 / sub.measure.norm(f, p), f
    res = optim.minimize_power_residual(B @ Z, -(B @ c0), sub.measure.weights, p,
                                        decrement_tol=tol)
    return float(res.value ** (-1.0 / p)), B @ (c0 + Z @ res.x)


def _complement_route(sub, x, p, tol):
    """Reference dual solve: the distance from D(x, .) to the complement.

    The complement of the subspace gets an orthonormal basis Kw in the
    half-weighted frame, and the p'-th power of g = D(x, .) - Kw y is
    minimized over its N - d coefficients y by the serial residual
    form.  Returns the norm and the minimizer g.
    """
    mu = sub.measure.weights
    Dx = sub._kernel[x]
    pp = p / (p - 1.0)
    root = np.sqrt(mu)
    Kw = null_space((root[:, None] * sub.basis).T) / root[:, None]
    if Kw.shape[1] == 0:
        return sub.measure.norm(Dx, pp), Dx
    res = optim.minimize_power_residual(Kw, Dx, mu, pp, decrement_tol=tol)
    return res.value ** (1.0 / pp), Dx - Kw @ res.x


def _weighted(size, seed):
    w = np.random.default_rng(seed).uniform(0.5, 1.5, size)
    return MeasureSpace(w / w.sum())


@st.composite
def _subspaces(draw):
    dim = draw(st.integers(1, 5))
    size = draw(st.integers(max(dim, 2), 24))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    measure = _weighted(size, seed) if draw(st.booleans()) else None
    return random_subspace(dim, size, seed, measure=measure)


def _close_rows(rows, reference, rel):
    """Each row within rel times its reference row's largest entry."""
    for row, ref in zip(rows, reference):
        assert np.abs(row - ref).max() <= rel * np.abs(ref).max()


@example(sub=random_subspace(1, 9, seed=3), p=3.0)
@example(sub=random_subspace(1, 7, seed=6, measure=_weighted(7, 6)), p=2.5)
@example(sub=random_subspace(5, 5, seed=4), p=4.0)
@example(sub=random_subspace(6, 6, seed=5, measure=_weighted(6, 5)), p=2.5)
@given(sub=_subspaces(), p=st.sampled_from([2.5, 3.0, 4.0]))
def test_batched_solves_match_the_per_point_references(sub, p):
    # both stacked routes against serial solves of the same problems, one
    # point at a time: the drawn subspaces, lines (d = 1) and full spaces
    points = range(sub.support_size)
    values, coefs = _direct_solves(sub, p, 1e-15)
    direct = [_direct_point_solve(sub, x, p, 1e-15) for x in points]
    assert values == pytest.approx([value for value, _ in direct], rel=1e-12)
    extremals = [f for _, f in direct]
    _close_rows(coefs @ sub.basis.T, extremals, 1e-9)
    ddict = build_discretization_dictionary(sub, SamplePointSet(np.arange(len(points))), p)
    _close_rows(ddict.w_vectors, [_representer(sub, x, extremals[x], p) for x in points],
                1e-9)
    norms, minimizers = _dual_solves(sub, p, 1e-15)
    dual = [_complement_route(sub, x, p, 1e-15) for x in points]
    assert norms == pytest.approx([value for value, _ in dual], rel=1e-12)
    # at p' < 2 the Newton decrement stalls near 1e-15 on round-off, which
    # pins the dual minimizer only to about its square root: the stacked
    # constrained solves and the complement route stopped up to 6.2e-8 of
    # the largest entry apart on 300 random subspaces at p = 2.5, 3 and 4
    _close_rows(minimizers, [g for _, g in dual], 1e-6)


@given(sub=_subspaces(), p=st.sampled_from([2.5, 3.0, 4.0]))
def test_dual_minimizer_satisfies_the_kkt_conditions(sub, p):
    # min sum mu |g|^p' subject to B^T(mu g) = B[x]: the minimizer is
    # feasible, and the gradient |g|^(p'-2) g lies in span(B).  Smoothing
    # at eps = 1e-8 times the data scale moves each gradient entry by less
    # than (eps)^(p'-1), which bounds the stationarity residual.
    mu = sub.measure.weights
    B = sub.basis
    pp = p / (p - 1.0)
    norms, minimizers = _dual_solves(sub, p, 1e-15)
    for x in range(sub.support_size):
        value, g = norms[x], minimizers[x]
        scale = float(np.abs(sub._kernel[x]).max())
        assert np.abs(B.T @ (mu * g) - B[x]).max() <= 1e-10 * scale
        grad = np.sign(g) * np.abs(g) ** (pp - 1.0)
        residual = grad - B @ (B.T @ (mu * grad))
        assert np.abs(residual).max() <= (1e-8 * scale) ** (pp - 1.0)
        assert value == pytest.approx(sub.measure.norm(g, pp), rel=1e-12)
        assert value == pytest.approx(_complement_route(sub, x, p, 1e-15)[0], rel=1e-12)


def _vanishing_at(x):
    """Two basis functions on five points that both vanish at point x."""
    u = np.array([1.0, -1.0, 1.0, -1.0]) * math.sqrt(5.0 / 4.0)
    v = np.array([1.0, 1.0, -1.0, -1.0]) * math.sqrt(5.0 / 4.0)
    basis = np.insert(np.column_stack([u, v]), x, 0.0, axis=0)
    return Subspace(MeasureSpace.uniform(5), basis)


def test_dual_route_is_zero_without_a_solve_where_every_function_vanishes(monkeypatch):
    # both basis functions vanish at the last point, so every subspace
    # element does, and the zero representer is the minimizer there
    sub = _vanishing_at(4)
    stacks = []
    cho_factor = optim.cho_factor
    monkeypatch.setattr(optim, "cho_factor",
                        lambda H: stacks.append(len(H)) or cho_factor(H))
    for p in (3.0, 4.0):
        stacks.clear()
        norms, minimizers = _dual_solves(sub, p, 1e-9)
        assert norms[4] == 0.0
        assert np.array_equal(minimizers[4], np.zeros(5))
        # the first step stacks every point still running, and no later one
        # stacks more: the vanishing point is in none of them
        assert stacks[0] == 4
        assert max(stacks) == 4
        assert np.all(norms[:4] > 0.0)
        values, coefs = _direct_solves(sub, p, 1e-9)
        assert values[4] == 0.0
        assert np.array_equal(coefs[4], np.zeros(2))
        assert m_p_dual(sub, p) == pytest.approx(m_p_direct(sub, p), abs=1e-8)


@pytest.mark.parametrize("weighted", [False, True])
def test_solving_in_blocks_changes_no_point_value(monkeypatch, weighted):
    # 20 points in blocks of at most 3: every block runs its own masked
    # loop, and each point's value is the one the single block gives it
    measure = _weighted(20, 25) if weighted else None
    sub = random_subspace(3, 20, seed=25, measure=measure)
    whole = [solve(sub, 3.0, 1e-9)[0] for solve in (_direct_solves, _dual_solves)]
    stacks = []
    cho_factor = optim.cho_factor
    monkeypatch.setattr(optim, "cho_factor",
                        lambda H: stacks.append(len(H)) or cho_factor(H))
    monkeypatch.setattr(optim, "_BLOCK", 3)
    blocked = [solve(sub, 3.0, 1e-9)[0] for solve in (_direct_solves, _dual_solves)]
    assert max(stacks) == 3
    for a, b in zip(blocked, whole):
        assert a == pytest.approx(b, rel=1e-12)


def test_direct_route_names_the_point_where_the_objective_overflows():
    # at p = 1e9 the direct objective overflows at the first iterate of
    # every point; point 0 vanishes and takes no solve, so point 1 is the
    # first to fail.  The dual exponent p' is close to 1, which does not
    # overflow, and M_p is close to its p = inf value 1
    sub = _vanishing_at(0)
    with pytest.raises(NonConvergenceError) as exc:
        m_p_direct(sub, 1e9)
    assert exc.value.iterations == 1
    assert "the objective overflowed" in str(exc.value)
    assert str(exc.value).endswith("at point 1")
    assert m_p_dual(sub, 1e9) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("weighted", [False, True])
def test_dual_route_on_a_full_space(weighted):
    # every function is in the subspace, so evaluation at x has the one
    # representer 1_x / mu_x, of L_p' norm mu_x^(-1/p)
    measure = None
    if weighted:
        w = np.random.default_rng(23).uniform(0.5, 1.5, 7)
        measure = MeasureSpace(w / w.sum())
    sub = random_subspace(7, 7, seed=24, measure=measure)
    mu = sub.measure.weights
    for p in (3.0, 4.0):
        assert m_p_dual(sub, p) == pytest.approx(float((mu ** (-1.0 / p)).max()), rel=1e-9)
        norms, minimizers = _dual_solves(sub, p, 1e-9)
        assert minimizers[2] == pytest.approx(np.eye(7)[2] / mu[2], abs=1e-9)
        assert norms[2] == pytest.approx(mu[2] ** (-1.0 / p), rel=1e-9)


# ---------------------------------------------------------------------------
# evaluation dictionaries

@pytest.mark.parametrize("p", [2.0, 3.0])
def test_built_dictionary_invariants(p):
    sub = random_subspace(3, 20, seed=14)
    pts = SamplePointSet(np.arange(0, 20, 4))
    ddict = build_discretization_dictionary(sub, pts, p)
    mu = sub.measure.weights
    pp = p / (p - 1.0)
    # w_j acts as point evaluation on the basis
    repro = sub.basis.T @ (mu[:, None] * ddict.w_vectors.T)
    assert repro == pytest.approx(sub.basis[pts.indices].T, abs=1e-8)
    assert np.all(ddict.w_norms <= 2.0 * ddict.m_p + 1e-6)
    for j in range(pts.count):
        assert sub.measure.norm(ddict.atoms[:, j], pp) == pytest.approx(1.0, abs=1e-9)
    u_dict = ddict.u_dictionary()
    assert u_dict.size == pts.count
    f = sub.evaluate(np.array([1.0, -0.5, 2.0]))
    assert norm_U(f, u_dict) == pytest.approx(
        float(np.abs((mu * f) @ ddict.atoms).max()), abs=1e-12)


def test_hilbert_case_uses_kernel_rows():
    sub = random_subspace(3, 16, seed=15)
    pts = SamplePointSet(np.array([1, 7, 13]))
    ddict = build_discretization_dictionary(sub, pts, 2.0)
    K = sub._kernel
    assert ddict.w_vectors == pytest.approx(K[pts.indices], abs=1e-12)


@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("weighted", [False, True])
def test_dictionary_comes_from_the_direct_route(p, weighted):
    measure = None
    if weighted:
        w = np.random.default_rng(21).uniform(0.5, 1.5, 30)
        measure = MeasureSpace(w / w.sum())
    sub = random_subspace(4, 30, seed=22, measure=measure)
    pts = SamplePointSet(np.arange(1, 30, 4))
    ddict = build_discretization_dictionary(sub, pts, p)
    # the same direct solves, run to the tighter decrement the
    # representers need
    assert ddict.m_p == _direct_solves(sub, p, 1e-15)[0].max()
    assert ddict.m_p == pytest.approx(m_p_direct(sub, p), rel=1e-8)
    # the Hahn-Banach representer is unique, so the dual minimizer,
    # solved tightly, lands on the same vector
    norms, minimizers = _dual_solves(sub, p, 1e-15)
    for j, x in enumerate(pts.indices):
        assert np.abs(ddict.w_vectors[j] - minimizers[x]).max() <= 1e-6
        assert ddict.w_norms[j] == pytest.approx(norms[x], rel=1e-9)


def test_build_rejects_out_of_range_points():
    sub = random_subspace(2, 8, seed=16)
    with pytest.raises(ValueError):
        build_discretization_dictionary(sub, SamplePointSet(np.array([8])), 2.0)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_transfer_inequality_holds_on_random_functions(p):
    sub = random_subspace(4, 32, seed=17)
    pts = SamplePointSet(np.arange(0, 32, 2))
    ddict = build_discretization_dictionary(sub, pts, p)
    report = verify_transfer(sub, ddict, trials=200, seed=18)
    assert 0.0 < report.max_ratio <= 1.0 + 1e-12
    assert report.bound == pytest.approx(2.0 * ddict.m_p)


def test_transfer_breach_raises_with_the_witness():
    # a breach raises, so the raise is the only signal a caller gets
    sub = random_subspace(4, 32, seed=17)
    pts = SamplePointSet(np.arange(0, 32, 2))
    ddict = build_discretization_dictionary(sub, pts, 4.0)
    shrunk = dataclasses.replace(ddict, m_p=ddict.m_p * 1e-3)
    with pytest.raises(PropertyViolationError, match="transfer inequality") as info:
        verify_transfer(sub, shrunk, trials=50, seed=18)
    c = info.value.witness
    # the first Gaussian draw already breaches the shrunken bound
    assert np.array_equal(c, np.random.default_rng(18).standard_normal(sub.dim))
    f = sub.evaluate(c)
    assert np.abs(f[pts.indices]).max() > 2.0 * shrunk.m_p * norm_U(f, ddict.u_dictionary())


# ---------------------------------------------------------------------------
# the subspace entropy experiment

def test_it1_frozen_instance():
    rng = np.random.default_rng(0)
    sub = random_subspace(8, 256, int(rng.integers(2 ** 31)))
    pts = SamplePointSet(np.sort(rng.choice(256, 64, replace=False)))
    res = it1_experiment(sub, pts, 2.0, [8, 16, 32, 64], seed=0,
                         cover_sample_size=320)
    assert res.m_p == pytest.approx(5.091072268098098, abs=1e-9)
    assert res.upper_ratio == pytest.approx(
        [1.414213562373095, 2.1015292794606046, 1.336052258988617,
         0.5231386747092405], abs=1e-9)
    assert res.spread == pytest.approx(4.017155261229025, abs=1e-8)
    envelope = res.m_p * log_ratio_envelope(64, np.array([8.0, 16.0, 32.0, 64.0]), 0.5)
    assert res.envelope == pytest.approx(envelope, abs=1e-12)
    assert np.all(res.profile.lower <= res.profile.upper + 1e-12)


def test_it1_uppers_never_exceed_the_trivial_radius():
    rng = np.random.default_rng(19)
    sub = random_subspace(2, 24, int(rng.integers(2 ** 31)))
    pts = SamplePointSet(np.sort(rng.choice(24, 8, replace=False)))
    res = it1_experiment(sub, pts, 2.0, [3, 5, 8], seed=2, cover_sample_size=64)
    assert np.all(res.profile.upper <= res.m_p + 1e-12)
    for src in res.profile.upper_source:
        assert src in ("trivial", "sparse-cover")


def test_it1_validates_k_list():
    sub = random_subspace(2, 16, seed=20)
    pts = SamplePointSet(np.arange(8))
    with pytest.raises(ValueError):
        it1_experiment(sub, pts, 2.0, [9], seed=0, cover_sample_size=320)
    with pytest.raises(ValueError):
        it1_experiment(sub, pts, 2.0, [], seed=0, cover_sample_size=320)
    with pytest.raises(ValueError):
        it1_experiment(sub, pts, 1.0, [4], seed=0, cover_sample_size=320)
