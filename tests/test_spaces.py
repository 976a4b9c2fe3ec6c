"""Norms, duality pairings, and dictionary-induced norms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

import entrobound.spaces as spaces
from entrobound import (
    AmbientMetric,
    AtomNormalizationError,
    Dictionary,
    DimensionMismatchError,
    EmptyDictionaryError,
    MeasureSpace,
    NormedSpaceSpec,
    SpanMembershipError,
    ZeroVectorError,
    canonical_dictionary,
    discrete_space,
    dual_norm,
    norm,
    norm_A,
    norm_U,
    norming_functional,
    pair,
    sample_octahedron,
    sequence_space,
    sigma_profile,
    smoothness_bound,
)
from entrobound.spaces import _l1_lp


@st.composite
def _spaces_and_rows(draw, weighted=None):
    """A sequence or weighted space with q in (1, 6], and a few vectors in it."""
    dim = draw(st.integers(1, 8))
    q = draw(st.floats(1.0, 6.0, exclude_min=True))
    if weighted is None:
        weighted = draw(st.booleans())
    if weighted:
        w = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim)))
        space = discrete_space(w / w.sum(), q)
    else:
        space = sequence_space(dim, q)
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)
    rows = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                         min_size=1, max_size=6))
    return space, np.array(rows)


# ---------------------------------------------------------------------------
# ambient norms

def test_sequence_norm_values():
    assert norm(sequence_space(3, 2.0), [3.0, 4.0, 0.0]) == pytest.approx(5.0, abs=1e-12)
    assert norm(sequence_space(2, 1.5), [1.0, 1.0]) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-12)
    assert norm(sequence_space(4, 2.0), np.zeros(4)) == 0.0


def test_discrete_norm_integrates_the_measure():
    space = discrete_space([0.5, 0.5], 2.0)
    assert norm(space, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert norm(space, [2.0, 0.0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_norm_peak_factoring_survives_large_entries():
    # naive sum |x|^q overflows here; the peak-factored form must not
    value = norm(sequence_space(2, 6.0), [1e250, 5e249])
    assert math.isfinite(value)
    assert value == pytest.approx(1e250 * (1.0 + 0.5 ** 6) ** (1.0 / 6.0), rel=1e-12)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_norm_homogeneity_and_triangle(q):
    rng = np.random.default_rng(1)
    space = sequence_space(6, q)
    for _ in range(50):
        f, g = rng.standard_normal((2, 6))
        c = float(rng.normal())
        assert norm(space, c * f) == pytest.approx(abs(c) * norm(space, f), abs=1e-9)
        assert norm(space, f + g) <= norm(space, f) + norm(space, g) + 1e-9


def test_space_validation():
    with pytest.raises(ValueError):
        sequence_space(0, 2.0)
    with pytest.raises(ValueError):
        sequence_space(3, 1.0)
    with pytest.raises(ValueError):
        sequence_space(3, float("inf"))
    with pytest.raises(ValueError):
        discrete_space([0.5, 0.6], 2.0)      # sums to 1.1
    with pytest.raises(ValueError):
        discrete_space([1.0, 0.0], 2.0)      # zero weight


@given(case=_spaces_and_rows(weighted=True))
def test_measure_space_norm_is_the_space_norm(case):
    space, X = case
    mu = MeasureSpace(space.weights)
    for x in X:
        assert mu.norm(x, space.q) == norm(space, x)


@given(case=_spaces_and_rows())
def test_row_norms_match_the_norm_of_each_row(case):
    # rows sum as M @ w and a vector as w @ v, so they may differ in the last bits
    space, X = case
    rows = AmbientMetric(space).norms(X)
    for x, value in zip(X, rows):
        assert value == pytest.approx(norm(space, x), rel=1e-15, abs=0.0)


@st.composite
def _stacks(draw):
    """A plain or weighted space and a stack of rows across many magnitudes.

    Lengths run past several multiples of 8, some rows are zero, and each
    row is scaled by its own power of ten in [1e-300, 1e300].
    """
    dim = draw(st.integers(1, 40))
    q = draw(st.sampled_from([4.0 / 3.0, 1.5, 2.0, 3.0, 50.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        w = rng.uniform(0.05, 1.0, dim)
        space = discrete_space(w / w.sum(), q)
    else:
        space = sequence_space(dim, q)
    count = draw(st.integers(1, 9))
    X = rng.standard_normal((count, dim))
    X *= 10.0 ** rng.integers(-300, 301, (count, 1))
    X[rng.random(count) < 0.2] = 0.0
    X *= rng.random((count, dim)) < 0.8  # zero entries inside rows too
    return space, X


@given(case=_stacks())
def test_stacked_norms_round_as_the_vector_path(case):
    # each row is its own dot product, so the stack agrees bit for bit,
    # in either memory layout; the matrix path M @ w need not
    space, X = case
    w = space.weight_vector()
    each = [norm(space, x) for x in X]
    assert all(type(value) is float for value in each)
    assert spaces._power_norm(X, w, space.q).tolist() == each
    assert spaces._power_norm(np.asfortranarray(X), w, space.q).tolist() == each
    mu = MeasureSpace(w / w.sum())
    peaks = [mu.norm(x, math.inf) for x in X]
    assert peaks == np.abs(X).max(axis=1).tolist()
    assert spaces._power_norm(X, mu.weights, math.inf).tolist() == peaks


def test_dimension_errors_name_a_length_or_a_shape():
    space = sequence_space(4, 2.0)
    with pytest.raises(DimensionMismatchError, match=r"^vector has length 3, expected 4$"):
        norm(space, np.ones(3))
    with pytest.raises(DimensionMismatchError,
                       match=r"^vector has shape \(2, 4\), expected length 4$"):
        norm(space, np.ones((2, 4)))
    with pytest.raises(DimensionMismatchError,
                       match=r"^weight vector has length 2, expected 3$"):
        NormedSpaceSpec(dim=3, q=2.0, weights=np.full(2, 0.5))
    with pytest.raises(DimensionMismatchError,
                       match=r"^weight vector has shape \(1, 3\), expected length 3$"):
        NormedSpaceSpec(dim=3, q=2.0, weights=np.full((1, 3), 1.0 / 3.0))
    # a stack of rows names the shape of a row: a 1-D input's rows are scalars
    with pytest.raises(DimensionMismatchError, match=r"^vector has length 3, expected 4$"):
        spaces._check_rows(space, np.ones((5, 3)))
    with pytest.raises(DimensionMismatchError,
                       match=r"^vector has shape \(\), expected length 4$"):
        spaces._check_rows(space, np.ones(4))
    with pytest.raises(DimensionMismatchError,
                       match=r"^vector has shape \(2, 4\), expected length 4$"):
        spaces._check_rows(space, np.ones((3, 2, 4)))
    with pytest.raises(ValueError, match="finite"):
        spaces._check_rows(space, [[0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 0.0, 0.0]])


def test_space_rejects_non_finite_weights():
    # a NaN weight slips past both the sign and the sum check
    with pytest.raises(ValueError, match="finite"):
        discrete_space([float("nan"), 1.0], 2.0)
    with pytest.raises(ValueError, match="finite"):
        discrete_space([float("inf"), 0.5], 2.0)


def test_weight_vector_is_built_once_and_read_only():
    space = sequence_space(4, 1.5)
    w = space.weight_vector()
    assert w is space.weight_vector()
    assert np.array_equal(w, np.ones(4))
    with pytest.raises(ValueError):
        w[0] = 2.0
    measured = discrete_space([0.25, 0.75], 3.0)
    assert measured.weight_vector() is measured.weights


def test_space_rejects_non_integral_dimensions():
    # int() once read a document's dim 2.7 as 2
    for dim in (2.5, True):
        with pytest.raises(ValueError, match="dim: need an integer"):
            NormedSpaceSpec(dim=dim, q=2.0)
    with pytest.raises(ValueError, match="dim: need an integer"):
        NormedSpaceSpec.from_json({"dim": 2.7, "q": 2.0})
    assert NormedSpaceSpec(dim=np.int64(2), q=2.0).dim == 2


def test_space_documents_reject_a_non_real_exponent():
    # float() once read "q": "1.5" as 1.5
    for q in ("1.5", True, None):
        with pytest.raises(ValueError, match="^q: need a finite exponent > 1"):
            NormedSpaceSpec.from_json({"dim": 2, "q": q})
    assert NormedSpaceSpec.from_json({"dim": 2, "q": 3}).q == 3


def test_space_json_round_trip():
    for space in (sequence_space(5, 1.5), discrete_space([0.2, 0.3, 0.5], 3.0)):
        back = NormedSpaceSpec.from_json(space.to_json())
        assert back.dim == space.dim and back.q == space.q
        f = np.array([1.0, -2.0, 0.5, 0.0, 3.0])[: space.dim]
        assert norm(back, f) == pytest.approx(norm(space, f), abs=1e-15)
    # the weights alone decide the kind
    weighted = NormedSpaceSpec(dim=2, q=3.0, weights=np.array([0.25, 0.75]))
    assert norm(weighted, np.array([1.0, 0.0])) == 0.25 ** (1.0 / 3.0)
    assert "norm_kind" not in weighted.to_json()
    # older documents name the kind, which must agree with the weights
    old_plain = {"dim": 2, "q": 1.5, "norm_kind": "sequence_lq"}
    old_weighted = {"dim": 2, "q": 3.0, "norm_kind": "discrete_lq_mu",
                    "weights": [0.25, 0.75]}
    assert NormedSpaceSpec.from_json(old_plain).weights is None
    assert np.array_equal(NormedSpaceSpec.from_json(old_weighted).weights,
                          [0.25, 0.75])
    for doc, match in ((dict(old_plain, norm_kind="hilbert"), "unknown"),
                       (dict(old_plain, weights=[0.5, 0.5]), "contradicts"),
                       (dict(old_weighted, weights=None), "contradicts")):
        with pytest.raises(ValueError, match=match):
            NormedSpaceSpec.from_json(doc)


# ---------------------------------------------------------------------------
# duality

def test_dual_exponent_pairs():
    assert sequence_space(2, 1.5).dual_exponent == pytest.approx(3.0)
    assert sequence_space(2, 2.0).dual_exponent == pytest.approx(2.0)
    assert sequence_space(2, 3.0).dual_exponent == pytest.approx(1.5)


def test_pair_uses_the_measure():
    space = discrete_space([0.25, 0.75], 2.0)
    assert pair(space, [1.0, 2.0], [4.0, 1.0]) == pytest.approx(0.25 * 4.0 + 0.75 * 2.0)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_holder_inequality(q):
    rng = np.random.default_rng(2)
    space = sequence_space(5, q)
    for _ in range(50):
        F, f = rng.standard_normal((2, 5))
        assert abs(pair(space, F, f)) <= dual_norm(space, F) * norm(space, f) + 1e-9


def test_norming_functional_closed_form():
    # q = 1.5, f = (1, 1): coordinates sign * |f / ||f|| |^(q-1) = 2^(-1/3)
    space = sequence_space(2, 1.5)
    F = norming_functional(space, np.array([1.0, 1.0]))
    assert F == pytest.approx(np.full(2, 2.0 ** (-1.0 / 3.0)), abs=1e-14)
    assert pair(space, F, np.array([1.0, 1.0])) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-12)
    assert dual_norm(space, F) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", [1.5, 2.0, 4.0])
def test_norming_functional_is_norming(q):
    rng = np.random.default_rng(3)
    space = discrete_space([0.1, 0.2, 0.3, 0.4], q)
    for _ in range(25):
        f = rng.standard_normal(4)
        F = norming_functional(space, f)
        assert dual_norm(space, F) == pytest.approx(1.0, abs=1e-9)
        assert pair(space, F, f) == pytest.approx(norm(space, f), abs=1e-9)


@given(case=_spaces_and_rows())
def test_norming_functional_has_dual_norm_one_and_norms_f(case):
    space, X = case
    for f in X:
        if norm(space, f) == 0.0:
            continue
        F = norming_functional(space, f)
        assert dual_norm(space, F) == pytest.approx(1.0, rel=1e-12)
        assert pair(space, F, f) == pytest.approx(norm(space, f), rel=1e-12)


def test_norming_functional_rejects_zero():
    with pytest.raises(ZeroVectorError):
        norming_functional(sequence_space(3, 2.0), np.zeros(3))


@pytest.mark.parametrize("call, what", [
    (lambda space, x: norm(space, x), "vector"),
    (lambda space, x: pair(space, x, np.ones(2)), "functional"),
    (lambda space, x: pair(space, np.ones(2), x), "vector"),
    (lambda space, x: dual_norm(space, x), "functional"),
    (lambda space, x: norming_functional(space, x), "vector"),
], ids=["norm", "pair-functional", "pair-vector", "dual_norm", "norming_functional"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norms_and_pairings_reject_non_finite_input(call, what, bad):
    # each of these used to return NaN for [nan, 1.0]
    for space in (sequence_space(2, 1.5), discrete_space(np.array([0.25, 0.75]), 3.0)):
        with pytest.raises(ValueError, match=f"the {what} must be finite"):
            call(space, np.array([bad, 1.0]))


# ---------------------------------------------------------------------------
# dictionaries

def test_canonical_dictionary_is_the_identity():
    d = canonical_dictionary(4, 2.0)
    assert d.size == 4
    assert np.array_equal(d.atoms, np.eye(4))


def test_dictionary_rejects_non_unit_atoms():
    space = sequence_space(2, 2.0)
    with pytest.raises(AtomNormalizationError):
        Dictionary(2.0 * np.eye(2), space)
    with pytest.raises(DimensionMismatchError):
        Dictionary(np.eye(3), space)
    with pytest.raises(EmptyDictionaryError):
        Dictionary(np.zeros((2, 0)), space)


def test_dictionary_names_the_first_non_unit_atom():
    space = discrete_space([0.25, 0.25, 0.5], 1.5)
    atoms = np.diag(space.weight_vector() ** (-1.0 / 1.5))
    Dictionary(atoms, space)
    atoms[:, 1] *= 3.0
    atoms[:, 2] *= 0.5
    with pytest.raises(AtomNormalizationError) as info:
        Dictionary(atoms, space)
    # atom 1 is reported, with the norm that norm() gives it, as a float
    assert info.value.index == 1 and type(info.value.index) is int
    assert info.value.norm == norm(space, atoms[:, 1]) and type(info.value.norm) is float
    assert str(info.value) == f"atom 1 has norm {norm(space, atoms[:, 1])!r}, expected 1 within 1e-10"


def test_dictionary_rejects_non_finite_atoms():
    # |nan - 1| > tol is False, so the unit-norm check alone lets NaN in
    space = sequence_space(2, 2.0)
    with pytest.raises(ValueError, match="finite"):
        Dictionary(np.array([[np.nan], [1.0]]), space)
    with pytest.raises(ValueError, match="finite"):
        Dictionary(np.array([[np.inf, 1.0], [0.0, 0.0]]), space)


def test_dictionary_pairings_and_json():
    space = discrete_space([0.25, 0.75], 2.0)
    atoms = np.array([[2.0, 0.0], [0.0, 2.0 / math.sqrt(3.0)]])
    d = Dictionary(atoms, space)
    F = np.array([1.0, -1.0])
    expected = (space.weights * F) @ atoms
    assert d.pairings(F) == pytest.approx(expected, abs=1e-15)
    back = Dictionary.from_json(d.to_json())
    assert np.array_equal(back.atoms, d.atoms)
    assert back.space.q == space.q


def test_norm_A_picks_the_cheapest_representation():
    s = 1.0 / math.sqrt(2.0)
    atoms = np.array([[1.0, 0.0, s], [0.0, 1.0, s]])
    d = Dictionary(atoms, sequence_space(2, 2.0))
    f = np.array([1.0, 1.0])
    # via e1 + e2 the cost is 2; via the diagonal atom it is sqrt(2)
    assert norm_A(f, d) == pytest.approx(math.sqrt(2.0), abs=1e-9)
    coeffs = _l1_lp(f, d)[1]
    assert atoms @ coeffs == pytest.approx(f, abs=1e-9)
    assert np.abs(coeffs).sum() == pytest.approx(math.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize("c", [10.0 ** k for k in range(-10, 11, 2)])
def test_norm_A_is_scale_free(c):
    # HiGHS's tolerances are absolute, so the LP must see f at unit norm:
    # unscaled, c = 1e-8 and 1e-10 give 0.0
    s = 1.0 / math.sqrt(2.0)
    atoms = np.array([[1.0, 0.0, s], [0.0, 1.0, s]])
    d = Dictionary(atoms, sequence_space(2, 2.0))
    f = c * np.array([1.0, 1.0])
    assert norm_A(f, d) / c == pytest.approx(math.sqrt(2.0), rel=1e-9)
    coeffs = _l1_lp(f, d)[1]
    assert atoms @ coeffs == pytest.approx(f, rel=1e-9)


def test_norm_A_basic_properties():
    rng = np.random.default_rng(4)
    d = canonical_dictionary(5, 1.5)
    space = d.space
    for j in range(d.size):
        assert norm_A(d.atoms[:, j], d) <= 1.0 + 1e-9
    for _ in range(20):
        f = rng.standard_normal(5)
        na = norm_A(f, d)
        # unit atoms make the ambient norm a lower bound
        assert norm(space, f) <= na + 1e-9
        assert norm_A(2.5 * f, d) == pytest.approx(2.5 * na, abs=1e-8)


def test_norm_A_factors_each_dictionary_once(monkeypatch):
    rng = np.random.default_rng(6)
    space = sequence_space(4, 1.5)
    atoms = rng.standard_normal((4, 3))
    atoms /= [norm(space, atoms[:, j]) for j in range(3)]
    fs = [atoms @ rng.standard_normal(3) for _ in range(5)]
    expected = [norm_A(f, Dictionary(atoms, space)) for f in fs]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    d = Dictionary(atoms, space)
    assert [norm_A(f, d) for f in fs] == expected
    assert len(calls) == 1
    # the span check still runs on every call
    with pytest.raises(SpanMembershipError):
        norm_A(rng.standard_normal(4), d)
    assert len(calls) == 1


def test_norm_A_outside_span_raises():
    d = Dictionary(np.array([[1.0], [0.0]]), sequence_space(2, 2.0))
    with pytest.raises(SpanMembershipError):
        norm_A(np.array([0.0, 1.0]), d)


def test_norm_U_is_the_max_pairing():
    rng = np.random.default_rng(5)
    space = sequence_space(4, 1.5)
    atoms = rng.standard_normal((4, 6))
    atoms /= [norm(space, atoms[:, j]) for j in range(6)]
    d = Dictionary(atoms, space)
    F = rng.standard_normal(4)
    expected = float(np.abs(d.pairings(F)).max())
    assert norm_U(F, d) == pytest.approx(expected, abs=1e-15)


@given(case=_spaces_and_rows(), count=st.integers(1, 6),
       seed=st.integers(0, 2 ** 31 - 1))
def test_norm_U_is_the_lp_supremum_over_the_hull(case, count, seed):
    # sup <F, A c> over sum |c| <= 1, as an LP in c = c+ - c-; the LP
    # solver's tolerances are absolute, so it sees the pairings scaled to
    # unit l1 norm
    space, X = case
    atoms = np.random.default_rng(seed).standard_normal((space.dim, count))
    atoms /= [norm(space, atoms[:, j]) for j in range(count)]
    d = Dictionary(atoms, space)
    for F in X:
        obj = (space.weight_vector() * F) @ atoms
        scale = float(np.abs(obj).sum())
        if scale == 0.0:
            assert norm_U(F, d) == 0.0
            continue
        res = linprog(c=np.concatenate([-obj, obj]) / scale,
                      A_ub=np.ones((1, 2 * count)), b_ub=[1.0],
                      bounds=(0, None), method="highs")
        assert res.status == 0
        assert norm_U(F, d) == pytest.approx(-res.fun * scale, rel=1e-9)


@st.composite
def _independent_atoms(draw):
    """Linearly independent unit atoms, square or tall, in a plain or weighted
    space with q in {1.5, 2, 3}, and coefficients with some zeros."""
    count = draw(st.integers(1, 8))
    dim = count + draw(st.integers(0, 4))
    q = draw(st.sampled_from([1.5, 2.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        w = rng.uniform(0.2, 1.0, dim)
        space = discrete_space(w / w.sum(), q)
    else:
        space = sequence_space(dim, q)
    atoms = rng.standard_normal((dim, count))
    atoms /= [norm(space, atoms[:, j]) for j in range(count)]
    d = Dictionary(atoms, space)
    assert d._range[1].size == count
    c = rng.standard_normal(count) * (rng.random(count) < 0.7)
    return d, c


def _l1_reference(f, atoms):
    """min sum |c| subject to atoms @ c = f, as an LP in c = c+ - c-, solved
    at unit l2 norm of f because the solver's tolerances are absolute."""
    scale = float(np.linalg.norm(f))
    n = atoms.shape[1]
    res = linprog(c=np.ones(2 * n), A_eq=np.hstack([atoms, -atoms]), b_eq=f / scale,
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun * scale


@given(case=_independent_atoms())
def test_norm_A_of_independent_atoms_is_the_lp_minimum(case):
    d, c = case
    f = d.atoms @ c
    if not f.any():
        assert norm_A(f, d) == 0.0
        return
    assert norm_A(f, d) == pytest.approx(_l1_reference(f, d.atoms), rel=1e-9)


@given(case=_independent_atoms())
def test_independent_coefficients_reproduce_f_at_every_scale(case):
    d, c = case
    f = d.atoms @ c
    if not f.any():
        return
    base = norm_A(f, d)
    for k in range(-10, 11, 4):
        scale = 10.0 ** k
        value, coeffs = _l1_lp(scale * f, d)
        assert value / scale == pytest.approx(base, rel=1e-9)
        assert np.abs(coeffs).sum() == pytest.approx(value, rel=1e-12)
        gap = np.linalg.norm(d.atoms @ coeffs - scale * f)
        assert gap <= 1e-9 * np.linalg.norm(scale * f)


def test_the_lp_runs_only_for_dependent_atoms(monkeypatch):
    class LinprogCalled(Exception):
        pass

    def refuse(*args, **kwargs):
        raise LinprogCalled

    monkeypatch.setattr(spaces, "linprog", refuse)
    d = canonical_dictionary(16, 1.5)
    samples = [s["vector"] for s in sample_octahedron(d, 6, seed=3)]
    profile = sigma_profile(samples, d, [1, 2, 4, 8])
    assert profile.values.shape == (4,)
    outside = np.full(16, 1.01 / 16)
    with pytest.raises(ValueError, match="sample 2 lies outside the octahedron"):
        sigma_profile(samples[:2] + [outside] + samples[2:], d, [1, 2])
    s = 1.0 / math.sqrt(2.0)
    dependent = Dictionary(np.array([[1.0, 0.0, s], [0.0, 1.0, s]]),
                           sequence_space(2, 2.0))
    with pytest.raises(LinprogCalled):
        norm_A(np.array([1.0, 1.0]), dependent)


def test_norm_A_rejects_non_finite_input():
    # scipy's linprog would otherwise reject b_eq with its own message
    d = canonical_dictionary(3, 1.5)
    for bad in (np.nan, np.inf):
        f = np.array([bad, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            norm_A(f, d)
        with pytest.raises(ValueError, match="finite"):
            _l1_lp(f, d)[1]


# ---------------------------------------------------------------------------
# smoothness

def test_smoothness_bound_values():
    assert smoothness_bound(sequence_space(2, 2.0), 1.0) == pytest.approx(0.5)
    assert smoothness_bound(sequence_space(2, 1.5), 0.5) == pytest.approx(0.5 ** 1.5 / 1.5)
    assert smoothness_bound(sequence_space(2, 3.0), 2.0) == pytest.approx(4.0)


def test_smoothness_bound_rejects_non_finite_u():
    space = sequence_space(2, 1.5)
    for u in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            smoothness_bound(space, u)
    with pytest.raises(ValueError):
        smoothness_bound(space, -0.5)


def _estimate_modulus(space, u, *, trials, steps):
    """Lower estimate of rho(u) = sup (||x+uy|| + ||x-uy||)/2 - 1 on the sphere.

    Randomized starts followed by projected gradient ascent with
    backtracking.  Every evaluation uses feasible points, so the result
    is a true lower bound up to float rounding, and can never exceed
    ``smoothness_bound``.
    """
    rng = np.random.default_rng(0)
    d = space.dim

    def sphere(v):
        return v / norm(space, v)

    def value(x, y):
        return 0.5 * (norm(space, x + u * y) + norm(space, x - u * y)) - 1.0

    def grad_of_norm(v):
        # gradient of ||.|| at v: the norming functional scaled by the weights
        try:
            return space.weight_vector() * norming_functional(space, v)
        except ZeroVectorError:
            return np.zeros_like(v)

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
                xn = sphere(x + eta * gx)
                yn = sphere(y + eta * gy)
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

    starts = []
    if d >= 2:
        starts.append((sphere(np.eye(d)[0]), sphere(np.eye(d)[1])))
    for _ in range(trials):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        if norm(space, x) == 0.0 or norm(space, y) == 0.0:
            continue
        starts.append((sphere(x), sphere(y)))
    return max([0.0] + [ascend(x, y) for x, y in starts])


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_estimated_modulus_stays_below_the_bound(q):
    space = sequence_space(3, q)
    estimates = [_estimate_modulus(space, u, trials=4, steps=120) for u in (0.25, 0.5, 1.0)]
    for u, est in zip((0.25, 0.5, 1.0), estimates):
        assert 0.0 <= est <= smoothness_bound(space, u) + 1e-12
    assert estimates == sorted(estimates)


def test_estimated_modulus_is_tight_in_the_hilbert_case():
    # for q = 2 the modulus is sqrt(1 + u^2) - 1; the search gets close
    space = sequence_space(2, 2.0)
    u = 1.0
    true_value = math.sqrt(2.0) - 1.0
    est = _estimate_modulus(space, u, trials=8, steps=400)
    assert est <= smoothness_bound(space, u) + 1e-12
    assert est >= 0.8 * true_value
