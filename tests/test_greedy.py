"""Greedy sparse approximation and octahedron sampling."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

import entrobound._optim as optim
import entrobound.entropy as entropy
import entrobound.greedy as greedy
from entrobound import (
    BudgetExceededError,
    Dictionary,
    DimensionMismatchError,
    EmptySampleError,
    NonConvergenceError,
    Octahedron,
    ZeroVectorError,
    best_mterm_bruteforce,
    canonical_dictionary,
    chebyshev_project,
    discrete_space,
    norm,
    norm_A,
    norming_functional,
    octahedron_cover_profile,
    sample_octahedron,
    sequence_space,
    sigma_profile,
    smoothness_bound,
    wcga,
)


def _random_unit_dictionary(dim, count, q, seed):
    rng = np.random.default_rng(seed)
    space = sequence_space(dim, q)
    atoms = rng.standard_normal((dim, count))
    atoms /= [norm(space, atoms[:, j]) for j in range(count)]
    return Dictionary(atoms, space)


# ---------------------------------------------------------------------------
# wcga

def test_wcga_on_orthonormal_atoms_keeps_the_tail():
    d = canonical_dictionary(5, 2.0)
    f = np.array([16.0, 8.0, 4.0, 2.0, 1.0])
    run = wcga(f, d, 3)
    assert run.support == [0, 1, 2]
    assert run.residual_norm == pytest.approx(math.sqrt(4.0 + 1.0), abs=1e-12)
    tails = [math.sqrt(sum(v * v for v in f[m:])) for m in range(4)]
    assert run.history == pytest.approx(tails, abs=1e-12)


def test_wcga_zero_steps_returns_the_input_norm():
    d = canonical_dictionary(3, 1.5)
    f = np.array([1.0, -2.0, 0.5])
    run = wcga(f, d, 0)
    assert run.support == []
    assert run.residual_norm == pytest.approx(norm(d.space, f), abs=1e-14)
    assert run.history == [pytest.approx(norm(d.space, f))]


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_wcga_history_is_nonincreasing_and_consistent(q):
    d = _random_unit_dictionary(6, 12, q, seed=10)
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = rng.standard_normal(6)
        run = wcga(f, d, 5)
        assert all(a >= b - 1e-10 for a, b in zip(run.history, run.history[1:]))
        recon = d.atoms[:, run.support] @ run.coefficients
        assert norm(d.space, f - recon) == pytest.approx(run.residual_norm, abs=1e-8)


def test_wcga_stops_early_on_exact_recovery():
    d = canonical_dictionary(4, 2.0)
    run = wcga(d.atoms[:, 1] * 3.0, d, 4)
    assert run.support == [1]
    assert run.residual_norm <= 1e-12
    assert len(run.history) == 2


def test_wcga_records_per_step_coefficients_when_asked():
    d = _random_unit_dictionary(5, 8, 2.0, seed=12)
    f = np.random.default_rng(13).standard_normal(5)
    run = wcga(f, d, 3)
    assert run.step_coefficients is not None
    assert len(run.step_coefficients) == len(run.support)
    assert [len(c) for c in run.step_coefficients] == list(range(1, len(run.support) + 1))


def test_wcga_measures_f_once_per_run(monkeypatch):
    # one norm per step, of the new residual; f's own norm is taken once
    # through spaces.norm and handed to every projection
    calls = []

    def counting(*args):
        calls.append(1)
        return original(*args)

    original = greedy._power_norm
    monkeypatch.setattr(greedy, "_power_norm", counting)
    d = _random_unit_dictionary(5, 9, 1.5, seed=14)
    run = wcga(np.random.default_rng(15).standard_normal(5), d, 4)
    assert len(run.support) == 4
    assert len(calls) == 4


def test_greedy_runs_keep_every_step():
    dense = _random_unit_dictionary(4, 6, 1.5, seed=16)
    coord = canonical_dictionary(4, 3.0)
    rng = np.random.default_rng(17)
    cases = [(dense, rng.standard_normal(4), m) for m in (0, 1, 3)]
    # 2.0 * e_1 is recovered after one step, so the runs stop early
    cases += [(coord, 2.0 * coord.atoms[:, 1], m) for m in (0, 1, 3)]
    for d, f, m in cases:
        runs = [wcga(f, d, m), best_mterm_bruteforce(f, d, m)]
        for run in runs:
            if run.step_coefficients:
                assert run.step_coefficients[-1] is run.coefficients
            else:
                assert len(run.coefficients) == 0
            assert run.residual_norm == run.history[-1]
        assert len(runs[0].step_coefficients) == len(runs[0].support)
    assert len(wcga(2.0 * coord.atoms[:, 1], coord, 3).step_coefficients) == 1


def _reference_wcga(f, d, m, stop_flat=True):
    """The greedy loop as it was written before its steps were made lean: the
    norming functional taken from scratch, and the support gathered twice.

    A support of coordinate atoms in distinct rows reproduces f there, at
    every q.  With ``stop_flat`` it drops a flat step and stops, as
    ``wcga`` does; without, it runs on through flat steps, as ``wcga``
    used to.
    """
    space = d.space
    w = space.weight_vector()
    fnorm = norm(space, f)
    support, coeffs, history, snaps = [], np.zeros(0), [fnorm], []
    residual = f.copy()
    for _ in range(m):
        if history[-1] <= greedy._STOP_TOL:
            break
        vals = np.abs(d.pairings(norming_functional(space, residual)))
        if support:
            vals[support] = -1.0
        j = int(np.argmax(vals))
        if vals[j] <= 1e-14 * max(fnorm, 1.0):
            break
        support.append(j)
        G = d.atoms[:, list(support)]
        nonzeros = np.argwhere(G)  # (row, atom) pairs
        if (sorted(nonzeros[:, 1]) == list(range(len(support)))
                and len(set(nonzeros[:, 0])) == len(support)):
            coeffs = np.zeros(len(support))
            for i, j in nonzeros:
                coeffs[j] = f[i] / G[i, j]
        elif space.q == 2.0:
            sw = np.sqrt(w)
            coeffs, *_ = np.linalg.lstsq(sw[:, None] * G, sw * f, rcond=None)
        else:
            res = optim.minimize_power_residual(
                G, f / fnorm, w, space.q, x0=np.append(coeffs, 0.0) / fnorm,
                decrement_tol=greedy._PROJECT_TOL)
            coeffs = res.x * fnorm
        step_residual = f - d.atoms[:, support] @ coeffs
        step_norm = norm(space, step_residual)
        if stop_flat and step_norm >= history[-1] * (1.0 - 1e-9):
            support.pop()
            break
        residual = step_residual
        history.append(step_norm)
        snaps.append(coeffs)
    return support, history, snaps


def _kind_dictionary(kind, weighted, q, rng):
    """Unit atoms of one kind: dense, coordinate, dense with two coordinate
    atoms mixed in, or ten dense atoms in six rows, which span the space."""
    dim = 6 if kind == "spanned" else 7
    if weighted:
        w = rng.uniform(0.2, 1.0, dim)
        space = discrete_space(w / w.sum(), q)
    else:
        space = sequence_space(dim, q)
    if kind == "coordinate":
        atoms = np.diag(rng.choice([-1.0, 1.0], dim))
    else:
        atoms = rng.standard_normal((dim, 5 if kind == "mixed" else 10))
        if kind == "mixed":
            atoms[:, [1, 3]] = np.eye(dim)[:, [2, 5]]
    atoms = atoms / [norm(space, a) for a in atoms.T]
    return Dictionary(atoms, space)


@pytest.mark.parametrize("q", [4.0 / 3.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kind", ["dense", "coordinate", "mixed", "spanned"])
def test_lean_greedy_steps_match_the_reference_loop_bit_for_bit(kind, weighted, q):
    rng = np.random.default_rng(24)
    # a spanned f combines three of ten dense atoms in six rows
    d = _kind_dictionary(kind, weighted, q, rng)
    atoms, dim = d.atoms, d.space.dim
    flat_stops = 0
    for _ in range(5 if kind == "spanned" else 3):
        if kind == "spanned":
            f = atoms[:, :3] @ rng.standard_normal(3)
        else:
            f = rng.standard_normal(dim)
        run = wcga(f, d, d.size)
        support, history, snaps = _reference_wcga(f, d, d.size)
        assert run.support == support
        assert np.array_equal(run.history, history)
        assert len(run.step_coefficients) == len(snaps)
        for got, want in zip(run.step_coefficients, snaps):
            assert np.array_equal(got, want)
        if kind == "spanned":
            flat_stops += len(_reference_wcga(f, d, d.size, stop_flat=False)[0]) > len(support)
    if kind == "spanned" and q != 2.0:
        # a q != 2 projection leaves a recovered f at the solver's floor
        assert flat_stops > 0


@pytest.mark.parametrize("q", [4.0 / 3.0, 1.5, 3.0])
def test_wcga_stops_after_one_step_on_a_dense_vertex(q):
    # the first step picks the vertex's own atom; at q = 4/3 and 3 it leaves
    # the solver's floor, so the next step is flat, dropped, and the run ends
    # (at q = 1.5 the one-atom projection reaches round-off and the run ends
    # on the exact-recovery test)
    d = _random_unit_dictionary(8, 16, q, seed=30)
    for j, sign in ((0, 1.0), (5, -1.0), (11, 1.0)):
        f = sign * d.atoms[:, j]
        run = wcga(f, d, 6)
        assert run.support == [j]
        assert len(run.history) == 2 and len(run.step_coefficients) == 1
        assert run.residual_norm <= 1e-3
        assert run.coefficients == pytest.approx([sign], abs=1e-3)
        if q == 1.5:
            assert run.residual_norm <= greedy._STOP_TOL
            continue
        assert run.residual_norm > greedy._STOP_TOL
        # the loop that runs on through flat steps adds five atoms for nothing
        support, history, _ = _reference_wcga(f, d, 6, stop_flat=False)
        assert len(support) == 6
        assert history[-1] >= run.residual_norm * (1.0 - 1e-6)


@given(dim=st.integers(2, 12), count=st.integers(2, 24), coordinate=st.booleans(),
       weighted=st.booleans(), q=st.sampled_from([4.0 / 3.0, 1.5, 3.0]),
       spanned=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_a_stopped_run_ends_within_its_projection_tolerance_of_an_unstopped_run(
        dim, count, coordinate, weighted, q, spanned, seed):
    """The flat-step stop costs at most the projection's own tolerance.

    Projections stop at a Newton decrement of tol (1 + phi), where phi is
    the objective in the solver's units, sum w |r / max|f||^q.  A flat
    step means that every pairing sits at that level, so later steps lower
    phi by no more than that: the stopped run's phi should exceed the phi
    of the run that goes on through flat steps by at most tol (1 + phi).
    The bound is checked, not proved.  On 1,557
    random cases of this shape, about half with f off the span, the
    largest gap was 0.62 of that allowance.
    """
    d, f = _rate_case(dim, count, coordinate, weighted, q, seed)
    if not spanned:  # off the span when the atoms do not fill the space
        f = f + np.random.default_rng(seed).standard_normal(len(f))
    run = wcga(f, d, d.size)
    support, history, _ = _reference_wcga(f, d, d.size, stop_flat=False)
    assert support[:len(run.support)] == run.support
    scale = np.abs(f).max()
    stopped = (run.residual_norm / scale) ** q
    unstopped = (history[-1] / scale) ** q
    assert stopped - unstopped <= greedy._PROJECT_TOL * (1.0 + stopped)


def test_wcga_validates_inputs():
    d = canonical_dictionary(3, 2.0)
    f = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        wcga(f, d, -1)
    with pytest.raises(ValueError):
        wcga(f, d, 4)
    with pytest.raises(ZeroVectorError):
        wcga(np.zeros(3), d, 1)
    for q, bad in ((2.0, np.nan), (1.5, np.nan), (1.5, np.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            wcga(np.array([bad, 1.0, 0.0]), canonical_dictionary(3, q), 2)


def test_octahedron_contains_rejects_non_finite_input():
    octa = Octahedron(canonical_dictionary(3, 1.5))
    assert octa.contains(np.array([0.5, -0.25, 0.25]))
    assert not octa.contains(np.array([0.5, -0.5, 0.25]))
    with pytest.raises(ValueError, match="finite"):
        octa.contains(np.array([np.nan, 1.0, 1.0]))


def test_sigma_profile_rejects_non_finite_samples():
    d = canonical_dictionary(3, 1.5)
    with pytest.raises(ValueError, match="finite"):
        sigma_profile([np.array([0.5, 0.0, 0.0]), np.array([np.nan, 1.0, 1.0])],
                      d, [1, 2])


def test_sigma_profile_rejects_repeated_levels():
    # a repeated m is sorted but not increasing: it would list its level twice
    d = canonical_dictionary(3, 1.5)
    f = np.array([0.5, 0.25, 0.0])
    for m_list in ([1, 1, 2], [2, 2]):
        with pytest.raises(ValueError, match="increasing"):
            sigma_profile([f], d, m_list)
    assert sigma_profile([f], d, [1, 2]).values[-1] == 0.0


def test_chebyshev_project_rejects_non_finite_input():
    # at q = 1.5 the solver used to blame an overflowing objective
    f = np.array([np.nan, 1.0, 0.0])
    for q in (1.5, 2.0):
        with pytest.raises(ValueError, match="finite"):
            chebyshev_project(f, [0, 1], canonical_dictionary(3, q))


def test_best_mterm_bruteforce_rejects_non_finite_input():
    d = canonical_dictionary(3, 1.5)
    for m in (0, 2):
        with pytest.raises(ValueError, match="finite"):
            best_mterm_bruteforce(np.array([1.0, np.inf, 0.0]), d, m)


# ---------------------------------------------------------------------------
# projections

def test_chebyshev_project_matches_least_squares_for_q2():
    d = _random_unit_dictionary(6, 10, 2.0, seed=16)
    f = np.random.default_rng(17).standard_normal(6)
    support = [0, 3, 7]
    coeffs = chebyshev_project(f, support, d)
    direct, *_ = np.linalg.lstsq(d.atoms[:, support], f, rcond=None)
    assert coeffs == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_chebyshev_project_satisfies_first_order_optimality(q):
    from entrobound import norming_functional, pair

    plain = _random_unit_dictionary(5, 9, q, seed=18)
    # uneven weights tell the weighted projection from the plain one,
    # at q = 2 too, where the projection is a least-squares solve
    space = discrete_space(np.array([0.1, 0.15, 0.2, 0.25, 0.3]), q)
    weighted = Dictionary(plain.atoms / [norm(space, a) for a in plain.atoms.T], space)
    f = np.random.default_rng(19).standard_normal(5)
    support = [1, 4, 6]
    for d in (plain, weighted):
        coeffs = chebyshev_project(f, support, d, tol=1e-12)
        residual = f - d.atoms[:, support] @ coeffs
        F = norming_functional(d.space, residual)
        # at the minimizer the residual's norming functional kills the span
        for j in support:
            assert abs(pair(d.space, F, d.atoms[:, j])) <= 1e-6


def test_chebyshev_project_recovers_span_members():
    d = _random_unit_dictionary(5, 7, 1.5, seed=20)
    support = [0, 2]
    truth = np.array([0.7, -1.2])
    f = d.atoms[:, support] @ truth
    coeffs = chebyshev_project(f, support, d, tol=1e-13)
    assert norm(d.space, f - d.atoms[:, support] @ coeffs) <= 1e-8


# ---------------------------------------------------------------------------
# brute force

def test_bruteforce_matches_wcga_on_orthonormal_atoms():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = Dictionary(Q, sequence_space(n, 2.0))
        f = rng.standard_normal(n)
        for m in range(n + 1):
            assert wcga(f, d, m).residual_norm == pytest.approx(
                best_mterm_bruteforce(f, d, m).residual_norm, abs=1e-10)


def test_bruteforce_budget_guard():
    d = _random_unit_dictionary(4, 40, 2.0, seed=22)
    f = np.random.default_rng(23).standard_normal(4)
    with pytest.raises(BudgetExceededError):
        best_mterm_bruteforce(f, d, 20)


# ---------------------------------------------------------------------------
# the greedy rate

def _rate_case(dim, count, coordinate, weighted, q, seed):
    """A dictionary of unit atoms and a nonzero f in their span, from the seed."""
    rng = np.random.default_rng(seed)
    if weighted:
        w = rng.uniform(0.2, 1.0, dim)
        space = discrete_space(w / w.sum(), q)
    else:
        space = sequence_space(dim, q)
    if coordinate:  # signed coordinate vectors, scaled to unit norm
        atoms = np.diag(rng.choice([-1.0, 1.0], dim))
    else:
        atoms = rng.standard_normal((dim, count))
    atoms = atoms / [norm(space, a) for a in atoms.T]
    d = Dictionary(atoms, space)
    c = rng.standard_normal(d.size) * (rng.random(d.size) < rng.uniform(0.1, 1.0))
    f = atoms @ c
    assume(norm(space, f) > 0.0)
    return d, f


@given(dim=st.integers(2, 12), count=st.integers(2, 24), coordinate=st.booleans(),
       weighted=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_orthogonal_greedy_meets_the_hilbert_rate(dim, count, coordinate, weighted, seed):
    """||f_m|| <= |f|_{A_1} (m + 1)^(-1/2) at q = 2 (DeVore & Temlyakov, 1996).

    With a_m = ||f_m||^2 and A = |f|_{A_1}: projecting onto a span that
    holds the chosen atom g does at least as well as a step along g, so
    a_m <= a_{m-1} - <f_{m-1}, g>^2; and f_{m-1} is orthogonal to its
    approximant, so a_{m-1} = <f_{m-1}, f> <= A |<f_{m-1}, g>|.  Hence
    a_m <= a_{m-1} (1 - a_{m-1} / A^2), and a_0 <= A^2 gives
    a_m <= A^2 / (m + 1) by induction.
    """
    d, f = _rate_case(dim, count, coordinate, weighted, 2.0, seed)
    bound = norm_A(f, d)
    for m, residual in enumerate(wcga(f, d, d.size).history):
        assert residual <= bound / math.sqrt(m + 1) * (1.0 + 1e-12)


@given(dim=st.integers(2, 12), count=st.integers(2, 24), coordinate=st.booleans(),
       weighted=st.booleans(), q=st.sampled_from([4.0 / 3.0, 1.5, 1.9]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_chebyshev_greedy_meets_the_smooth_space_rate(dim, count, coordinate,
                                                       weighted, q, seed):
    """||f_m|| <= C(q, gamma) |f|_{A_1} (1 + m)^(1/q - 1) for q in (1, 2).

    This is the WCGA rate in a space whose modulus of smoothness obeys
    rho(u) <= gamma u^q (Temlyakov, *Greedy Approximation*, 2011); here
    gamma = 1/q, read off ``smoothness_bound``.  With x_m = ||f_m||,
    A = |f|_{A_1} and p = q / (q - 1): the norming functional F of
    f_{m-1} kills its approximant, so x_{m-1} = F(f) <= A max_g |F(g)|,
    and the chosen atom g, signed so that F(g) >= 0, has F(g) >= x_{m-1} / A.
    Projecting onto a span that holds g does at least as well as a step
    along g, so for every lambda > 0, by the definition of rho,

        x_m <= ||f_{m-1} - lambda g||
            <= 2 x_{m-1} (1 + rho(lambda / x_{m-1})) - F(f_{m-1} + lambda g)
            <= x_{m-1} (1 - lambda / A + 2 gamma (lambda / x_{m-1})^q).

    The best lambda gives x_m <= x_{m-1} (1 - c (x_{m-1} / A)^p), with
    c = (2 gamma q)^(1 - p) / p < 1.  So b_m = (x_m / A)^p has
    b_m <= b_{m-1} (1 - c b_{m-1}), hence 1 / b_m >= 1 / b_{m-1} + c,
    and b_0 <= 1 gives 1 / b_m >= 1 + c m >= c (1 + m).  Therefore
    C = c^(-1/p) = (p (2 gamma q)^(p - 1))^(1/p), since -1/p = 1/q - 1.
    """
    d, f = _rate_case(dim, count, coordinate, weighted, q, seed)
    gamma = smoothness_bound(d.space, 1.0)
    p = q / (q - 1.0)
    C = (p * (2.0 * gamma * q) ** (p - 1.0)) ** (1.0 / p)
    bound = C * norm_A(f, d)
    for m, residual in enumerate(wcga(f, d, d.size).history):
        assert residual <= bound * (1.0 + m) ** (1.0 / q - 1.0) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# octahedron sampling

def test_sample_octahedron_lands_on_the_hull_boundary():
    d = _random_unit_dictionary(6, 14, 1.5, seed=24)
    octa = Octahedron(d)
    for s in sample_octahedron(d, 25, seed=25):
        assert np.abs(s["coefficients"]).sum() == pytest.approx(1.0, abs=1e-15)
        recon = d.atoms[:, s["indices"]] @ s["coefficients"]
        assert recon == pytest.approx(s["vector"], abs=1e-12)
        assert octa.contains(s["vector"])


def test_sample_octahedron_is_deterministic():
    d = canonical_dictionary(8, 2.0)
    a = sample_octahedron(d, 10, seed=3)
    b = sample_octahedron(d, 10, seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x["vector"], y["vector"])
    with pytest.raises(EmptySampleError):
        sample_octahedron(d, 0, seed=3)


def test_octahedron_membership():
    d = canonical_dictionary(3, 2.0)
    octa = Octahedron(d)
    assert octa.contains(np.array([0.5, -0.5, 0.0]))
    assert not octa.contains(np.array([1.5, 0.0, 0.0]))
    small = Dictionary(np.array([[1.0], [0.0]]), sequence_space(2, 2.0))
    assert not Octahedron(small).contains(np.array([0.0, 0.3]))


# ---------------------------------------------------------------------------
# decay profiles

def test_sigma_profile_tracks_the_worst_sample():
    d = canonical_dictionary(16, 2.0)
    samples = [s["vector"] for s in sample_octahedron(d, 12, seed=26)]
    prof = sigma_profile(samples, d, [1, 2, 4, 8])
    assert prof.m_list == [1, 2, 4, 8]
    # each sample's residual after m steps, or after its last step if it stopped early
    table = [[hist[min(m, len(hist) - 1)] for m in prof.m_list]
             for hist in (wcga(f, d, 8).history for f in samples)]
    assert list(prof.values) == list(np.max(table, axis=0))
    assert all(a >= b - 1e-12 for a, b in zip(prof.values, prof.values[1:]))
    assert prof.slope < 0.0


def test_sigma_profile_reads_an_exact_recovery_as_zero():
    # two two-atom samples, each recovered at step 2: on coordinate atoms
    # the closed form leaves an exact 0, and 0.6 g_2 - 0.4 g_7 on dense
    # atoms a round-off residual (2.6e-16 at q = 2, 4.1e-15 at q = 1.5);
    # a dense vertex at q = 4/3 stops at a flat step and keeps its solver
    # floor
    for q in (2.0, 1.5):
        coord = canonical_dictionary(8, q)
        exact = sample_octahedron(coord, 4, seed=1)[3]["vector"]
        assert wcga(exact, coord, 2).residual_norm == 0.0
        dense = _random_unit_dictionary(8, 12, q, seed=4)
        rounded = 0.6 * dense.atoms[:, 2] - 0.4 * dense.atoms[:, 7]
        assert 0.0 < wcga(rounded, dense, 2).residual_norm <= greedy._STOP_TOL
        for f, d in ((exact, coord), (rounded, dense)):
            prof = sigma_profile([f], d, [1, 2, 3])
            assert prof.values[0] > 0.0 and list(prof.values[1:]) == [0.0, 0.0]
            assert math.isnan(prof.slope)  # one level is not recovered
    dense = _random_unit_dictionary(8, 16, 4.0 / 3.0, seed=30)
    f = dense.atoms[:, 3]
    prof = sigma_profile([f], dense, [1, 2, 4])
    assert list(prof.values) == [wcga(f, dense, 1).residual_norm] * 3
    assert all(v > 0.0 for v in prof.values)


# ---------------------------------------------------------------------------
# the stacked greedy loop

@st.composite
def _coordinate_cases(draw):
    """A coordinate dictionary, a few nonzero samples and a step count.

    The atoms sit in a permutation of the rows, fewer of them than rows
    when ``sparse``, with random signs, in l_q or a weighted L_q(mu).
    When ``tied``, weights and sample entries are drawn from a few values,
    so that pairings tie; otherwise they are uniform and Gaussian.  Zeros
    are mixed in, and some entries shrink by up to 1e-12, so that steps
    go flat and residuals go invisible.  A sample that lives on the atom
    rows is recovered exactly, and m may exceed any sample's support.
    """
    dim = draw(st.integers(1, 10))
    n = draw(st.integers(1, dim)) if draw(st.booleans()) else dim
    q = draw(st.sampled_from([4.0 / 3.0, 1.5, 2.0, 3.0]))
    weighted, tied = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if weighted:
        w = rng.choice([0.1, 0.2, 0.3], dim) if tied else rng.uniform(0.05, 1.0, dim)
        space = discrete_space(w / w.sum(), q)
    else:
        space = sequence_space(dim, q)
    rows = rng.permutation(dim)[:n]
    atoms = np.zeros((dim, n))
    atoms[rows, np.arange(n)] = (rng.choice([-1.0, 1.0], n)
                                 * space.weight_vector()[rows] ** (-1.0 / q))
    shape = (draw(st.integers(1, 5)), dim)
    samples = (rng.choice([-1.0, -0.5, 0.5, 1.0], shape) if tied
               else rng.standard_normal(shape))
    samples *= rng.random(shape) < rng.uniform(0.2, 1.0)
    samples *= 10.0 ** -rng.choice([0, 0, 4, 8, 12], shape)
    if draw(st.booleans()):  # on the atom rows only: exactly recoverable
        samples[:, np.setdiff1d(np.arange(dim), rows)] = 0.0
    assume(np.abs(samples).sum(axis=1).all())
    return Dictionary(atoms, space), samples, draw(st.integers(0, n))


def _stacked(samples, d, m):
    """The stacked loop on every row of samples, measured as its callers measure them."""
    f = np.asarray(samples, dtype=float)
    fnorm = greedy._power_norm(f, d.space.weight_vector(), d.space.q)
    return greedy._greedy_pass(f, fnorm, d, m, project_tol=greedy._PROJECT_TOL,
                               keep_steps=True)


@given(case=_coordinate_cases())
def test_the_stacked_loop_equals_the_reference_run_by_run(case):
    d, samples, m = case
    run = _stacked(samples, d, m)
    for f, sup, c, hist, k in zip(samples, run.support, run.coef, run.history, run.steps):
        support, history, snaps = _reference_wcga(f, d, m)
        assert sup[:k].tolist() == support and (sup[k:] == d.size).all()
        assert hist[:k + 1].tolist() == history and (hist[k:] == hist[k]).all()
        assert len(snaps) == k
        for j, step in enumerate(snaps):
            assert c[:j + 1].tolist() == step.tolist()
        assert not c[k:].any()


def test_coordinate_rows_reads_the_atom_layout():
    flipped = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert greedy._coordinate_rows(flipped[:, :2]).tolist() == [2, 0]
    assert greedy._coordinate_rows(flipped[:, [0, 0]]) is None  # a shared row
    assert greedy._coordinate_rows(np.ones((2, 2))) is None  # dense
    with pytest.raises(ZeroVectorError):
        sigma_profile(np.zeros((1, 3)), canonical_dictionary(3, 1.5), [2])


@pytest.mark.parametrize("coordinate", [True, False], ids=["coordinate", "dense"])
def test_the_stacked_loop_makes_at_most_m_plus_1_norm_calls(monkeypatch, coordinate):
    # one call for the samples' norms and one per step for all live residuals
    calls = []

    def counting(*args):
        calls.append(1)
        return original(*args)

    original = greedy._power_norm
    monkeypatch.setattr(greedy, "_power_norm", counting)
    monkeypatch.setattr(greedy, "norm", _never_called)
    d = (canonical_dictionary(16, 1.5) if coordinate
         else _random_unit_dictionary(16, 24, 1.5, seed=9))
    for count in (1, 3, 40):
        samples = np.random.default_rng(count).standard_normal((count, 16))
        calls.clear()
        steps = _stacked(samples, d, 6).steps
        assert (steps == 6).all()
        assert len(calls) == 7
        # the loop itself takes the residuals' norms only
        fnorm = original(samples, d.space.weight_vector(), d.space.q)
        calls.clear()
        greedy._greedy_pass(samples, fnorm, d, 6, project_tol=greedy._PROJECT_TOL,
                            keep_steps=False)
        assert len(calls) == 6


def test_sigma_profile_checks_its_samples_as_wcga_does():
    d = canonical_dictionary(3, 1.5)
    with pytest.raises(DimensionMismatchError, match="length 2, expected 3"):
        sigma_profile(np.ones((4, 2)), d, [2])
    with pytest.raises(ValueError, match="finite"):
        sigma_profile([[1.0, 0.0, 0.0], [0.0, math.inf, 0.0]], d, [2])
    with pytest.raises(ZeroVectorError):
        sigma_profile([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], d, [2])


def test_sigma_profile_takes_a_list_or_an_array_of_samples():
    d = canonical_dictionary(8, 1.5)
    rows = [s["vector"] for s in sample_octahedron(d, 6, seed=2)]
    as_list = sigma_profile(rows, d, [1, 2, 4])
    as_array = sigma_profile(np.array(rows), d, [1, 2, 4])
    assert np.array_equal(as_list.values, as_array.values)
    assert as_list.slope == as_array.slope
    for empty in ([], np.zeros((0, 8))):
        with pytest.raises(EmptySampleError):
            sigma_profile(empty, d, [1, 2])


@pytest.mark.parametrize("coordinate", [True, False])
def test_samples_of_the_wrong_width_are_dimension_errors(coordinate):
    d = canonical_dictionary(4, 1.5) if coordinate else _random_unit_dictionary(4, 6, 1.5, 8)
    assert (greedy._coordinate_rows(d.atoms) is not None) == coordinate
    narrow = np.full((5, 3), 0.1)
    with pytest.raises(DimensionMismatchError, match="length 3, expected 4"):
        octahedron_cover_profile(Octahedron(d), [2], sample=narrow)
    with pytest.raises(DimensionMismatchError, match="length 3, expected 4"):
        sigma_profile(list(narrow), d, [1, 2])
    with pytest.raises(ValueError, match="finite"):
        sigma_profile([np.full(4, 0.1), np.array([0.1, math.nan, 0.0, 0.0])], d, [1, 2])


def _never_called(*args, **kwargs):
    raise AssertionError("wcga ran")


def test_no_caller_runs_wcga(monkeypatch):
    # the profile and the covers run the stacked loop on every dictionary
    coord = canonical_dictionary(16, 1.5)
    dense = _random_unit_dictionary(6, 8, 1.5, seed=3)
    samples = [s["vector"] for s in sample_octahedron(coord, 12, seed=5)]
    m_list = [1, 2, 4, 8]
    # the per-run reference, by hand for the profile; for the covers the
    # loop is forced to take dense steps on the coordinate atoms
    hists = [_reference_wcga(f, coord, 8)[1] for f in samples]
    values = np.max([[0.0 if h[min(m, len(h) - 1)] <= greedy._STOP_TOL
                      else h[min(m, len(h) - 1)] for m in m_list] for h in hists], axis=0)
    rows = greedy._coordinate_rows
    monkeypatch.setattr(greedy, "_coordinate_rows",
                        lambda atoms: None if atoms is coord.atoms else rows(atoms))
    certs = octahedron_cover_profile(Octahedron(coord), [4, 16], sample_size=60, seed=6)
    monkeypatch.undo()
    monkeypatch.setattr(greedy, "wcga", _never_called)
    monkeypatch.setattr(entropy, "wcga", _never_called)
    # the coordinate steps read what those runs read
    assert list(sigma_profile(samples, coord, m_list).values) == list(values)
    again = octahedron_cover_profile(Octahedron(coord), [4, 16], sample_size=60, seed=6)
    for k, cert in certs.items():
        assert np.array_equal(again[k].centers, cert.centers)
        assert (again[k].radius, again[k].extra) == (cert.radius, cert.extra)
    # dense atoms take the same loop, and no wcga
    f = dense.atoms[:, :3] @ np.array([0.2, -0.3, 0.1])
    hist = _reference_wcga(f, dense, 2)[1]
    assert list(sigma_profile([f], dense, [1, 2]).values) == hist[1:]
    assert octahedron_cover_profile(Octahedron(dense), [3], sample_size=20)[3].radius > 0.0


def _dense_stack(kind, weighted, q):
    """A dense dictionary and a stack of samples whose runs end every way.

    The stack mixes Gaussian samples, vertices, span members of three
    atoms (recovered, or stopped at a flat step at the solver's floor),
    and samples of norm at most 1e-12, which take no step.
    """
    rng = np.random.default_rng(40)
    d = _kind_dictionary(kind, weighted, q, rng)
    dim = d.space.dim
    samples = [rng.standard_normal(dim) for _ in range(3)]
    samples += [d.atoms[:, 0], -d.atoms[:, 3]]
    samples += [d.atoms[:, :3] @ rng.standard_normal(3) for _ in range(3)]
    samples += [0.5 * d.atoms[:, 1] - 0.2 * d.atoms[:, 3]]
    samples += [1e-13 * rng.standard_normal(dim)]
    return d, np.array(samples)


@pytest.mark.parametrize("q", [4.0 / 3.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kind", ["mixed", "spanned"])
def test_every_run_of_a_dense_stack_equals_the_reference_bit_for_bit(kind, weighted, q):
    d, samples = _dense_stack(kind, weighted, q)
    run = _stacked(samples, d, d.size)
    ends = set()
    for i, f in enumerate(samples):
        support, history, snaps = _reference_wcga(f, d, d.size)
        k = run.steps[i]
        assert run.support[i, :k].tolist() == support and (run.support[i, k:] == d.size).all()
        assert run.history[i, :k + 1].tolist() == history
        assert (run.history[i, k:] == history[-1]).all()
        assert k == len(snaps)
        for j, want in enumerate(snaps):
            assert np.array_equal(run.step_coef[j][i], want)
        assert np.array_equal(run.coef[i, :k], snaps[-1] if snaps else np.zeros(0))
        if k == 0:
            ends.add("stepless")
        elif history[-1] <= greedy._STOP_TOL:
            ends.add("recovered")
        elif len(_reference_wcga(f, d, d.size, stop_flat=False)[0]) > k:
            ends.add("flat")
    assert "stepless" in ends
    # the coordinate pair of the mixed atoms is recovered exactly, and so is
    # every span member at q = 2; at q = 4/3 and 3 some runs stop flat
    if kind == "mixed" or q == 2.0:
        assert "recovered" in ends
    if q in (4.0 / 3.0, 3.0):
        assert "flat" in ends
    assert run.support[3, 0] == 0 and run.support[4, 0] == 3  # the vertices' own atoms


@pytest.mark.parametrize("q", [4.0 / 3.0, 3.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kind", ["mixed", "spanned"])
def test_the_stacked_loop_solves_as_often_as_the_runs_alone(monkeypatch, kind, weighted, q):
    d, samples = _dense_stack(kind, weighted, q)
    counts = {"stacked": 0, "reference": 0}

    def counted(key, solve):
        def call(*args, **kwargs):
            counts[key] += 1
            return solve(*args, **kwargs)
        return call

    monkeypatch.setattr(greedy, "minimize_power_residual",
                        counted("stacked", greedy.minimize_power_residual))
    monkeypatch.setattr(optim, "minimize_power_residual",
                        counted("reference", optim.minimize_power_residual))
    _stacked(samples, d, d.size)
    for f in samples:
        _reference_wcga(f, d, d.size)
    assert counts["stacked"] == counts["reference"] > 0


# ---------------------------------------------------------------------------
# the inner solver

def test_non_convergence_reports_the_newton_iterations_taken(monkeypatch):
    # a stage target looser than the final acceptance test ends every
    # stage early, and the last decrement still fails that test
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 3))
    b = rng.standard_normal(12)
    factored = []
    cho_factor = optim.cho_factor
    monkeypatch.setattr(optim, "cho_factor",
                        lambda H: factored.append(1) or cho_factor(H))
    with pytest.raises(NonConvergenceError) as exc:
        optim.minimize_power_residual(A, b, np.full(12, 1.0 / 12), 3.0,
                                      decrement_tol=1e-2)
    assert exc.value.iterations == len(factored)
    assert exc.value.iterations < 8 * 80  # stages * stage_iter
    assert f"after {len(factored)} iterations" in str(exc.value)


@pytest.mark.parametrize("eps_rel, stages", [(1e-8, 8), (1e-6, 6), (1e-3, 3)])
def test_each_smoothing_stage_runs_once(monkeypatch, eps_rel, stages):
    # eps walks 0.1, 0.01, ... down to eps_rel; the product that lands just
    # above eps_rel (1.0000000000000004e-08 for the default) is not a stage
    monkeypatch.setattr(optim, "_EPS_REL", eps_rel)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((12, 3))
    b = rng.standard_normal(12)
    res = optim.minimize_power_residual(A, b, np.full(12, 1.0 / 12), 1.5,
                                        decrement_tol=1e-12)
    assert res.stages == stages


def test_non_finite_objective_raises_instead_of_reaching_the_factorization():
    # an exponent this large overflows the objective at the first iterate
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 2))
    b = 4.0 * rng.standard_normal(8)
    for solve, start in ((optim.minimize_power_residual, b),
                         (optim.minimize_power_constrained, b[None, :])):
        with pytest.raises(NonConvergenceError) as exc:
            solve(A, start, np.full(8, 1.0 / 8), 1e9, decrement_tol=1e-12)
        assert exc.value.iterations == 1
        assert "residual measure inf" in str(exc.value)
        assert "the objective overflowed" in str(exc.value)


def test_overflowing_hessian_raises_instead_of_passing_as_converged():
    # the objective is finite at the start, but A^T diag(h) A overflows, and
    # so does the Schur system A^T diag(1/h) A of the constrained form
    A = np.array([[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]])
    b = np.array([1.0, -1.0, 0.5])
    for solve, start in ((optim.minimize_power_residual, b),
                         (optim.minimize_power_constrained, b[None, :])):
        with pytest.raises(NonConvergenceError) as exc:
            solve(A, start, np.ones(3), 3.0, decrement_tol=1e-12)
        assert exc.value.iterations == 1
        assert "the Newton system overflowed" in str(exc.value)


@pytest.mark.parametrize("e", [4.0 / 3.0, 1.5, 3.0, 4.0])
@pytest.mark.parametrize("eps", [0.1, 1e-8])
def test_smoothed_model_matches_differences_of_its_objective(e, eps):
    # residuals away from 0, where the differences resolve every level of eps
    rng = np.random.default_rng(11)
    r = rng.uniform(0.2, 1.0, 9) * rng.choice([-1.0, 1.0], 9)
    w = rng.uniform(0.2, 1.0, 9)
    w /= w.sum()
    e2 = eps * eps
    f, grad, h = optim._smoothed_model(r, w, e, e2)
    assert f == pytest.approx(optim._smoothed_value(r, w, e, e2), rel=1e-14)
    step = np.eye(9)
    for i in range(9):
        up, down = (optim._smoothed_value(r + s * step[i], w, e, e2) for s in (1e-6, -1e-6))
        assert grad[i] == pytest.approx((up - down) / 2e-6, rel=1e-7)
        up, down = (optim._smoothed_value(r + s * step[i], w, e, e2) for s in (1e-4, -1e-4))
        assert h[i] == pytest.approx((up - 2.0 * f + down) / 1e-8, rel=1e-5)


@pytest.mark.parametrize("e", [4.0 / 3.0, 1.5, 3.0, 4.0])
def test_stacked_model_rows_equal_the_one_row_model(e):
    # both stage loops call one model: a stack of rows, each at its own
    # level, takes each row's gradient and curvature to the last bit; the
    # objective sums as a matrix-vector product there and as a dot product
    # for one row, so it may differ in the last bits
    rng = np.random.default_rng(12)
    R = rng.standard_normal((6, 40))
    R[:, :5] = 0.0  # residual zeros, where the smoothing matters
    w = rng.uniform(0.2, 1.0, 40)
    e2 = np.square([0.1, 1e-8] * 3)
    f, grad, h = optim._smoothed_model(R, w, e, e2[:, None])
    for k in range(6):
        f_k, grad_k, h_k = optim._smoothed_model(R[k], w, e, e2[k])
        assert np.array_equal(grad[k], grad_k)
        assert np.array_equal(h[k], h_k)
        assert f[k] == pytest.approx(f_k, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_warm_start_whose_residual_overflows_raises_without_a_warning(q):
    # b - A x0 squares to inf: the objective is not finite, and the gradient
    # and curvature formed beside it hold nan, which the objective check
    # stops before any step; at q = 1.5 the objective itself once warned
    A = np.array([[1e160], [1.0]])
    with pytest.raises(NonConvergenceError, match="the objective overflowed"):
        optim.minimize_power_residual(A, np.ones(2), np.ones(2), q, x0=np.ones(1),
                                      decrement_tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 24, 60, 154])
def test_newton_kernel_matches_scipy_bit_for_bit(n):
    # the kernel's LAPACK calls must reproduce scipy's wrappers exactly,
    # so that replacing one by the other keeps every report's bytes
    rng = np.random.default_rng(n)
    for _ in range(5):
        A = rng.standard_normal((n + 7, n))
        h = rng.uniform(0.1, 3.0, n + 7)
        H = (A * h[:, None]).T @ A
        g = rng.standard_normal(n)
        c = optim.cho_factor(H)
        assert np.array_equal(c, scipy.linalg.cho_factor(H)[0])
        d, info = optim._potrs(c, -g, lower=0)
        assert info == 0
        assert np.array_equal(d, scipy.linalg.cho_solve((c, False), -g))


def test_singular_hessian_falls_back_to_the_ridge_solve(monkeypatch):
    # two identical columns make every Hessian singular
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 2))
    A = np.column_stack([a[:, 0], a[:, 0], a[:, 1]])
    b = rng.standard_normal(10)
    w = np.full(10, 0.1)
    failures = []
    cho_factor = optim.cho_factor

    def counted(H):
        try:
            return cho_factor(H)
        except scipy.linalg.LinAlgError:
            failures.append(1)
            raise

    monkeypatch.setattr(optim, "cho_factor", counted)
    res = optim.minimize_power_residual(A, b, w, 1.5, decrement_tol=1e-12)
    assert failures
    assert np.all(np.isfinite(res.x))
    # the duplicate column adds nothing: the minimum is that of the reduced problem
    reduced = optim.minimize_power_residual(A[:, 1:], b, w, 1.5, decrement_tol=1e-12)
    assert res.value == pytest.approx(reduced.value, rel=1e-8)
    # the same columns as constraints make the Schur system singular; the
    # ridge keeps each step feasible to about 1e-12 relative
    failures.clear()
    g, value = optim.minimize_power_constrained(A, b[None, :], w, 1.5, decrement_tol=1e-12)
    assert failures
    assert A.T @ g[0] == pytest.approx(A.T @ b, rel=1e-9)
    _, reduced = optim.minimize_power_constrained(A[:, 1:], b[None, :], w, 1.5,
                                                  decrement_tol=1e-12)
    assert value[0] == pytest.approx(reduced[0], rel=1e-8)


def test_a_singular_system_in_a_stack_gets_the_ridge_alone():
    # the stacked factorization fails as a whole, and each system then goes
    # to the serial solve: the regular ones exactly as alone, the singular
    # one with the ridge
    rng = np.random.default_rng(6)
    A = rng.standard_normal((9, 3))
    regular = A.T @ A
    singular = np.outer(A[0], A[0])
    rhs = rng.standard_normal((3, 3))
    H = np.stack([regular, singular, regular])
    z = optim._stack_solve(H, rhs)
    for k in (0, 2):
        assert np.array_equal(z[k], optim._spd_solve(regular, rhs[k]))
    assert np.array_equal(z[1], optim._spd_solve(singular, rhs[1]))
    assert np.all(np.isfinite(z))


def _power_objective(A, b, w, e, x):
    return float(w @ np.abs(b - A @ x) ** e)


@given(n=st.integers(1, 8), dead=st.integers(0, 16),
       q=st.sampled_from([2.0, 1e9]) | st.floats(1.0, 6.0, exclude_min=True),
       weighted=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_coordinate_supports_are_projected_exactly_at_every_q(n, dead, q, weighted, seed):
    # n of the n + dead signed coordinate atoms, permuted, each scaled to
    # unit norm by the weights: the projection zeroes the residual on the
    # support up to one rounding, and no coefficient touches the other rows
    rng = np.random.default_rng(seed)
    rows = n + dead
    if weighted:
        w = rng.uniform(0.1, 1.0, rows)
        space = discrete_space(w / w.sum(), q)
    else:
        space = sequence_space(rows, q)
    atoms = np.diag(rng.choice([-1.0, 1.0], rows))[:, rng.permutation(rows)]
    d = Dictionary(atoms / [norm(space, a) for a in atoms.T], space)
    support = [int(j) for j in rng.choice(rows, size=n, replace=False)]
    f = rng.standard_normal(rows) * 10.0 ** rng.uniform(-3.0, 3.0)
    c = chebyshev_project(f, support, d)
    G = d.atoms[:, support]
    r = f - G @ c
    live = G.any(axis=1)
    assert np.all(np.abs(r[live]) <= 2.0 * np.finfo(float).eps * np.abs(f[live]))
    assert np.array_equal(r[~live], f[~live])
    # every c leaves f on the rows off the support, so this is the minimum
    assert norm(space, r) == pytest.approx(norm(space, np.where(live, 0.0, f)),
                                           rel=1e-12, abs=1e-15 * np.abs(f).max())
    if q < 1e9:  # the power sum overflows at q = 1e9
        w = space.weight_vector()
        best = _power_objective(G, f, w, q, c)
        for size in 10.0 ** rng.uniform(-6.0, 0.0, 20):
            x = c + size * np.abs(c).max() * rng.standard_normal(n)
            assert _power_objective(G, f, w, q, x) >= best


@pytest.mark.parametrize("q", [1.5, 2.0])
def test_two_coordinate_atoms_on_one_row_take_the_general_path(q):
    # atoms 0 and 2, e_0 and -e_0, share a row, so the closed form does not
    # apply: coefficients (a, b) with a - b = f_0 zero that row, and the
    # residual keeps f on the others
    d = Dictionary(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
                   sequence_space(3, q))
    f = np.array([3.0, -2.0, 1.0])
    c = chebyshev_project(f, [0, 2], d)
    assert c[0] - c[1] == pytest.approx(3.0, abs=1e-6)
    assert norm(d.space, f - d.atoms[:, [0, 2]] @ c) == pytest.approx(
        norm(d.space, np.array([0.0, -2.0, 1.0])), rel=1e-9)


@pytest.mark.parametrize("second", [[2.0, 2.0], [1.0, 1.0 + 2.0 ** -52]])
def test_singular_square_block_falls_back_to_newton(second):
    # two columns on two rows: with atoms e1 + e2 and 2 (e1 + e2) the block
    # is singular, and with the second atom one ulp off e1 + e2 it is
    # singular to working precision.  The stage loop treats both as one
    # direction, and the residual is minimized at (A x)_1 = (A x)_2 = 1/2
    A = np.array([[1.0, second[0]], [1.0, second[1]], [0.0, 0.0]])
    b = np.array([1.0, 0.0, 3.0])
    res = optim.minimize_power_residual(A, b, np.ones(3), 1.5, decrement_tol=1e-12)
    assert res.stages == 8
    assert A[0] @ res.x == pytest.approx(0.5, abs=1e-6)
    assert res.value == pytest.approx(2 * 0.5 ** 1.5 + 3.0 ** 1.5, rel=1e-9)


def test_greedy_on_coordinate_atoms_factors_no_newton_system(monkeypatch):
    # each projection is the closed form: neither the solver nor least
    # squares runs, at q = 2 or elsewhere
    def unexpected(*args, **kwargs):
        raise AssertionError("a coordinate projection called a solver")

    monkeypatch.setattr(greedy, "minimize_power_residual", unexpected)
    monkeypatch.setattr(np.linalg, "lstsq", unexpected)
    f = np.random.default_rng(7).standard_normal(12)
    for q in (1.5, 2.0, 3.0):
        run = wcga(f, canonical_dictionary(12, q), 6)
        assert len(run.support) == 6
        # the residual is f with its six largest entries removed
        tail = np.sort(np.abs(f))[:6]
        assert run.residual_norm == pytest.approx(np.sum(tail ** q) ** (1 / q), rel=1e-15)


# ---------------------------------------------------------------------------
# warm starts

def _tight(A, b, w, q):
    return optim.minimize_power_residual(A, b, w, q, decrement_tol=1e-14)


def _warm_case(rows, count, coordinate, weighted, q, seed):
    """Dense unit atoms with ``coordinate`` coordinate atoms mixed in, weights
    and data b with max |b| = 1, so that the solver's units are the caller's."""
    rng = np.random.default_rng(seed)
    if weighted:
        w = rng.uniform(0.2, 1.0, rows)
        space = discrete_space(w / w.sum(), q)
    else:
        space = sequence_space(rows, q)
    A = rng.standard_normal((rows, count))
    for j in rng.choice(count, size=coordinate, replace=False):
        A[:, j] = np.eye(rows)[rng.integers(rows)]
    A /= [norm(space, a) for a in A.T]
    b = rng.standard_normal(rows)
    return A, b / np.abs(b).max(), space.weight_vector()


@given(rows=st.integers(3, 40), count=st.integers(2, 12), coordinate=st.integers(0, 3),
       weighted=st.booleans(), q=st.sampled_from([4.0 / 3.0, 1.5, 1.9]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_warm_solves_stay_within_their_target_of_a_tight_solve(rows, count, coordinate,
                                                                weighted, q, seed):
    """A warm solve's value exceeds a cold 1e-14 solve by at most tol (1 + value).

    The start is the greedy's: the tight minimizer on all atoms but the
    last, plus a 0 for the last.  The final stage alone, or the full
    schedule it falls back to, must still end on the caller's own
    decrement test.
    """
    assume(count < rows and coordinate < count)
    A, b, w = _warm_case(rows, count, coordinate, weighted, q, seed)
    tol = 1e-8
    x0 = np.append(_tight(A[:, :-1], b, w, q).x, 0.0)
    res = optim.minimize_power_residual(A, b, w, q, x0=x0, decrement_tol=tol)
    reference = _tight(A, b, w, q).value
    assert res.value <= reference + tol * (1.0 + reference)


def test_small_dense_warm_solves_fall_back_and_meet_their_target(monkeypatch):
    # on this 6 x 12 dictionary the final stage alone stalls at the stage
    # cap for some greedy steps; the full schedule then runs after it, and
    # every solve, falling back or not, ends within its target
    d = _random_unit_dictionary(6, 12, 1.5, seed=10)
    w = d.space.weight_vector()
    solves = []
    solve = greedy.minimize_power_residual

    def recorded(A, b, weights, exponent, **kwargs):
        res = solve(A, b, weights, exponent, **kwargs)
        solves.append((A, b, kwargs["decrement_tol"], res))
        return res

    monkeypatch.setattr(greedy, "minimize_power_residual", recorded)
    rng = np.random.default_rng(11)
    for _ in range(10):
        wcga(rng.standard_normal(6), d, 5)
    stages = [res.stages for *_, res in solves]
    assert set(stages) == {1, 1 + len(optim._eps_levels())}
    for A, b, tol, res in solves:
        # the target in the solver's units, b / max |b|, with the true
        # objective, which the smoothed one exceeds by at most 6e-12 here
        scale = np.abs(b).max()
        assert res.decrement <= tol * (1.0 + res.value / scale ** 1.5) * (1.0 + 1e-9)
        reference = _tight(A, b, w, 1.5).value
        assert res.value <= reference + tol * (1.0 + reference)


def test_it1_shaped_warm_solve_runs_the_final_stage_alone():
    # 160 points of a uniform measure, 12 dense atoms, q = 4/3 as at p = 4
    rng = np.random.default_rng(3)
    A = rng.standard_normal((160, 12))
    b = rng.standard_normal(160)
    w = np.full(160, 1.0 / 160)
    x0 = np.append(_tight(A[:, :-1], b, w, 4.0 / 3.0).x, 0.0)
    res = optim.minimize_power_residual(A, b, w, 4.0 / 3.0, x0=x0, decrement_tol=1e-10)
    assert res.stages == 1
    reference = _tight(A, b, w, 4.0 / 3.0).value
    assert res.value <= reference * (1.0 + 1e-10)


def test_warm_solve_that_cannot_converge_raises_after_both_runs(monkeypatch):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 3))
    b = rng.standard_normal(12)
    w = np.full(12, 1.0 / 12)
    # with no trial step allowed, the final stage alone ends at the
    # backtracking floor, and so does every stage of the fallback, which
    # then fails the final test; the error counts all 1 + 8 iterations
    factored = []
    cho_factor = optim.cho_factor
    monkeypatch.setattr(optim, "cho_factor",
                        lambda H: factored.append(1) or cho_factor(H))
    monkeypatch.setattr(optim, "_MAX_BACKTRACKS", 0)
    with pytest.raises(NonConvergenceError) as exc:
        optim.minimize_power_residual(A, b, w, 1.5, x0=np.zeros(3), decrement_tol=1e-12)
    assert exc.value.iterations == len(factored) == 1 + len(optim._eps_levels())
    # an overflowing objective raises in the final stage, and again at
    # the first iterate of the fallback
    with pytest.raises(NonConvergenceError) as exc:
        optim.minimize_power_residual(A, 4.0 * b, w, 1e9, x0=np.zeros(3),
                                      decrement_tol=1e-12)
    assert exc.value.iterations == 2
    assert "the objective overflowed" in str(exc.value)
