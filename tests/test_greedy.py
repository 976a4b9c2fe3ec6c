"""Greedy sparse approximation and octahedron sampling."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

import entrobound._optim as optim
import entrobound.greedy as greedy
from entrobound import (
    BudgetExceededError,
    Dictionary,
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
    res = optim.minimize_power_residual(A, b, np.full(12, 1.0 / 12), 1.5)
    assert res.stages == stages


def test_non_finite_objective_raises_instead_of_reaching_the_factorization():
    # an exponent this large overflows the objective at the first iterate
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 2))
    b = 4.0 * rng.standard_normal(8)
    for solve in (optim.minimize_power_residual, optim.minimize_power_constrained):
        with pytest.raises(NonConvergenceError) as exc:
            solve(A, b, np.full(8, 1.0 / 8), 1e9)
        assert exc.value.iterations == 1
        assert "residual measure inf" in str(exc.value)
        assert "the objective overflowed" in str(exc.value)


def test_overflowing_hessian_raises_instead_of_passing_as_converged():
    # the objective is finite at the start, but A^T diag(h) A overflows, and
    # so does the Schur system A^T diag(1/h) A of the constrained form
    A = np.array([[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]])
    b = np.array([1.0, -1.0, 0.5])
    for solve in (optim.minimize_power_residual, optim.minimize_power_constrained):
        with pytest.raises(NonConvergenceError) as exc:
            solve(A, b, np.ones(3), 3.0)
        assert exc.value.iterations == 1
        assert "the Newton system overflowed" in str(exc.value)


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
    res = optim.minimize_power_residual(A, b, w, 1.5)
    assert failures
    assert np.all(np.isfinite(res.x))
    # the duplicate column adds nothing: the minimum is that of the reduced problem
    reduced = optim.minimize_power_residual(A[:, 1:], b, w, 1.5)
    assert res.value == pytest.approx(reduced.value, rel=1e-8)
    # the same columns as constraints make the Schur system singular; the
    # ridge keeps each step feasible to about 1e-12 relative
    failures.clear()
    res = optim.minimize_power_constrained(A, b, w, 1.5)
    assert failures
    assert A.T @ res.x == pytest.approx(A.T @ b, rel=1e-9)
    reduced = optim.minimize_power_constrained(A[:, 1:], b, w, 1.5)
    assert res.value == pytest.approx(reduced.value, rel=1e-8)


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
       e=st.floats(1.0, 6.0, exclude_min=True), coordinate=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_square_live_block_is_solved_exactly(n, dead, e, coordinate, seed):
    # n live rows for n unknowns: the minimum zeroes the live residual and
    # leaves sum w |b|^e over the rows no column touches
    rng = np.random.default_rng(seed)
    if coordinate:  # permuted and scaled coordinate atoms
        block = np.diag(rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 10.0, n))
        block = block[rng.permutation(n)]
    else:  # singular values in [0.1, 10]
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        block = (U * rng.uniform(0.1, 10.0, n)) @ V.T
    rows = n + dead
    live = np.zeros(rows, dtype=bool)
    live[rng.choice(rows, size=n, replace=False)] = True
    A = np.zeros((rows, n))
    A[live] = block
    b = rng.standard_normal(rows) * 10.0 ** rng.uniform(-3.0, 3.0)
    w = rng.uniform(0.1, 1.0, rows)
    res = optim.minimize_power_residual(A, b, w, e)
    assert res.stages == 0 and res.decrement == 0.0
    assert np.abs((b - A @ res.x)[live]).max() <= 1e-12 * np.abs(b).max()
    dead_sum = float(w[~live] @ np.abs(b[~live]) ** e)
    assert res.value == pytest.approx(dead_sum, rel=1e-12,
                                      abs=1e-12 * np.abs(b).max() ** e)
    best = _power_objective(A, b, w, e, res.x)
    for size in 10.0 ** rng.uniform(-6.0, 0.0, 20):
        x = res.x + size * np.abs(res.x).max(initial=1.0) * rng.standard_normal(n)
        assert _power_objective(A, b, w, e, x) >= best


@pytest.mark.parametrize("second", [[2.0, 2.0], [1.0, 1.0 + 2.0 ** -52]])
def test_singular_square_block_falls_back_to_newton(second):
    # with atoms e1 + e2 and 2 (e1 + e2) the live block is singular; with
    # the second atom one ulp off e1 + e2 the solve succeeds but leaves a
    # live residual far above round-off.  Newton treats both as one
    # direction, and the residual is minimized at (A x)_1 = (A x)_2 = 1/2
    A = np.array([[1.0, second[0]], [1.0, second[1]], [0.0, 0.0]])
    b = np.array([1.0, 0.0, 3.0])
    res = optim.minimize_power_residual(A, b, np.ones(3), 1.5)
    assert res.stages == 8
    assert A[0] @ res.x == pytest.approx(0.5, abs=1e-6)
    assert res.value == pytest.approx(2 * 0.5 ** 1.5 + 3.0 ** 1.5, rel=1e-9)


def test_greedy_on_coordinate_atoms_factors_no_newton_system(monkeypatch):
    factored = []
    cho_factor = optim.cho_factor
    monkeypatch.setattr(optim, "cho_factor",
                        lambda H: factored.append(1) or cho_factor(H))
    d = canonical_dictionary(12, 1.5)
    f = np.random.default_rng(7).standard_normal(12)
    run = wcga(f, d, 6)
    assert len(run.support) == 6
    assert factored == []
    # the residual is f with its six largest entries removed
    tail = np.sort(np.abs(f))[:6]
    assert run.residual_norm == pytest.approx(np.sum(tail ** 1.5) ** (1 / 1.5),
                                              rel=1e-15)


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
        optim.minimize_power_residual(A, b, w, 1.5, x0=np.zeros(3))
    assert exc.value.iterations == len(factored) == 1 + len(optim._eps_levels())
    # an overflowing objective raises in the final stage, and again at
    # the first iterate of the fallback
    with pytest.raises(NonConvergenceError) as exc:
        optim.minimize_power_residual(A, 4.0 * b, w, 1e9, x0=np.zeros(3))
    assert exc.value.iterations == 2
    assert "the objective overflowed" in str(exc.value)
