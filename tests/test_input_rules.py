"""Every entry point applies the package's one set of input rules.

Counts, level lists and indices must be integers: each site refuses a
bool, an integral float, a fractional float and a string with a
ValueError whose text starts with the argument's name, where it once
truncated, sorted, or failed inside numpy with a TypeError.  A level
list must also be strictly increasing.  Numpy integers still pass.

Real numbers and exponents must be finite reals in their range: each
site refuses a bool, a string, NaN, inf and a value out of range the
same way, where it once read true as 1.0, let inf through, or failed
with a TypeError.  Numpy floats still pass.
"""

import json
import math

import numpy as np
import pytest

from entrobound import (
    AmbientMetric,
    ConfigValidationError,
    CoverCertificate,
    EntropyProfile,
    ExperimentConfig,
    MeasureSpace,
    NormedSpaceSpec,
    Octahedron,
    PointwiseMaxMetric,
    SamplePointSet,
    ball_entropy_experiment,
    best_mterm_bruteforce,
    build_discretization_dictionary,
    canonical_dictionary,
    duality_sum_check,
    exact_cover_count,
    exact_entropy_small,
    farthest_point_packing,
    greedy_cover,
    it1_experiment,
    m_p_direct,
    m_p_dual,
    octahedron_cover_profile,
    random_subspace,
    run,
    sample_octahedron,
    sequence_space,
    sigma_profile,
    smoothness_bound,
    wcga,
)
from entrobound._optim import (
    minimize_power_constrained,
    minimize_power_residual,
    minimize_power_sliced,
)

_D3 = canonical_dictionary(3, 2.0)
_F3 = np.array([0.5, 0.25, 0.0])
_W4 = np.eye(4)
_L2_4 = AmbientMetric(sequence_space(4, 2.0))
_L2_2 = AmbientMetric(sequence_space(2, 2.0))


def _cover(k, count_bound):
    return CoverCertificate(centers=np.zeros((1, 2)), radius=1.0, k=k,
                            count_bound=count_bound, metric=_L2_2, provenance="toy")


def _octahedron_covers(n, k_list):
    octa = Octahedron(canonical_dictionary(n, 2.0))
    return octahedron_cover_profile(octa, k_list, sample=octa.dictionary.atoms.T)


def _it1(k_list):
    return it1_experiment(random_subspace(2, 8, seed=0), SamplePointSet([0, 2, 4, 6]),
                          2.0, k_list, seed=0, cover_sample_size=16)


# (site, argument, call, a value that passes, with a numpy integer in it)
_COUNTS = [
    ("MeasureSpace.uniform", "size", MeasureSpace.uniform, np.int64(3)),
    ("NormedSpaceSpec", "dim", lambda v: NormedSpaceSpec(dim=v, q=2.0), np.int64(3)),
    ("CoverCertificate", "k", lambda v: _cover(v, 1), np.int64(1)),
    ("CoverCertificate", "count_bound", lambda v: _cover(1, v), np.int64(2)),
    ("exact_entropy_small", "k", lambda v: exact_entropy_small(_W4, v, _L2_4),
     np.int64(1)),
    ("farthest_point_packing", "count",
     lambda v: farthest_point_packing(_W4, v, _L2_4), np.int64(2)),
    ("duality_sum_check", "m",
     lambda v: duality_sum_check(canonical_dictionary(2, 2.0), v, sample_size=8,
                                 seed=0), np.int64(1)),
    ("best_mterm_bruteforce", "m", lambda v: best_mterm_bruteforce(_F3, _D3, v),
     np.int64(2)),
    ("wcga", "m", lambda v: wcga(_F3, _D3, v), np.int64(2)),
    ("sample_octahedron", "count", lambda v: sample_octahedron(_D3, v, seed=0),
     np.int64(2)),
    ("random_subspace", "dim", lambda v: random_subspace(v, 8, seed=0), np.int64(2)),
    ("random_subspace", "support_size", lambda v: random_subspace(2, v, seed=0),
     np.int64(8)),
]

_LEVELS = [
    ("sigma_profile", "m_list", lambda v: sigma_profile([_F3], _D3, v)),
    ("EntropyProfile.build", "k_list",
     lambda v: EntropyProfile.build(v, [0.0, 0.0], [1.0, 1.0], ["none"] * 2,
                                    ["trivial"] * 2)),
    ("octahedron_cover_profile", "k_list",
     lambda v: _octahedron_covers(4, v)),
    ("octahedron_cover_profile_one_atom", "k_list",
     lambda v: _octahedron_covers(1, v)),
    ("ball_entropy_experiment", "k_list",
     lambda v: ball_entropy_experiment(2.0, 4, v, sample_size=16, seed=0)),
    ("it1_experiment", "k_list", _it1),
]

_INDICES = [
    ("PointwiseMaxMetric", PointwiseMaxMetric),
    ("SamplePointSet", SamplePointSet),
]


_ROWS = (
    [(site, name, call, value)
     for site, name, call, _ in _COUNTS
     for value in (True, 2.0, 2.5, "2")]
    + [(site, name, call, value)
       for site, name, call in _LEVELS
       for value in ([True, 3], [2.0, 3], [2.5, 3], ["2", 3], "23", [3, 2], [2, 2])]
    + [(site, "indices", call, value)
       for site, call in _INDICES
       for value in ([True, False], [0, True], [0.0, 1.0], [0, 1.5], ["0", "1"])]
    # a level above the dictionary's three atoms
    + [("sigma_profile", "m_list", _LEVELS[0][2], [1, 4])]
)


@pytest.mark.parametrize(
    "site, name, call, value", _ROWS,
    ids=[f"{site}-{name}-{value!r}".replace(" ", "") for site, name, call, value in _ROWS])
def test_each_entry_point_refuses_what_it_would_coerce(site, name, call, value):
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(value)


_PASSING = (
    [(site, name, call, value) for site, name, call, value in _COUNTS]
    + [(site, name, call, np.array([1, 2])) for site, name, call in _LEVELS]
    + [(site, "indices", call, np.array([0, 1], dtype=np.int32))
       for site, call in _INDICES]
)


@pytest.mark.parametrize(
    "site, name, call, value", _PASSING,
    ids=[f"{site}-{name}" for site, name, call, value in _PASSING])
def test_each_entry_point_takes_numpy_integers(site, name, call, value):
    call(value)


_A = np.eye(3)[:, :2]
_B = np.array([1.0, 0.5, 0.25])
_ONES = np.ones(3)
_SUB = random_subspace(2, 8, seed=0)
_PTS = SamplePointSet([0, 2, 4, 6])


def _validated(experiment, **fields):
    # the harness reports a problem line that starts with the field's name
    try:
        ExperimentConfig(experiment=experiment, seed=0, **fields).resolved().validate()
    except ConfigValidationError as exc:
        raise ValueError("; ".join(exc.problems)) from exc


# (site, argument, call, a real out of range, a numpy float that passes)
_REALS = [
    ("NormedSpaceSpec", "q", lambda v: NormedSpaceSpec(dim=2, q=v), 1.0,
     np.float64(1.5)),
    ("minimize_power_residual", "exponent",
     lambda v: minimize_power_residual(_A[None], _B[None], _ONES, v, decrement_tol=1e-10),
     1.0,
     np.float64(1.5)),
    ("minimize_power_constrained", "exponent",
     lambda v: minimize_power_constrained(_A, _B[None, :], _ONES, v,
                                          decrement_tol=1e-10), 1.0, np.float64(1.5)),
    ("minimize_power_sliced", "exponent",
     lambda v: minimize_power_sliced(_A, _ONES, v, decrement_tol=1e-10), 1.0,
     np.float64(1.5)),
    ("duality_sum_check", "q",
     lambda v: duality_sum_check(canonical_dictionary(2, v), 1, sample_size=8, seed=0),
     3.0, np.float64(1.5)),
    ("ball_entropy_experiment", "p",
     lambda v: ball_entropy_experiment(v, 4, [1, 2], sample_size=16, seed=0), 1.5,
     np.float64(3.0)),
    ("m_p_direct", "p", lambda v: m_p_direct(_SUB, v), 1.5, np.float64(3.0)),
    ("m_p_dual", "p", lambda v: m_p_dual(_SUB, v), 1.5, np.float64(3.0)),
    ("build_discretization_dictionary", "p",
     lambda v: build_discretization_dictionary(_SUB, _PTS, v), 1.5, np.float64(3.0)),
    ("it1_experiment", "p",
     lambda v: it1_experiment(_SUB, _PTS, v, [2], seed=0, cover_sample_size=16), 1.5,
     np.float64(3.0)),
    ("exact_cover_count", "radius", lambda v: exact_cover_count(_W4, v, _L2_4), -0.5,
     np.float64(0.5)),
    ("greedy_cover", "epsilon", lambda v: greedy_cover(_W4, v, _L2_4), -0.5,
     np.float64(0.5)),
    ("smoothness_bound", "u", lambda v: smoothness_bound(sequence_space(2, 1.5), v),
     -0.5, np.float64(0.5)),
    ("ExperimentConfig", "q", lambda v: _validated("sigma-decay", q=v), 1.0,
     np.float64(1.5)),
    ("ExperimentConfig-duality-check", "q", lambda v: _validated("duality-check", q=v),
     3.0, np.float64(1.5)),
    ("ExperimentConfig", "p", lambda v: _validated("ball-entropy", p=v), 1.5,
     np.float64(3.0)),
]

_REAL_ROWS = [(site, name, call, value)
              for site, name, call, outside, _ in _REALS
              for value in (True, "2", math.nan, math.inf, outside)]


@pytest.mark.parametrize(
    "site, name, call, value", _REAL_ROWS,
    ids=[f"{site}-{name}-{value!r}" for site, name, call, value in _REAL_ROWS])
def test_each_real_site_refuses_what_is_not_a_finite_real_in_range(site, name, call,
                                                                    value):
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(value)


@pytest.mark.parametrize(
    "site, name, call, value", [(site, name, call, value)
                                for site, name, call, _, value in _REALS],
    ids=[f"{site}-{name}" for site, name, *_ in _REALS])
def test_each_real_site_takes_numpy_floats(site, name, call, value):
    call(value)


def test_greedy_cover_at_radius_inf_is_refused_before_any_certificate():
    # it once returned a radius-inf certificate that verify_cover refused
    with pytest.raises(ValueError, match="^epsilon: need a finite real"):
        greedy_cover(_W4, math.inf, _L2_4)


def test_a_config_of_numpy_integers_writes_the_same_json():
    # seed np.int64(0) was refused by a check of its own, and n np.int64(8)
    # reached json.dumps, which cannot write it
    def report(seed, n, p):
        return run(ExperimentConfig(experiment="ball-entropy", seed=seed, n=n, p=p,
                                    samples=16, format="json"))[1]

    text = report(np.int64(0), np.int64(8), np.float64(2.0))
    assert text == report(0, 8, 2.0)
    assert json.loads(text)["metadata"]["n"] == 8
    # a Python value is written as it was given
    assert json.loads(report(0, 8, 2))["metadata"]["p"] == 2
    assert '"p": 2,' in report(0, 8, 2)
