"""Every entry point applies the package's one set of input rules.

Counts, level lists and indices must be integers: each site refuses a
bool, an integral float, a fractional float and a string with a
ValueError whose text starts with the argument's name, where it once
truncated, sorted, or failed inside numpy with a TypeError.  A level
list must also be strictly increasing.  Numpy integers still pass.
"""

import numpy as np
import pytest

from entrobound import (
    AmbientMetric,
    CoverCertificate,
    EntropyProfile,
    MeasureSpace,
    NormedSpaceSpec,
    Octahedron,
    PointwiseMaxMetric,
    SamplePointSet,
    ball_entropy_experiment,
    best_mterm_bruteforce,
    canonical_dictionary,
    duality_sum_check,
    exact_entropy_small,
    farthest_point_packing,
    it1_experiment,
    octahedron_cover_profile,
    random_subspace,
    sample_octahedron,
    sequence_space,
    sigma_profile,
    wcga,
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
       for value in ([True, False], [0.0, 1.0], [0, 1.5], ["0", "1"])]
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
