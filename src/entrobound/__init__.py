"""Constructive entropy-number bounds at desk scale.

Greedy sparse approximation in smooth finite-dimensional norms, covers
and packings of atom hulls and l_p balls with certified center counts,
dual-norm identities, and sampling discretization of subspaces, tied
together by reproducible experiments that compare every bound against
its (log2(2n/k)/k)^r envelope.
"""

from .discretization import (
    DiscretizationDictionary,
    SamplePointSet,
    Subspace,
    SubspaceEntropyResult,
    TransferReport,
    build_discretization_dictionary,
    it1_experiment,
    m_p_direct,
    m_p_dual,
    random_subspace,
    verify_transfer,
)
from .entropy import (
    AmbientMetric,
    BallEntropyResult,
    CoverCertificate,
    DualitySumReport,
    EntropyProfile,
    Metric,
    PackingCertificate,
    PointwiseMaxMetric,
    UNormMetric,
    ball_entropy_experiment,
    duality_sum_check,
    exact_cover_count,
    exact_entropy_small,
    farthest_point_packing,
    greedy_cover,
    log_ratio_envelope,
    metric_from_json,
    octahedron_cover_profile,
    verify_cover,
    verify_packing,
)
from .errors import (
    AtomNormalizationError,
    BudgetExceededError,
    CertificateError,
    ConfigValidationError,
    DimensionMismatchError,
    EmptyDictionaryError,
    EmptySampleError,
    EntroboundError,
    GramDefectError,
    NonConvergenceError,
    NormBoundError,
    PropertyViolationError,
    QuantizationBudgetError,
    SpanMembershipError,
    ZeroVectorError,
)
from .greedy import (
    Octahedron,
    SigmaProfile,
    SparseApproximant,
    best_mterm_bruteforce,
    chebyshev_project,
    sample_octahedron,
    sigma_profile,
    wcga,
)
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    FitModel,
    FitResult,
    Report,
    emit,
    fit_envelope,
    run,
)
from .spaces import (
    Dictionary,
    MeasureSpace,
    NormedSpaceSpec,
    canonical_dictionary,
    discrete_space,
    dual_norm,
    norm,
    norm_A,
    norm_U,
    norming_functional,
    pair,
    sequence_space,
    smoothness_bound,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
