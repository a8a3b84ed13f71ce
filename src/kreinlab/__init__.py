"""Numerical toolkit for indefinite inner-product (Krein) spaces.

Core objects: fundamental symmetries and signed subspace classification
(`spaces`), angular representations of definite subspace pairs (`angular`),
the operator interval of self-adjoint contractive extensions and the
anticommuting-extension equation (`extensions`), metric-operator geometry
(`gmetric`), an infinite family of sequence-space models with A/B/C
quasi-maximality classification (`sequence_model`), and quasi-basis
diagnostics for concrete function families (`quasibasis`).
"""

from .errors import (
    CayleyUndefinedError,
    FrequencyBandError,
    GridResolutionError,
    InvariantViolation,
    KreinLabError,
    ParityMixingError,
    ResolutionError,
)
from .spaces import (
    SignatureSpace,
    Subspace,
    SubspaceClass,
    classify_subspace,
    fundamental_bases,
    fundamental_projections,
    indefinite_product,
)
from .angular import (
    CSymmetryMap,
    DefinitenessReport,
    PartialContraction,
    PartialMap,
    c0_operator,
    cayley_g0,
    definiteness_class,
    duality_test,
    extract_angular,
    reconstruct_subspaces,
)
from .extensions import (
    ExtensionChoice,
    ExtensionInterval,
    ExtremalityResult,
    MaximalDualPair,
    XSolutionSet,
    any_sa_extension,
    classify_case,
    density_test,
    extension_from_x,
    extremality_test,
    j_symmetrize,
    krein_interval,
    max_subspaces,
    solve_x_equation,
    symmetrize_solution,
    x_equation_residual,
)
from .gmetric import (
    GMetric,
    energetic_norm,
    g_inner,
    jg_product,
    metric_report,
    xi_norm_identity_residual,
)
from .sequence_model import (
    DefectPrediction,
    DivergenceReport,
    ModelInstance,
    SequenceModelSpec,
    TruncationSample,
    build_model,
    classify_analytic,
    defect_prediction,
    series_terms,
    truncated_density_sweep,
    xi_preimage_diagnostic,
)
from .quasibasis import (
    BUILTIN_WEIGHTS,
    AnharmonicFamily,
    ExpansionReport,
    FunctionFamily,
    ShiftedHermiteFamily,
    UniformGrid,
    anharmonic_family,
    biorthogonal_gram,
    c_action,
    c_action_multiplier,
    eigen_residual,
    expansion,
    h_gram_in_g,
    indefinite_gram,
    metric_gram,
    metric_inner,
    metric_norm,
    shifted_family,
    sign_pattern,
    weighted_gram,
)
from .verify import CheckResult, run_verification, verification_report

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
