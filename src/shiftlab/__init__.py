"""Numerical laboratory for weighted unilateral shift operators."""

from .beurling import (
    AlgebraConstantReport,
    CoefficientSeries,
    algebra_constant,
    beurling_norm,
    check_wa,
    check_wa_batch,
    check_wc,
    check_wc_batch,
    derivative,
    derivative_equivalence_probe,
    derivative_probe_batch,
    divide_by_z_minus_1,
    multiply,
)
from .operators import (
    JordanChain,
    OperatorWindow,
    adjoint_window,
    adjoint_window_square,
    chain_continuity_probe,
    eigenvector_f1,
    jordan_chain,
    shift_window,
)
from .report import SCHEMA_VERSION, ExperimentReport, canonical_json, fit_loglog_slope
from .stability import (
    PerturbationPlan,
    beurling_index_sweep,
    norm_stability_run,
    perturb,
    random_zero_sets,
    semicontinuity_run,
)
from .subspaces import (
    CyclicityError,
    InvarianceError,
    IndexResult,
    KernelSpan,
    Projection,
    RankDeficiencyError,
    ReconstructionResult,
    SubspaceBasis,
    gram_schmidt_projection,
    kernel_of_polynomial,
    krylov_span,
    orthonormalize,
    projection_distance,
    reconstruct_chain_subspace,
    rel_index,
    vanishing_subspace,
)
from .weights import (
    ClassificationReport,
    RadiusEstimates,
    WeightSequence,
    classify,
    polynomial_weight,
    radius_estimates,
)

__version__ = "0.1.0"
