"""Synthetic categorical datasets with a known partition of subjects.

Generate n x P tables of categorical level codes where every subject
belongs to a predetermined cluster, variables are independent within
clusters, and the marginal dependence between chosen groups of variables
hits user-specified covariance or correlation targets exactly in
expectation.  Companion tools compute the exact moment matrices a spec
implies, empirical association measures for checking generated (or any)
data, and an end-to-end pipeline with reproducible artifacts.
"""

__version__ = "0.1.0"

from .association import (
    AssociationMatrix,
    ContingencyTable,
    association_matrix,
    chi_square,
    concentration_coefficient,
    cramers_v,
    crosstab,
    stuart_kendall_tau_c,
)
from .calibration import (
    CalibrationResult,
    GroupCalibration,
    calibrate_group,
    pair_dependence,
)
from .generator import (
    BuiltSpec,
    GeneratorSpec,
    allocate_subjects,
    bind_pattern,
    build_spec,
    generate,
)
from .model import (
    ClusterSpec,
    Dataset,
    DependenceTarget,
    GroupStructure,
    InfeasibleTargetError,
    KindError,
    ProbabilityVector,
    ProfileMatrix,
    SpecError,
    ValidationReport,
    VariableDomain,
    load_config,
    validate_spec,
)
from .moments import MomentMatrices, moment_matrices
from .patterns import PatternMatrix, balanced_pattern, grouped_pattern
from .report import (
    ComparisonReport,
    GroupSummary,
    RunResult,
    compare_matrices,
    run_from_manifest,
    run_pipeline,
    summarize_groups,
    within_group_averages,
)

__all__ = [
    "__version__",
    "AssociationMatrix",
    "BuiltSpec",
    "CalibrationResult",
    "ClusterSpec",
    "ComparisonReport",
    "ContingencyTable",
    "Dataset",
    "DependenceTarget",
    "GeneratorSpec",
    "GroupCalibration",
    "GroupStructure",
    "GroupSummary",
    "InfeasibleTargetError",
    "KindError",
    "MomentMatrices",
    "PatternMatrix",
    "ProbabilityVector",
    "ProfileMatrix",
    "RunResult",
    "SpecError",
    "ValidationReport",
    "VariableDomain",
    "allocate_subjects",
    "association_matrix",
    "balanced_pattern",
    "bind_pattern",
    "build_spec",
    "calibrate_group",
    "chi_square",
    "compare_matrices",
    "concentration_coefficient",
    "cramers_v",
    "crosstab",
    "generate",
    "grouped_pattern",
    "load_config",
    "moment_matrices",
    "pair_dependence",
    "run_from_manifest",
    "run_pipeline",
    "stuart_kendall_tau_c",
    "summarize_groups",
    "validate_spec",
    "within_group_averages",
]
