"""Unsupervised alignment of inputs to guarded-attribute records, followed
by spectral or nullspace erasure of the aligned information."""

from .assignment import (
    Assignment,
    GuardedRecords,
    assignment_objective,
    bounds_from_priors,
    score_matrix,
    solve_assignment,
)
from .driver import (
    AmsalConfig,
    AmsalResult,
    AmsalTrace,
    alignment_accuracy,
    am_iterate,
    kmeans_assign,
    random_feasible_assignment,
    run_amsal,
)
from .errors import (
    AmsalError,
    FormatError,
    InfeasibleBounds,
    InvalidInput,
    NoCandidates,
)
from .linalg import (
    SvdResult,
    center_columns,
    cross_covariance,
    singular_value_sum,
    spectral_norm,
    svd,
)
from .metrics import EvalReport, accuracy, f1_macro, mae, mae_gap, tpr_gap_rms
from .removal import Eraser, apply_eraser, fit_inlp, fit_logistic_probe, fit_sal, probe_accuracy
from .synthetic import (
    LatentSpec,
    PlantedDataset,
    as_records,
    concentration_diagnostic,
    generate_latent,
    proposition1_check,
    random_permutation_assignment,
    reference_records_spec,
    reference_spec,
    uniform_permutation,
    weyl_check,
)

__version__ = "0.1.0"
