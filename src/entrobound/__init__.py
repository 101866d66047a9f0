"""Weighted entropic uncertainty bounds from overlap-matrix norms."""

__version__ = "0.1.0"

from .applications import (
    EntropyDeficits,
    RandomnessBound,
    WitnessResult,
    deficits_from_entropies,
    eavesdropper_entropy_bound,
    entanglement_witness_analytic,
    entanglement_witness_general,
    optimal_weights,
    randomness_bound_analytic,
    randomness_bound_numeric,
    werner_detection_scan,
    werner_state,
)
from .bounds import (
    BoundReport,
    ComparisonRow,
    bccrr_rhs,
    c_lower_bound,
    compare_state_independent,
    default_envelope_grid,
    entropy_upper_bound,
    envelope_curve,
    evaluate_eur,
    qudit_eur_rhs,
    rpz2_rhs,
)
from .certify import (
    conjecture_region_contains,
    feasible_weight_grid,
    hessian_spectrum_at_ones,
    mu_star,
)
from .errors import (
    ConjectureViolationError,
    DegenerateCaseError,
    DimensionMismatchError,
    InvalidDistributionError,
    InvalidStateError,
    NormConsistencyError,
    SolverFailureError,
)
from .experiments import (
    COMPARE_RANDOM_OPTS,
    FUZZ_OPTS,
    Table,
    config_hash,
    norm_report,
    run_compare_random,
    run_compare_sweep,
    run_conjecture_fuzz,
    run_fig_region,
    run_norm_profile,
    run_randomness_sweep,
    run_werner_masks,
    write_table,
)
from .norms import (
    NormMethod,
    NormResult,
    SolverOptions,
    WeightTriple,
    norm,
    norm_closed_form,
    norm_identity,
    norm_mub,
    norm_numeric,
    scan_2d_objective,
)
from .overlap import (
    OverlapMatrix,
    build_overlap,
    from_text,
    from_unitary,
    identity_overlap,
    mub_overlap,
    rotation_overlap_2d,
    second_singular_value,
    tensor_overlap,
    to_text,
)
from .qmath import (
    DensityMatrix,
    LogBase,
    ProjectiveMeasurement,
    basis_measurement,
    fourier_measurement,
    gibbs_gap,
    gibbs_state,
    haar_random_unitary,
    measurement_distribution,
    measurement_from_unitary,
    partial_trace,
    random_density_matrix,
    rotated_measurement_2d,
    shannon_entropy,
    tensor_measurement,
    von_neumann_entropy,
)

