"""Needlet tight frames over SVD bases, thresholding estimators, and a simulation harness."""

from .errors import (
    InvariantError,
    NodeSolveError,
    NormResolutionError,
    ProfileError,
    UnresolvedIntegrandError,
)
from .estimators import (
    KAPPA_DEFAULT,
    AdaptiveSvdConfig,
    NeedDResult,
    ThresholdPlan,
    make_adaptive_config,
    make_blocks,
    make_threshold_plan,
    need_d,
    projection_cutoff,
    projection_gram,
    svd_adaptive,
    svd_projection,
    svd_projection_oracle,
)
from .filters import (
    POLYNOMIAL_SHAPE,
    SMOOTH_EXPONENTIAL,
    check_partition,
    dyadic_square_sum,
    filter_a,
    make_filter,
    make_profile,
    profile_phi,
)
from .frame import (
    NODES_EXACT,
    NODES_PAPER,
    BesovParams,
    FrameLevel,
    NeedletFrame,
    analyze,
    best_approx_errors,
    besov_seq_norm,
    build_frame,
    coeff_function_norm,
    frame_invariants,
    frame_norm,
    level_frame_norms,
    level_sigma,
    localization_check,
    synthesize,
)
from .frameio import FORMAT_VERSION, load_frame, save_frame
from .jacobi import (
    JacobiBasis,
    QuadratureRule,
    gauss_jacobi_rule,
    generalized_weight,
    jacobi_basis,
    jacobi_eval_all,
    jacobi_weighted_sums,
)
from .losses import grid_weights, weighted_loss
from .models import (
    SequenceObservation,
    SvdModel,
    calibrate_epsilon,
    coeffs_from_function,
    derive_seed,
    direct_model,
    eval_e,
    eval_g,
    forward,
    function_from_coeffs,
    sample_observation,
    wicksell_model,
)
from .simlab import (
    ESTIMATOR_NAMES,
    AdaptiveSpec,
    CellResult,
    FrameSpec,
    NeedDSpec,
    RateStudy,
    RateTarget,
    SimulationConfig,
    SimulationReport,
    emit_report,
    load_report,
    rate_study,
    run_experiment,
)
from .targets import TARGET_NAMES, target_breakpoints, target_function, target_raw

__version__ = "0.1.0"
