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
    STACK_ROWS,
    AdaptiveSvdConfig,
    NeedDResult,
    ThresholdPlan,
    ladder_blocks,
    make_adaptive_config,
    make_blocks,
    make_threshold_plan,
    need_d,
    need_d_stack,
    projection_cutoff,
    projection_gram,
    svd_adaptive,
    svd_projection,
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
    MAX_JMAX,
    NODES_EXACT,
    NODES_PAPER,
    FrameLevel,
    NeedletFrame,
    analyze,
    build_frame,
    frame_invariants,
    frame_levels,
    level_frame_norms,
    level_sigma,
    localization_check,
    needlet_values,
    synthesize,
)
from .frameio import FORMAT_VERSION, load_frame, open_frame, save_frame, write_levels
from .jacobi import (
    JacobiBasis,
    QuadratureRule,
    gauss_jacobi_rule,
    generalized_weight,
    jacobi_basis,
    jacobi_eval_all,
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
    SimulationConfig,
    SimulationReport,
    emit_report,
    load_report,
    rate_study,
    run_experiment,
)
from .targets import TARGET_NAMES, target_breakpoints, target_function, target_raw

__version__ = "0.1.0"
