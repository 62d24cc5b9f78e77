"""Round-robin CUSUM policies for change detection under a sampling budget."""

from .model import (
    ChangePointModel,
    LocalDistribution,
    PostChangeHypothesis,
    Unit,
    affected_units,
    unit,
)
from .gaussian import (
    GaussianLocal,
    ModelInfeasibleError,
    equicorrelation_det,
    gaussian_kl,
)
from .policy import (
    Decision,
    PolicyConfig,
    PolicyState,
    RunResult,
    StepDecision,
    init_policy,
    required_observation,
    run_to_alarm,
    step,
)
from .bounds import (
    BoundsReport,
    Estimate,
    NonAsymptoticBound,
    OptimalityClass,
    UnitStatistics,
    UnitValidation,
    ValidationReport,
    bounds_report,
    classify_optimality,
    compute_unit_statistics,
    drift_post,
    drift_pre,
    info_number,
    ladder_prob_no_ascend,
    ladder_prob_no_descend,
    llr_second_moment,
    lower_bound_first_order,
    nonasymptotic_upper_bound,
    validate_model,
)
from .montecarlo import (
    DelayEstimate,
    Ordering,
    RunSpec,
    StudyConfig,
    StudyRow,
    estimate_arl,
    estimate_delay,
    run_custom_study,
    run_study,
    worst_case_permutation,
)
from .scenarios import (
    PRESETS,
    build_preset,
    correlated_block_hypothesis,
    correlated_blocks_model,
    mean_change_hypothesis,
    mean_change_model,
    position_patterns,
    signed_pair_hypothesis,
    signed_pair_model,
)
from . import scenarios

__version__ = "0.1.0"
