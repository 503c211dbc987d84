"""Widely linear complex Kalman filtering.

State estimation for complex-valued signals whose complementary covariance
does not vanish. The package provides the augmented-domain linear filter
and its strictly linear and dual-channel real counterparts, closed-form
MSE analysis for the scalar model, moment-preserving complex sigma points
with the corresponding unscented filter, a phase demodulation experiment,
and a reproducible experiment CLI.
"""
from .augmented import (
    AugmentedMatrix,
    AugmentedVector,
    augmented_to_real,
    augmented_to_real_matrix,
    build_transform,
    psd_sqrt,
    real_matrix_to_augmented,
)
from .linear import (
    FilterState,
    StepReport,
    WidelyLinearModel,
    ckf_run,
    model_from_real,
    real_kf_run,
    simulate_linear,
    wlckf_run,
)
from .mse import (
    ImproprietyGain,
    ImproprietyGains,
    ScalarModelParams,
    min_mmse_ratio,
    min_wl_mmse,
    noise_impropriety_gain,
    noise_impropriety_gains,
    sl_mmse,
    steady_state_gains,
    variance_after,
    variance_step,
    wl_mmse,
)
from .phase import (
    PhaseModel,
    improvement_ratio,
    normalized_error,
    run_tracker,
    simulate_phase,
    track_batch,
)
from .stats import (
    SecondOrderStats,
    empirical_stats,
    sample,
    substream,
    validate,
)
from .unscented import (
    NonlinearModel,
    SigmaPointSet,
    complex_sigma_points,
    reconstruct_stats,
    uwlckf_run,
    uwlckf_step,
)

__version__ = "0.1.0"
