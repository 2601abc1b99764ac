"""Uplink channel estimation for massive MIMO with one-bit ADCs.

Covers correlated Gauss-Markov channel generation, DFT pilots through a
one-bit front end with a Bussgang-linearized observation model, single-shot
and Kalman-tracking estimators (exact or polynomial-expanded gains),
closed-form NMSE theory, zero-forcing sum rates, and a reproducible
Monte-Carlo harness with CSV output.
"""

from .channel import (
    ChannelState,
    ExponentialCorrelation,
    SpatialCorrelation,
    TemporalStats,
    exponential_correlation,
    init_channel,
    jakes_coefficient,
    stack_correlation,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    default_config,
    emit_config,
    load_config,
    parse_config,
)
from .estimators import (
    ExactGain,
    PerUserEigenbasis,
    TpeGain,
    build_eigenbasis,
    kalman_estimates,
    ls_estimates,
    tpe_estimates,
    tpe_inverse,
    user_frame,
)
from .harness import (
    CSV_HEADER,
    KFB_THEORY,
    CsvRow,
    NmseSeries,
    nmse_csv_rows,
    run_nmse_experiment,
    run_rate_experiment,
    run_theory,
    write_csv,
)
from .quantization import (
    PerUserModel,
    PilotMatrix,
    build_per_user_model,
    bussgang_gain,
    dft_pilots,
    one_bit_quantize,
    pilot_signal,
)
from .reference import (
    BussgangModel,
    KalmanState,
    QuantizedObservation,
    ScaledPilotOperator,
    aggregate_correlation,
    arcsin_covariance,
    blmmse_estimate,
    build_bussgang_model,
    evolve_channel,
    kfb_init,
    kfb_step,
    ls_estimate,
    psd_sqrt,
    quantize_pilot_slot,
    received_pilot_signal,
    sample_correlation,
)
from .rate import RateBreakdown, achievable_rates, zf_combiner
from .rng import complex_normal, stream_rng, trial_streams
from .theory import (
    TheoryParams,
    alpha_upper_bound,
    blmmse_nmse,
    estimation_gain,
    fixed_point_gamma,
    nmse_fixed_point_map,
    nmse_recursion,
)

__version__ = "0.1.0"
