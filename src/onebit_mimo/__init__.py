"""Uplink channel estimation for massive MIMO with one-bit ADCs.

Covers correlated Gauss-Markov channel generation, DFT pilots through a
one-bit front end with a Bussgang-linearized observation model, single-shot
and Kalman-tracking estimators (exact or polynomial-expanded gains),
closed-form NMSE theory, zero-forcing sum rates, and a reproducible
Monte-Carlo harness with CSV output.
"""

from .channel import (
    ChannelState,
    SpatialCorrelation,
    TemporalStats,
    aggregate_correlation,
    evolve_channel,
    exponential_correlation,
    init_channel,
    jakes_coefficient,
    psd_sqrt,
    spatial_correlation,
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
    KalmanState,
    PerUserEigenbasis,
    PerUserKalman,
    PerUserLs,
    PerUserTpe,
    TpeGain,
    blmmse_estimate,
    build_eigenbasis,
    kfb_init,
    kfb_step,
    ls_estimate,
    sample_correlation,
    tpe_inverse,
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
    BussgangModel,
    PerUserModel,
    PilotMatrix,
    QuantizedObservation,
    ScaledPilotOperator,
    arcsin_covariance,
    build_bussgang_model,
    build_per_user_model,
    dft_pilots,
    one_bit_quantize,
    quantize_pilot_slot,
    received_pilot_signal,
)
from .rate import RateBreakdown, achievable_rates, data_bussgang_gain, zf_combiner
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
