"""Monte-Carlo experiment drivers and CSV emission.

Each trial owns independent random streams, so trial t is reproducible in
isolation and the trial loop is an order-indexed reduction: results would be
identical under any parallel schedule. The nmse and rate experiments share one
trial engine, _run_trials, and aggregate through a record callback that
receives each estimate with the true channel and, for the trackers, the
trace of the filter's error covariance.

The pilots are always dft_pilots and the channel correlation is
block-diagonal over the users, so every estimator runs on the exact per-user
model of quantization.build_per_user_model: each slot's observation is taken
once into its K user bins, and the estimators work on K batched M x M
problems instead of one n x n problem, with any per-user temporal
coefficients. BLMMSE is the exact-gain tracker with eta = 0, so blmmse and
kfb share one per-trial estimators.PerUserEigenbasis.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (
    TemporalStats,
    aggregate_correlation,
    evolve_channel,
    exponential_correlation,
    init_channel,
    jakes_coefficient,
    stack_correlation,
)
from .estimators import (
    PerUserKalman,
    PerUserLs,
    PerUserTpe,
    TpeGain,
    build_eigenbasis,
    ls_estimate,
    sample_correlation,
)
from .quantization import (
    QuantizedObservation,
    build_per_user_model,
    dft_pilots,
    one_bit_quantize,
    received_pilot_signal,
)
# The trial loop no longer calls these dense-model functions, but
# perfbench/tracing.py wraps them by their names in this module, so they stay
# bound here.
from .estimators import blmmse_estimate, kfb_step  # noqa: F401
from .quantization import build_bussgang_model, quantize_pilot_slot  # noqa: F401
from .rate import achievable_rates
from .rng import complex_normal, trial_streams
from .theory import TheoryParams, alpha_upper_bound, fixed_point_gamma, nmse_recursion

CSV_HEADER = "experiment,estimator,slot,snr_db,metric,value,stderr,seed"

# Companion curve emitted whenever the Kalman tracker runs: the filter's own
# error-covariance trace, i.e. its NMSE under ideally Gaussian effective noise.
KFB_THEORY = "kfb_theory"


@dataclass(frozen=True)
class NmseSeries:
    """Aggregated NMSE of one estimator at one slot and SNR point."""

    estimator: str
    slot: int
    snr_db: float
    nmse_linear: float
    nmse_db: float
    stderr: float


@dataclass(frozen=True)
class CsvRow:
    experiment: str
    estimator: str
    slot: int
    snr_db: float
    metric: str
    value: float
    stderr: float
    seed: int


def _temporal_stats(cfg):
    eta = np.array([jakes_coefficient(v, cfg.f_c, cfg.t_slot) for v in cfg.speeds()])
    return TemporalStats(eta)


def _learned_correlation(cfg, pilots, corr_true, streams):
    """Receiver-side per-user correlations learned from one-bit LS probes.

    Draws stationary channels, runs them through the quantized front end,
    and builds per-user sample correlations from the LS estimates. The true
    correlation stays with the channel generator only.
    """
    count = cfg.sample_count
    n_total = cfg.M * cfg.K
    g = complex_normal(streams.channel, (n_total, count))
    h_all = corr_true.sqrt_factor @ g
    noise = complex_normal(streams.pilot_noise, (cfg.M * cfg.tau, count))
    quantized = one_bit_quantize(pilots.apply(h_all) + noise)
    probes = ls_estimate(QuantizedObservation(slot=0, r=quantized), pilots).T
    return [sample_correlation(probes[:, k * cfg.M : (k + 1) * cfg.M]) for k in range(cfg.K)]


def _estimator(name, cfg, stats, prior, model, basis):
    if name == "ls":
        return PerUserLs(model)
    if name == "blmmse":
        return PerUserKalman(basis, np.zeros_like(stats.eta))
    if name == "kfb":
        return PerUserKalman(basis, stats.eta)
    return PerUserTpe(prior, model, stats.eta, TpeGain(cfg.tpe_order, cfg.tpe_alpha))


def _run_trials(cfg, snr_db, stats, record):
    """Shared Monte-Carlo engine.

    Calls record(name, trial, slot_index, h_hat, h_true, error_trace) for
    every estimate; error_trace is the trace of the filtered error covariance
    for the Kalman-form estimators (blmmse, kfb, tpe) and None for ls. Each
    trial builds the per-user model, the eigenbasis when blmmse or kfb runs,
    and one estimator object per configured name; each slot is quantized
    once and taken into its user bins for all of them. A
    non-finite estimate raises FloatingPointError naming the estimator,
    slot, trial and SNR point, so no diverged result is written.
    """
    rho = 10.0 ** (snr_db / 10.0)
    pilots = dft_pilots(cfg.tau, cfg.K).with_rho(rho)
    for trial in range(cfg.trials):
        streams = trial_streams(cfg.seed, trial)
        theta = streams.phases.uniform(0.0, 2.0 * np.pi, cfg.K)
        users = [exponential_correlation(cfg.M, cfg.r_spatial, th) for th in theta]
        corr = aggregate_correlation(users)
        if cfg.sample_count is not None:
            users = _learned_correlation(cfg, pilots, corr, streams)
        prior = stack_correlation(users)
        model = build_per_user_model(pilots, prior)
        basis = None
        if "blmmse" in cfg.estimators or "kfb" in cfg.estimators:
            basis = build_eigenbasis(prior, model)
        estimators = {
            name: _estimator(name, cfg, stats, prior, model, basis) for name in cfg.estimators
        }

        chan = init_channel(corr, streams.channel)
        for i in range(cfg.slots):
            chan = evolve_channel(chan, stats, corr, streams.channel)
            r = one_bit_quantize(received_pilot_signal(chan, pilots, streams.pilot_noise))
            obs = model.observe(chan.slot, r)
            for name, estimator in estimators.items():
                h_hat = estimator.step(obs).reshape(-1)
                if not np.isfinite(h_hat).all():
                    raise FloatingPointError(
                        f"{name} estimate is not finite at slot {i + 1}, trial {trial}, "
                        f"snr {snr_db} dB"
                    )
                record(name, trial, i, h_hat, chan.h, estimator.error_trace)


def _mean_stderr(per_trial):
    mean = per_trial.mean(axis=0)
    if per_trial.shape[0] > 1:
        stderr = per_trial.std(axis=0, ddof=1) / np.sqrt(per_trial.shape[0])
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def run_nmse_experiment(cfg):
    """NMSE curves for every configured estimator, one series entry per slot.

    The Kalman tracker additionally emits its covariance-trace curve under
    the kfb_theory label.
    """
    stats = _temporal_stats(cfg)
    names = []
    for name in cfg.estimators:
        names.append(name)
        if name == "kfb":
            names.append(KFB_THEORY)
    denom = cfg.M * cfg.K
    series = []
    for snr_db in cfg.snr_db:
        errors = {name: np.zeros((cfg.trials, cfg.slots)) for name in names}

        def record(name, trial, i, h_hat, h_true, error_trace):
            errors[name][trial, i] = np.linalg.norm(h_hat - h_true) ** 2 / denom
            if name == "kfb":
                errors[KFB_THEORY][trial, i] = error_trace / denom

        _run_trials(cfg, snr_db, stats, record)
        for name in names:
            mean, stderr = _mean_stderr(errors[name])
            for i in range(cfg.slots):
                series.append(
                    NmseSeries(
                        estimator=name,
                        slot=i + 1,
                        snr_db=float(snr_db),
                        nmse_linear=float(mean[i]),
                        nmse_db=float(10.0 * np.log10(mean[i])),
                        stderr=float(stderr[i]),
                    )
                )
    return series


def nmse_csv_rows(series, cfg):
    """Long-format rows: a linear and a dB entry per series point."""
    rows = []
    for s in series:
        rows.append(
            CsvRow("nmse", s.estimator, s.slot, s.snr_db, "nmse", s.nmse_linear, s.stderr, cfg.seed)
        )
        db_stderr = (10.0 / np.log(10.0)) * s.stderr / s.nmse_linear if s.nmse_linear > 0 else 0.0
        rows.append(
            CsvRow("nmse", s.estimator, s.slot, s.snr_db, "nmse_db", s.nmse_db, db_stderr, cfg.seed)
        )
    return rows


def run_rate_experiment(cfg):
    """Zero-forcing sum rates per estimator and slot.

    Pilot and data phases share the configured SNR point.
    """
    stats = _temporal_stats(cfg)
    rows = []
    for snr_db in cfg.snr_db:
        rho_d = 10.0 ** (snr_db / 10.0)
        sums = {name: np.zeros((cfg.trials, cfg.slots)) for name in cfg.estimators}

        def record(name, trial, i, h_hat, h_true, error_trace):
            h_true_mat = h_true.reshape(cfg.K, cfg.M).T
            h_est_mat = h_hat.reshape(cfg.K, cfg.M).T
            sums[name][trial, i] = achievable_rates(h_true_mat, h_est_mat, rho_d).sum_rate

        _run_trials(cfg, snr_db, stats, record)
        for name in cfg.estimators:
            mean, stderr = _mean_stderr(sums[name])
            for i in range(cfg.slots):
                rows.append(
                    CsvRow(
                        "rate", name, i + 1, float(snr_db), "sum_rate",
                        float(mean[i]), float(stderr[i]), cfg.seed,
                    )
                )
    return rows


def run_theory(cfg):
    """Closed-form NMSE recursion, its fixed point, and the scale bound."""
    eta = jakes_coefficient(cfg.speeds()[0], cfg.f_c, cfg.t_slot)
    rows = []
    for snr_db in cfg.snr_db:
        rho = 10.0 ** (snr_db / 10.0)
        params = TheoryParams(K=cfg.K, rho=rho, eta=eta, alpha=cfg.tpe_alpha)
        m_pred, m_filt = nmse_recursion(params, cfg.slots)
        gamma = fixed_point_gamma(params)
        rows.append(CsvRow("theory", "tpe", 0, float(snr_db), "gamma", float(gamma), 0.0, cfg.seed))
        for i in range(cfg.slots):
            slot = i + 1
            rows.append(
                CsvRow("theory", "tpe", slot, float(snr_db), "m_pred", float(m_pred[i]), 0.0, cfg.seed)
            )
            rows.append(
                CsvRow("theory", "tpe", slot, float(snr_db), "m_filt", float(m_filt[i]), 0.0, cfg.seed)
            )
            rows.append(
                CsvRow(
                    "theory", "tpe", slot, float(snr_db), "alpha_bound",
                    float(alpha_upper_bound(params.beta, m_pred[i])), 0.0, cfg.seed,
                )
            )
    return rows


def _format_number(value):
    # repr of a Python float is the shortest exact round-trip form.
    return repr(float(value))


def write_csv(rows, path=None):
    """Write rows under the fixed header to a file, or stdout when path is None."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.experiment,
                    r.estimator,
                    str(r.slot),
                    _format_number(r.snr_db),
                    r.metric,
                    _format_number(r.value),
                    _format_number(r.stderr),
                    str(r.seed),
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
    return text
