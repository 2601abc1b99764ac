"""Monte-Carlo experiment drivers and CSV emission.

Each trial owns independent random streams, so trial t is reproducible in
isolation and the trial loop is an order-indexed reduction: results would be
identical under any parallel schedule. The nmse and rate experiments share one
trial engine, _run_trials, which yields each trial's estimates as one
(estimators, slots, K, M) array with the true channels and the Kalman
tracker's error traces. NMSE and zero-forcing sum rates are array reductions
over a trial, and one mean and standard error over the trials gives the
rows of both.

The pilots are always dft_pilots and the channel correlation is
block-diagonal over the users, so the whole trial works on per-user M x M
blocks and builds no n x n array: the channel is a (K, M) stack, and every
estimator runs on the exact per-user model of
quantization.build_per_user_model. BLMMSE is the exact-gain tracker with
eta = 0, so blmmse and kfb share one per-trial estimators.PerUserEigenbasis.

The engine runs the trials in chunks of T, sized so that a (T, K, M, M)
complex stack stays within _CHUNK_BYTES. Every per-trial array gains a
leading trial axis: per chunk, one call each builds the learned
correlations, the per-user models, the eigenbasis and the estimators, and
each slot is simulated, quantized and estimated once for all T trials. Each
trial still draws from its own streams, every slot up front, in the order
the one-trial loop drew them. Each trial's numbers come from per-matrix
LAPACK calls and per-block products of the same shapes at any T, so the
CSV does not depend on the chunk size, byte for byte.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (
    ChannelState,
    SpatialCorrelation,
    TemporalStats,
    advance_channel,
    apply_sqrt_factor,
    exponential_correlation,
    init_channel,
    jakes_coefficient,
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
    pilot_signal,
)
# The trial loop no longer calls these functions, but perfbench/tracing.py
# wraps them by their names in this module, so they stay bound here.
from .channel import aggregate_correlation, evolve_channel  # noqa: F401
from .estimators import blmmse_estimate, kfb_step  # noqa: F401
from .quantization import build_bussgang_model, quantize_pilot_slot  # noqa: F401
from .rate import RankDeficientError, achievable_rates
from .rng import complex_normal, complex_normal_sequence, trial_streams
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


# Working-set budget of a chunk's (T, K, M, M) complex stacks: 4 trials at
# M = 16, K = 4, and one trial from M = 32, K = 8 up. The bytes of a run do
# not depend on it; it trades per-call overhead against peak memory.
_CHUNK_BYTES = 64 * 1024


def _chunk_size(cfg):
    return max(1, _CHUNK_BYTES // (16 * cfg.K * cfg.M**2))


def _stack(arrays, axis=0):
    """np.stack, without a copy for a single array."""
    return np.expand_dims(arrays[0], axis) if len(arrays) == 1 else np.stack(arrays, axis)


def _correlation_probes(cfg, pilots, corr_true, streams):
    """One trial's one-bit LS probes of stationary channels, (K, M, count).

    Draws the channels from the true per-user stack corr_true and runs them
    through the quantized front end. The learned correlations are the
    per-user sample correlations of these probes; the true correlation
    stays with the channel generator only.
    """
    count = cfg.sample_count
    g = complex_normal(streams.channel, (cfg.M * cfg.K, count))
    h_all = apply_sqrt_factor(corr_true, g).reshape(g.shape)
    noise = complex_normal(streams.pilot_noise, (cfg.M * cfg.tau, count))
    quantized = one_bit_quantize(pilots.apply(h_all) + noise)
    probes = ls_estimate(QuantizedObservation(slot=0, r=quantized), pilots)
    return probes.reshape(cfg.K, cfg.M, count)


def _estimator(name, cfg, stats, prior, model, basis):
    if name == "ls":
        return PerUserLs(model)
    if name == "blmmse":
        return PerUserKalman(basis, np.zeros_like(stats.eta))
    if name == "kfb":
        return PerUserKalman(basis, stats.eta)
    return PerUserTpe(prior, model, stats.eta, TpeGain(cfg.tpe_order, cfg.tpe_alpha))


def _run_trials(cfg, snr_db, stats):
    """Shared Monte-Carlo engine: yields (h_hat, h_true, kfb_trace) per trial, in order.

    h_hat (E, S, K, M) holds the estimates of the E configured estimators at
    the S slots, h_true (S, K, M) the true channels, and kfb_trace (S,) the
    trace of the Kalman tracker's filtered error covariance (zeros without
    kfb). The trials run in chunks (_run_chunk). A non-finite estimate
    raises FloatingPointError naming the estimator, slot, trial and SNR
    point, so no diverged result is written; the trials before it are
    yielded first, as a one-trial loop would.
    """
    pilots = dft_pilots(cfg.tau, cfg.K).with_rho(10.0 ** (snr_db / 10.0))
    size = _chunk_size(cfg)
    for first in range(0, cfg.trials, size):
        trials = range(first, min(first + size, cfg.trials))
        h_hat, h_true, kfb_trace = _run_chunk(cfg, pilots, stats, trials)
        for t, trial in enumerate(trials):
            nonfinite = ~np.isfinite(h_hat[t]).all(axis=(-2, -1))
            if nonfinite.any():
                raise FloatingPointError(
                    _estimate_error("not finite", nonfinite, cfg, trial, snr_db)
                )
            yield h_hat[t], h_true[t], kfb_trace[t]


def _run_chunk(cfg, pilots, stats, trials):
    """Runs the T trials of a chunk together: h_hat (T, E, S, K, M), h_true, kfb_trace.

    Each trial first takes its streams, its correlation, its learned-
    correlation probes and its slot-0 channel, then draws the normals of all
    its slots; trial_streams and init_channel run once per trial, in trial
    order. The chunk then builds the per-user model, the eigenbasis when
    blmmse or kfb runs, and one estimator per configured name over the
    (T, K, M, M) stacks; each slot is simulated, quantized and taken into its
    user bins once for all of them.
    """
    probes = None
    if cfg.sample_count is not None:
        probes = np.empty((len(trials), cfg.K, cfg.M, cfg.sample_count), dtype=complex)
    users, h0, g, noise = [], [], [], []
    for t, trial in enumerate(trials):
        streams = trial_streams(cfg.seed, trial)
        theta = streams.phases.uniform(0.0, 2.0 * np.pi, cfg.K)
        users.append(exponential_correlation(cfg.M, cfg.r_spatial, theta))
        if probes is not None:
            probes[t] = _correlation_probes(cfg, pilots, users[-1], streams)
        h0.append(init_channel(users[-1], streams.channel).h)
        g.append(complex_normal_sequence(streams.channel, cfg.slots, cfg.M * cfg.K))
        noise.append(complex_normal_sequence(streams.pilot_noise, cfg.slots, cfg.M * cfg.tau))
    corr = SpatialCorrelation(
        matrix=_stack([u.matrix for u in users]),
        sqrt_factor=_stack([u.sqrt_factor for u in users]),
    )
    # (T, K, count, M): each user's samples in rows, as sample_correlation takes them.
    prior = corr if probes is None else sample_correlation(np.swapaxes(probes, -1, -2))
    model = build_per_user_model(pilots, prior)
    basis = None
    if "blmmse" in cfg.estimators or "kfb" in cfg.estimators:
        basis = build_eigenbasis(prior, model)
    estimators = [_estimator(name, cfg, stats, prior, model, basis) for name in cfg.estimators]
    kfb = estimators[cfg.estimators.index("kfb")] if "kfb" in cfg.estimators else None

    # Slot-major draws, so that slot i's are one contiguous (T, n) block.
    g, noise = _stack(g, axis=1), _stack(noise, axis=1)
    shape = (len(trials), cfg.slots, cfg.K, cfg.M)
    h_hat = np.empty((shape[0], len(estimators)) + shape[1:], dtype=complex)
    h_true = np.empty(shape, dtype=complex)
    kfb_trace = np.zeros(shape[:2])
    chan = ChannelState(slot=0, h=_stack(h0))
    for i in range(cfg.slots):
        chan = advance_channel(chan, stats, corr, g[i])
        r = one_bit_quantize(pilot_signal(chan.h, pilots, noise[i]))
        obs = model.observe(chan.slot, r)
        h_true[:, i] = chan.h
        for e, estimator in enumerate(estimators):
            h_hat[:, e, i] = estimator.step(obs)
        if kfb is not None:
            kfb_trace[:, i] = kfb.error_trace
    return h_hat, h_true, kfb_trace


def _estimate_error(problem, bad, cfg, trial, snr_db):
    """Message for the earliest slot where bad (E, S) holds, naming its first estimator."""
    i, e = np.argwhere(bad.T)[0]
    where = f"slot {i + 1}, trial {trial}, snr {snr_db} dB"
    return f"{cfg.estimators[e]} estimate is {problem} at {where}"


def _nmse(cfg, snr_db, trial, h_hat, h_true, kfb_trace):
    """Per-trial NMSE (labels, S): each estimator's, and kfb_theory's after kfb."""
    errors = np.sum(np.abs(h_hat - h_true) ** 2, axis=(-2, -1))
    if "kfb" in cfg.estimators:
        errors = np.insert(errors, cfg.estimators.index("kfb") + 1, kfb_trace, axis=0)
    return errors / (cfg.M * cfg.K)


def _sum_rates(cfg, snr_db, trial, h_hat, h_true, kfb_trace):
    """Per-trial zero-forcing sum rates (E, S); the data phase has the pilots' SNR."""
    h_est = np.swapaxes(h_hat, -1, -2)
    h_true = np.broadcast_to(np.swapaxes(h_true, -1, -2), h_est.shape)
    try:
        return achievable_rates(h_true, h_est, 10.0 ** (snr_db / 10.0)).sum_rate
    except RankDeficientError as err:
        message = _estimate_error("rank deficient", err.deficient, cfg, trial, snr_db)
        raise ValueError(message) from err


def _trial_means(cfg, metric):
    """Yields (snr_db, mean, stderr) over the trials of each SNR point.

    metric(cfg, snr_db, trial, h_hat, h_true, kfb_trace) maps one trial of
    _run_trials to a (labels, S) array; mean and stderr are (labels, S).
    """
    stats = TemporalStats([jakes_coefficient(v, cfg.f_c, cfg.t_slot) for v in cfg.speeds()])
    for snr_db in cfg.snr_db:
        trials = enumerate(_run_trials(cfg, snr_db, stats))
        per_trial = np.array([metric(cfg, snr_db, trial, *out) for trial, out in trials])
        stderr = np.zeros(per_trial.shape[1:])
        if len(per_trial) > 1:
            stderr = per_trial.std(axis=0, ddof=1) / np.sqrt(len(per_trial))
        yield float(snr_db), per_trial.mean(axis=0), stderr


def run_nmse_experiment(cfg):
    """NMSE curves for every configured estimator, one series entry per slot.

    The Kalman tracker additionally emits its covariance-trace curve under
    the kfb_theory label.
    """
    labels = list(cfg.estimators)
    if "kfb" in labels:
        labels.insert(labels.index("kfb") + 1, KFB_THEORY)
    return [
        NmseSeries(
            estimator=name,
            slot=i + 1,
            snr_db=snr_db,
            nmse_linear=float(mean[e, i]),
            nmse_db=float(10.0 * np.log10(mean[e, i])),
            stderr=float(stderr[e, i]),
        )
        for snr_db, mean, stderr in _trial_means(cfg, _nmse)
        for e, name in enumerate(labels)
        for i in range(cfg.slots)
    ]


def nmse_csv_rows(series, cfg):
    """Long-format rows: a linear and a dB entry per series point."""
    rows = []
    for s in series:
        db_stderr = (10.0 / np.log(10.0)) * s.stderr / s.nmse_linear if s.nmse_linear > 0 else 0.0
        point = ("nmse", s.estimator, s.slot, s.snr_db)
        rows += [
            CsvRow(*point, "nmse", s.nmse_linear, s.stderr, cfg.seed),
            CsvRow(*point, "nmse_db", s.nmse_db, db_stderr, cfg.seed),
        ]
    return rows


def run_rate_experiment(cfg):
    """Zero-forcing sum rates per estimator and slot.

    Pilot and data phases share the configured SNR point.
    """
    return [
        CsvRow(
            "rate", name, i + 1, snr_db, "sum_rate",
            float(mean[e, i]), float(stderr[e, i]), cfg.seed,
        )
        for snr_db, mean, stderr in _trial_means(cfg, _sum_rates)
        for e, name in enumerate(cfg.estimators)
        for i in range(cfg.slots)
    ]


def run_theory(cfg):
    """Closed-form NMSE recursion, its fixed point, and the scale bound."""
    eta = jakes_coefficient(cfg.speeds()[0], cfg.f_c, cfg.t_slot)
    rows = []
    for snr_db in cfg.snr_db:
        params = TheoryParams(K=cfg.K, rho=10.0 ** (snr_db / 10.0), eta=eta, alpha=cfg.tpe_alpha)
        m_pred, m_filt = nmse_recursion(params, cfg.slots)
        points = [(0, "gamma", fixed_point_gamma(params))]
        for i in range(cfg.slots):
            points.append((i + 1, "m_pred", m_pred[i]))
            points.append((i + 1, "m_filt", m_filt[i]))
            points.append((i + 1, "alpha_bound", alpha_upper_bound(params.beta, m_pred[i])))
        rows += [
            CsvRow("theory", "tpe", slot, float(snr_db), metric, float(value), 0.0, cfg.seed)
            for slot, metric, value in points
        ]
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
