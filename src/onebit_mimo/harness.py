"""Monte-Carlo experiment drivers and CSV emission.

Each trial owns independent random streams, so trial t is reproducible in
isolation and the trial loop is an order-indexed reduction: results would be
identical under any parallel schedule. None of a trial's draws depends on
the SNR point, so a run draws each trial once and estimates it at every
point. The nmse and rate experiments share one trial engine, _trial_means:
per chunk of trials it draws once (_draw_chunk) and then, at each point,
estimates (_estimate_chunk), which gives each trial's estimates as one
(estimators, slots, K, M) array with the true channels and the Kalman
tracker's error traces. NMSE and zero-forcing sum rates are array
reductions over a trial, and one mean and standard error over the trials
of a point gives the rows of both. A trial picks its frame once, from its
prior (estimators.user_frame): the estimators, their bins and the true
channels of the metrics are all in it, and nothing maps back, since the
frame's map Q is unitary on the antenna axis and both metrics are
invariant under it.

The pilots are always dft_pilots and the channel correlation is
block-diagonal over the users, so the whole trial works on per-user M x M
blocks and builds no n x n array: the channel is a (K, M) stack, and every
estimator runs on the exact per-user model of
quantization.build_per_user_model. Every estimator is a function of one
trial's slots (estimators.ls_estimates, blmmse_estimates,
kalman_estimates, tpe_estimates), and _estimate_chunk calls each configured
one by name, once, with all the slots. BLMMSE is the exact-gain tracker
with eta = 0, so blmmse and kfb share one per-trial
estimators.PerUserEigenbasis and its one measurement of all the slots.
The slots and the learned-correlation probes take one front end
(_user_bins).

The engine runs the trials in chunks of T, sized so that a (T, K, M, M)
complex stack stays within _CHUNK_BYTES, and walks the chunks once. A
chunk's draw stage runs once: each trial draws from its own streams, every
slot up front, in the order a one-trial loop drew them, its learned-
correlation probes are kept only as per-point sample Grams, and one pass
simulates the channels of all slots. The true correlations are
exponential, so the chunk stacks their (T, K, 2M - 1) lag vectors
(channel.ExponentialCorrelation) and draws through the shared real AR(1)
factor; no complex M x M stack of them is formed. With known correlation
the per-user models run on those lag vectors too, and the estimators in
the real frame that their type selects. Its estimate stage runs
once per SNR point over the (T, ...) stacks: one call each builds the
learned correlations, the per-user models and the eigenbasis, one pass
receives, quantizes and takes into the user bins every slot, the bins and
the true channels enter the frame once, and each estimator maps the
(T, S, K, M) bins of all slots to their estimates in one call. Each
trial's numbers come from elementwise arithmetic, per-matrix LAPACK calls
and per-block products of the same shapes at any T, so the CSV does not
depend on the chunk size, byte for byte.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (
    TemporalStats,
    _stack,
    apply_sqrt_factor,
    channel_trajectory,
    exponential_correlation,
    init_channel,
    jakes_coefficient,
    stack_correlation,
)
from .estimators import (
    TpeGain,
    blmmse_estimates,
    build_eigenbasis,
    gram_correlation,
    kalman_estimates,
    ls_estimates,
    sample_gram,
    tpe_estimates,
    user_frame,
)
from .quantization import (
    build_per_user_model,
    dft_pilots,
    one_bit_quantize,
    pilot_signal,
)
# The trial loop calls none of these: the dense references of the reference
# module stay bound here only because perfbench/tracing.py wraps them by
# their names in this module.
from .reference import (  # noqa: F401
    aggregate_correlation,
    blmmse_estimate,
    build_bussgang_model,
    evolve_channel,
    kfb_step,
    ls_estimate,
    quantize_pilot_slot,
    sample_correlation,
)
from .rate import achievable_rates
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


def _correlation_grams(cfg, points, corr_true, streams):
    """One trial's learned-correlation Grams at each SNR point, (P, K, M, M).

    Draws the probe channels from the true per-user stack corr_true, and
    their pilot noise, once. At each point's pilots they run through the
    slots' front end (_user_bins), and only the sample Gram of each user's
    bins is kept (estimators.sample_gram): the learned correlation of a
    point is its gram_correlation, whose unit diagonal cancels the bins'
    scale. The true correlation stays with the channel generator only.
    """
    count = cfg.sample_count
    g = complex_normal(streams.channel, (cfg.M * cfg.K, count))
    channels = apply_sqrt_factor(corr_true, g).reshape(g.shape)
    noise = complex_normal(streams.pilot_noise, (cfg.M * cfg.tau, count)).reshape(-1)
    # All count columns take one pilot product and one bin product; each
    # user's (M, count) bins, transposed, are its samples in rows.
    return _stack(
        [
            sample_gram(
                np.swapaxes(_user_bins(pilots, channels, noise).reshape(cfg.K, cfg.M, -1), -1, -2)
            )
            for pilots in points
        ]
    )


def _user_bins(pilots, h, noise):
    """The one-bit front end: the user bins of channels h in any layout pilot_signal takes."""
    return pilots.bins(one_bit_quantize(pilot_signal(h, pilots, noise)))


def _draw_chunk(cfg, points, stats, trials):
    """Everything random of a chunk's trials: corr, grams, h_true (T, S, K, M) and noise.

    Each trial first takes its streams, its correlation, its learned-
    correlation probes and its slot-0 channel, then draws the normals of
    all its slots; trial_streams and init_channel run once per trial, in
    trial order. corr stacks the true correlations' lag vectors
    (stack_correlation), (T, K, M, M) as matrices. With
    learned correlation, grams (P, T, K, M, M) holds the probes' sample
    Grams at each point of points (_correlation_grams), else it is None.
    The channels of all slots are one trajectory; noise (T, S, tau M) is
    their pilot noise.
    """
    grams = None
    if cfg.sample_count is not None:
        grams = np.empty((len(points), len(trials), cfg.K, cfg.M, cfg.M), dtype=complex)
    users, h0, g, noise = [], [], [], []
    for t, trial in enumerate(trials):
        streams = trial_streams(cfg.seed, trial)
        theta = streams.phases.uniform(0.0, 2.0 * np.pi, cfg.K)
        users.append(exponential_correlation(cfg.M, cfg.r_spatial, theta))
        if grams is not None:
            grams[:, t] = _correlation_grams(cfg, points, users[-1], streams)
        h0.append(init_channel(users[-1], streams.channel).h)
        g.append(complex_normal_sequence(streams.channel, cfg.slots, cfg.M * cfg.K))
        noise.append(complex_normal_sequence(streams.pilot_noise, cfg.slots, cfg.M * cfg.tau))
    corr = stack_correlation(users)
    h_true = channel_trajectory(_stack(h0), stats, corr, _stack(g))
    return corr, grams, h_true, _stack(noise)


def _estimate_chunk(cfg, pilots, stats, prior, h_true, noise):
    """One SNR point's h_hat (T, E, S, K, M), h_true and kfb_trace, in the trial's frame.

    Takes the frame of prior (T, K, M, M) once (estimators.user_frame) and
    builds the per-user model, and the eigenbasis if blmmse or kfb runs, in
    that frame. The slots are received, quantized and taken into their user
    bins in one pass over (T, S, ...), and into the frame once; each
    configured estimator then maps those bins to its estimates in one call,
    written into its row of h_hat, blmmse and kfb on one measurement of the
    basis. kfb's call returns kfb_trace (T, S); without kfb it is None.
    The true channels h_true are taken into the frame too and returned
    with the estimates: the metrics read both there.
    """
    form, into = user_frame(prior)
    model = build_per_user_model(pilots, prior)
    basis = None
    if "blmmse" in cfg.estimators or "kfb" in cfg.estimators:
        # The forms are passed on unnamed, so each goes once used.
        basis = build_eigenbasis(form(prior.matrix), model.gain, form(model.C_n_eff))

    # (T, S, K, M) user bins, each trial's slots in order.
    bins = into(_user_bins(pilots, h_true, noise))
    shape = h_true.shape
    h_hat = np.empty((shape[0], len(cfg.estimators)) + shape[1:], dtype=complex)
    out = {name: h_hat[:, e] for e, name in enumerate(cfg.estimators)}
    if "ls" in out:
        ls_estimates(pilots, bins, out["ls"])
    if "tpe" in out:
        tpe_estimates(
            form(prior.matrix), model.gain, form(model.C_n_eff), stats.eta,
            TpeGain(cfg.tpe_order, cfg.tpe_alpha), bins, out["tpe"],
        )
    kfb_trace = None
    if basis is not None:
        # The trackers run last, so their measurement and all-slot stacks are
        # not held through TPE's steps.
        measured = basis.measure(bins)
        if "blmmse" in out:
            blmmse_estimates(basis, measured, out["blmmse"])
        if "kfb" in out:
            kfb_trace = kalman_estimates(basis, stats.eta, measured, out["kfb"])
    # The truth enters the frame last, so it is not held through the trackers' stacks.
    return h_hat, into(h_true), kfb_trace


def _nmse(cfg, snr_db, h_hat, h_true, kfb_trace):
    """Per-trial NMSE (T, labels, S): each estimator's, and kfb_theory's after kfb."""
    errors = np.sum(np.abs(h_hat - h_true[:, None]) ** 2, axis=(-2, -1))
    if "kfb" in cfg.estimators:
        errors = np.insert(errors, cfg.estimators.index("kfb") + 1, kfb_trace, axis=1)
    return errors / (cfg.M * cfg.K)


def _sum_rates(cfg, snr_db, h_hat, h_true, kfb_trace):
    """Per-trial zero-forcing sum rates (T, E, S); the data phase has the pilots' SNR."""
    h_est = np.swapaxes(h_hat, -1, -2)
    h_true = np.broadcast_to(np.swapaxes(h_true, -1, -2)[:, None], h_est.shape)
    return achievable_rates(h_true, h_est, 10.0 ** (snr_db / 10.0)).sum_rate


def _chunk_metric(cfg, metric, snr_db, trials, h_hat, h_true, kfb_trace):
    """metric over a chunk's trials at one point, (T, labels, S).

    A non-finite estimate raises FloatingPointError naming the estimator,
    slot, lowest such trial and SNR point, as a one-trial loop would meet
    it, so no diverged result is written.
    """
    # (T, S, E): the first row of argwhere is the lowest trial, then slot, then estimator.
    bad = np.argwhere(~np.isfinite(h_hat).all(axis=(-2, -1)).swapaxes(1, 2))
    if bad.size:
        t, i, e = bad[0]
        where = f"slot {i + 1}, trial {trials[t]}, snr {snr_db} dB"
        raise FloatingPointError(f"{cfg.estimators[e]} estimate is not finite at {where}")
    return metric(cfg, snr_db, h_hat, h_true, kfb_trace)


def _trial_means(cfg, metric):
    """Yields (snr_db, mean, stderr) over the trials of each SNR point, in order.

    Each chunk of trials is drawn once (_draw_chunk) and estimated at each
    point in order (_estimate_chunk). metric(cfg, snr_db, h_hat, h_true,
    kfb_trace) maps the chunk's trials at one point, h_hat and h_true in
    their frame, to a (T, labels, S) array; mean and stderr are (labels, S).

    A point fails on a non-finite estimate (_chunk_metric) or a LinAlgError
    of the estimate stage. Errors are reported as a point-by-point loop
    over the trials would meet them: the lowest failing point, and for a
    non-finite estimate its lowest failing trial. So once a point fails,
    the later chunks run only the points below it, and the run raises when
    none is left or the chunks are done.
    """
    stats = TemporalStats([jakes_coefficient(v, cfg.f_c, cfg.t_slot) for v in cfg.speeds()])
    # perfbench/tracing.py counts a point per dft_pilots call and pairs each
    # trial's trial_streams with its init_channel within one point, so every
    # point's pilots are built before any trial is drawn.
    points = [dft_pilots(cfg.tau, cfg.K).with_rho(10.0 ** (snr_db / 10.0)) for snr_db in cfg.snr_db]
    per_trial = [[] for _ in points]
    failed, error = len(points), None
    size = _chunk_size(cfg)
    for first in range(0, cfg.trials, size):
        if failed == 0:
            break
        trials = range(first, min(first + size, cfg.trials))
        corr, grams, h_true, noise = _draw_chunk(cfg, points[:failed], stats, trials)
        for p in range(failed):
            try:
                prior = corr if grams is None else gram_correlation(grams[p])
                estimated = _estimate_chunk(cfg, points[p], stats, prior, h_true, noise)
                chunk = _chunk_metric(cfg, metric, cfg.snr_db[p], trials, *estimated)
                per_trial[p].append(chunk)
            except (ValueError, ArithmeticError) as err:
                failed, error = p, err
                break
        # Drop this chunk's arrays before the next draw, so memory holds one chunk at a time.
        corr = grams = h_true = noise = prior = estimated = None
    if error is not None:
        raise error
    for snr_db, values in zip(cfg.snr_db, per_trial):
        values = np.concatenate(values)
        stderr = np.zeros(values.shape[1:])
        if len(values) > 1:
            stderr = values.std(axis=0, ddof=1) / np.sqrt(len(values))
        yield float(snr_db), values.mean(axis=0), stderr


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
