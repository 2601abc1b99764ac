import ast
import csv
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebit_mimo import (
    CSV_HEADER,
    KFB_THEORY,
    PerUserEigenbasis,
    QuantizedObservation,
    TemporalStats,
    aggregate_correlation,
    build_bussgang_model,
    build_eigenbasis,
    complex_normal,
    default_config,
    dft_pilots,
    evolve_channel,
    exponential_correlation,
    init_channel,
    jakes_coefficient,
    kfb_init,
    kfb_step,
    ls_estimate,
    ls_estimates,
    nmse_csv_rows,
    parse_config,
    quantize_pilot_slot,
    run_nmse_experiment,
    run_rate_experiment,
    run_theory,
    stream_rng,
    trial_streams,
    user_frame,
    write_csv,
)
from onebit_mimo import harness, linalg, reference
from onebit_mimo.channel import ExponentialCorrelation, apply_sqrt_factor
from onebit_mimo.cli import main

REPO = Path(__file__).resolve().parents[1]

# The dense layer: every public name that the reference module defines.
REFERENCE_NAMES = {
    name
    for name, value in vars(reference).items()
    if not name.startswith("_") and getattr(value, "__module__", None) == reference.__name__
}


def tiny_config(**kwargs):
    text = "\n".join(f"{k} = {v}" for k, v in kwargs.items())
    return parse_config(text, base=default_config())


TINY = dict(
    M=2, K=1, tau=1, slots=3, trials=4, r_spatial=0.3,
    estimators="[ls, blmmse, kfb, tpe]", snr_db="[-5]",
)


def tiny_nmse_config(**overrides):
    return tiny_config(**{**TINY, **overrides})


class TestStreams:
    def test_replay_is_exact(self):
        a = stream_rng(3, 7, "channel").standard_normal(5)
        b = stream_rng(3, 7, "channel").standard_normal(5)
        assert_allclose(a, b)

    def test_streams_differ(self):
        s = trial_streams(0, 0)
        draws = [g.standard_normal(4) for g in (s.channel, s.pilot_noise, s.phases)]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.allclose(draws[i], draws[j])

    def test_trials_differ(self):
        a = stream_rng(0, 0, "channel").standard_normal(4)
        b = stream_rng(0, 1, "channel").standard_normal(4)
        assert not np.allclose(a, b)

    def test_unknown_stream(self):
        with pytest.raises(ValueError):
            stream_rng(0, 0, "weather")


class TestNmseExperiment:
    def test_series_layout(self):
        series = run_nmse_experiment(tiny_config(**TINY))
        # four estimators plus the tracker's covariance curve, per slot
        assert len(series) == 5 * 3
        names = {s.estimator for s in series}
        assert names == {"ls", "blmmse", "kfb", "tpe", KFB_THEORY}
        assert {s.slot for s in series} == {1, 2, 3}
        for s in series:
            assert s.nmse_linear > 0 and np.isfinite(s.nmse_db)
            assert s.snr_db == -5.0

    def test_bitwise_reproducible(self):
        cfg = tiny_config(**TINY)
        assert run_nmse_experiment(cfg) == run_nmse_experiment(cfg)

    def test_seed_changes_results(self):
        base = run_nmse_experiment(tiny_config(**TINY))
        moved = run_nmse_experiment(tiny_nmse_config(seed=1))
        assert any(a.nmse_linear != b.nmse_linear for a, b in zip(base, moved))

    def test_covariance_curve_tracks_kfb(self):
        series = run_nmse_experiment(tiny_nmse_config(trials=64))
        kfb = {s.slot: s.nmse_linear for s in series if s.estimator == "kfb"}
        ideal = {s.slot: s.nmse_linear for s in series if s.estimator == KFB_THEORY}
        for slot in kfb:
            assert 0.3 < kfb[slot] / ideal[slot] < 3.0

    def test_single_trial_has_no_spread(self):
        series = run_nmse_experiment(tiny_nmse_config(trials=1))
        assert all(s.stderr == 0.0 for s in series)

    @pytest.mark.parametrize("estimators,builds", [("[blmmse, kfb]", 4), ("[ls, tpe]", 0)])
    def test_one_eigenbasis_per_trial(self, monkeypatch, estimators, builds):
        """blmmse and kfb share one eigenbasis per trial; ls and tpe need none.

        A build covers the trials of a chunk, its leading axis, so the count
        is of trials covered: it would double if blmmse and kfb each built
        their own basis.
        """
        covered = []

        def counting(corr, gain, noise):
            covered.append(corr.shape[0])
            return build_eigenbasis(corr, gain, noise)

        monkeypatch.setattr(harness, "build_eigenbasis", counting)
        run_nmse_experiment(tiny_nmse_config(estimators=estimators))
        assert sum(covered) == builds

    def test_one_measurement_per_slot_for_both_trackers(self, monkeypatch):
        """blmmse and kfb take one G r of their shared basis for all the slots of a chunk.

        The count is of trials covered per chunk and point: it would double
        if each tracker took its own product, and grow with the slots if a
        product took one slot.
        """
        measure, covered = PerUserEigenbasis.measure, []

        def counting(basis, bins):
            covered.append(bins.shape[0])
            return measure(basis, bins)

        monkeypatch.setattr(PerUserEigenbasis, "measure", counting)
        cfg = tiny_nmse_config(estimators="[blmmse, kfb]", snr_db="[-5, 5]")
        run_nmse_experiment(cfg)
        assert sum(covered) == cfg.trials * len(cfg.snr_db)

    def test_basis_products_do_not_grow_with_slots(self, monkeypatch):
        """Per chunk and point: one measurement, and one estimate product per tracker.

        The counts are the same at 2 slots as at 10.
        """
        counts = []
        for slots in (2, 10):
            cfg = tiny_nmse_config(estimators="[blmmse, kfb]", slots=slots, trials=5)
            chunk_trials(monkeypatch, cfg, 2)
            calls = {"measure": [], "estimates": []}
            for name, record in calls.items():
                method = getattr(PerUserEigenbasis, name)
                monkeypatch.setattr(
                    PerUserEigenbasis, name, TestChunkedEngine.recording(method, record)
                )
            run_nmse_experiment(cfg)
            monkeypatch.undo()
            counts.append({name: len(record) for name, record in calls.items()})
        # Chunks of 2, 2 and 1 trials.
        assert counts[0] == counts[1] == {"measure": 3, "estimates": 6}

    # Bound in harness only for perfbench/tracing.py; a run calls none of them.
    TRACER_ONLY = tuple(sorted(REFERENCE_NAMES & set(vars(harness))))

    def test_trial_loop_builds_no_dense_correlation(self, monkeypatch):
        """Known and learned correlation both run on per-user stacks alone.

        No nmse or rate run calls a dense reference, the dense LS or a
        pseudo-inverse, or takes a square root of a correlation apart from
        the one its generator applies. No run forms the dense factor of an
        exponential correlation: the draw applies it from its lags.
        """

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"the trial loop called {name}")

            return call

        for name in self.TRACER_ONLY:
            monkeypatch.setattr(harness, name, forbidden(name))
        monkeypatch.setattr(np.linalg, "pinv", forbidden("np.linalg.pinv"))
        monkeypatch.setattr(
            ExponentialCorrelation, "sqrt_factor", property(forbidden("a dense sqrt_factor"))
        )
        for name in REFERENCE_NAMES:
            monkeypatch.setattr(reference, name, forbidden(name))
        for knowledge in ("true", "sampled(40)"):
            shape = dict(
                M=4, K=2, tau=2, slots=2, trials=2, r_spatial=0.3, snr_db="[0]",
                estimators="[ls, blmmse, kfb, tpe]", correlation_knowledge=knowledge,
            )
            series = run_nmse_experiment(tiny_config(**shape))
            assert all(np.isfinite(s.nmse_db) for s in series)
            rows = run_rate_experiment(tiny_config(**shape, mode="rate"))
            assert all(np.isfinite(r.value) for r in rows)

    @pytest.mark.parametrize("knowledge", ["true", "sampled(40)"])
    def test_one_eigh_per_chunk_and_point(self, monkeypatch, knowledge):
        """The eigenbasis is a run's only eigh: gram_correlation factors nothing.

        Five trials in chunks of 2, 2 and 1 at two SNR points take six.
        """
        cfg = tiny_config(
            M=4, K=2, tau=2, slots=2, trials=5, snr_db="[0, 10]",
            estimators="[ls, blmmse, kfb, tpe]", correlation_knowledge=knowledge,
        )
        chunk_trials(monkeypatch, cfg, 2)
        calls = []
        monkeypatch.setattr(
            np.linalg, "eigh", TestChunkedEngine.recording(np.linalg.eigh, calls)
        )
        run_nmse_experiment(cfg)
        assert len(calls) == 3 * len(cfg.snr_db)

    def test_correlation_probes_equal_dense_ls(self, monkeypatch):
        """gram_correlation of a trial's Grams is sample_correlation of ls_estimate's probes.

        The probes take the slots' front end and keep their raw user bins:
        the unit diagonal cancels LS's scale. Their quantized block is that
        of the dense pilot product on the channels and noise, drawn in order.
        """
        cfg = tiny_config(M=4, K=3, tau=5, correlation_knowledge="sampled(30)")
        pilots = dft_pilots(cfg.tau, cfg.K).with_rho(10.0 ** 0.7)
        corr = exponential_correlation(cfg.M, 0.6, np.array([0.2, 1.9, 4.0]))
        quantize, quantized = harness.one_bit_quantize, []

        def recording(y):
            quantized.append(quantize(y))
            return quantized[-1]

        monkeypatch.setattr(harness, "one_bit_quantize", recording)
        grams = harness._correlation_grams(cfg, [pilots], corr, trial_streams(0, 0))
        assert grams.shape == (1, 3, 4, 4)
        # The (tau M, count) block, one probe a column, as the dense layer takes it.
        block = quantized[0].reshape(20, 30)
        streams = trial_streams(0, 0)
        channels = apply_sqrt_factor(corr, complex_normal(streams.channel, (12, 30)))
        noise = complex_normal(streams.pilot_noise, (20, 30))
        analog = pilots.phi_bar(cfg.M) @ channels.reshape(12, 30) + noise
        assert np.array_equal(block, quantize(analog))
        probes = ls_estimate(QuantizedObservation(slot=0, r=block), pilots)
        # (K, count, M): each user's probes in rows.
        dense = reference.sample_correlation(np.swapaxes(probes.reshape(3, 4, 30), -1, -2))
        learned = harness.gram_correlation(grams[0])
        assert_allclose(learned.matrix, dense.matrix, rtol=0, atol=1e-12)

    def test_correlation_probes_equal_slot_ls(self):
        """The probes' Grams are those of the slot path's bins; their prior, that of its LS.

        The probes take all their columns in one pilot product; the slots
        take a (K, M) channel per product. Same channels and noise, same bins.
        """
        cfg = tiny_config(M=16, K=4, tau=4, correlation_knowledge="sampled(30)")
        pilots = dft_pilots(cfg.tau, cfg.K).with_rho(10.0 ** 0.5)
        corr = exponential_correlation(cfg.M, 0.5, np.array([0.3, 1.2, 2.6, 5.0]))
        grams = harness._correlation_grams(cfg, [pilots], corr, trial_streams(3, 0))
        streams = trial_streams(3, 0)
        channels = apply_sqrt_factor(corr, complex_normal(streams.channel, (64, 30)))
        noise = complex_normal(streams.pilot_noise, (64, 30))
        # The 30 columns as one trial's 30 slots, (T, S, K, M) with noise (T, S, tau M).
        h = np.swapaxes(channels.reshape(64, 30), 0, 1).reshape(1, 30, 4, 16)
        bins = harness._user_bins(pilots, h, np.swapaxes(noise, 0, 1).reshape(1, 30, 64))
        # (S, K, M) slots as (K, S, M): each user's samples in rows.
        assert_allclose(
            grams[0], harness.sample_gram(np.swapaxes(bins[0], 0, 1)), rtol=0, atol=1e-12
        )
        slots = np.swapaxes(ls_estimates(pilots, bins[0]), 0, 1)
        learned = harness.gram_correlation(grams[0])
        assert_allclose(
            learned.matrix, reference.sample_correlation(slots).matrix, rtol=0, atol=1e-12
        )

    def test_learned_correlation_runs(self):
        known = run_nmse_experiment(tiny_nmse_config(trials=2))
        learned = run_nmse_experiment(
            tiny_nmse_config(trials=2, correlation_knowledge="sampled(40)")
        )
        pairs = [
            (a, b) for a, b in zip(known, learned)
            if a.estimator not in ("ls", KFB_THEORY)
        ]
        assert any(a.nmse_linear != b.nmse_linear for a, b in pairs)

    def test_distinct_speeds_run_kalman_steps(self):
        """Users at different speeds: kfb rows equal a direct kfb_init/kfb_step loop."""
        cfg = tiny_config(
            M=3, K=2, tau=2, slots=4, trials=3, r_spatial=0.5, snr_db="[0]",
            user_speeds_kmh="[3, 30]", estimators="[kfb]",
        )
        stats = TemporalStats(
            np.array([jakes_coefficient(v, cfg.f_c, cfg.t_slot) for v in cfg.speeds()])
        )
        assert stats.eta[0] != stats.eta[1]
        pilots = dft_pilots(cfg.tau, cfg.K).with_rho(1.0)
        n = cfg.M * cfg.K
        nmse = np.zeros((cfg.trials, cfg.slots))
        ideal = np.zeros((cfg.trials, cfg.slots))
        for trial in range(cfg.trials):
            streams = trial_streams(cfg.seed, trial)
            theta = streams.phases.uniform(0.0, 2.0 * np.pi, cfg.K)
            corr = aggregate_correlation(
                [exponential_correlation(cfg.M, cfg.r_spatial, th) for th in theta]
            )
            model = build_bussgang_model(pilots, corr)
            state = kfb_init(corr, stats)
            chan = init_channel(corr, streams.channel)
            for i in range(cfg.slots):
                chan = evolve_channel(chan, stats, corr, streams.channel)
                obs = quantize_pilot_slot(chan, pilots, model, streams.pilot_noise)
                state = kfb_step(state, obs)
                nmse[trial, i] = np.linalg.norm(state.h_hat - chan.h) ** 2 / n
                ideal[trial, i] = np.real(np.trace(state.M_filt)) / n
        series = run_nmse_experiment(cfg)
        for name, expected in (("kfb", nmse), (KFB_THEORY, ideal)):
            rows = sorted((s.slot, s.nmse_linear) for s in series if s.estimator == name)
            assert_allclose([v for _, v in rows], expected.mean(axis=0), rtol=1e-12)


@pytest.mark.parametrize("n_antennas", [4, 5])
def test_metrics_read_the_same_values_in_the_real_frame(n_antennas):
    """_nmse and _sum_rates of a pair taken into the real frame equal its antenna-frame values.

    The frame's Q is unitary on the antenna axis, so ||h_hat - h||^2 and
    the zero-forcing rates do not depend on it, within 1e-12, also for a
    rank-deficient estimate: user 1 of one member is -j times user 0.
    """
    cfg = tiny_config(M=n_antennas, K=2, tau=2, slots=3, estimators="[ls, blmmse, kfb, tpe]")
    rng = np.random.default_rng(n_antennas)
    shape = (3, len(cfg.estimators), cfg.slots, cfg.K, cfg.M)
    h_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h_hat[0, 2, 1, 1] = -1j * h_hat[0, 2, 1, 0]
    assert np.linalg.matrix_rank(h_hat[0, 2, 1]) == 1
    truth = shape[:1] + shape[2:]
    h_true = rng.standard_normal(truth) + 1j * rng.standard_normal(truth)
    kfb_trace = rng.uniform(size=truth[:2])
    _, into = user_frame(exponential_correlation(cfg.M, cfg.r_spatial, np.zeros(cfg.K)))
    for metric in (harness._nmse, harness._sum_rates):
        antenna = metric(cfg, 10.0, h_hat, h_true, kfb_trace)
        framed = metric(cfg, 10.0, into(h_hat), into(h_true), kfb_trace)
        assert np.all(np.isfinite(antenna))
        assert_allclose(framed, antenna, rtol=1e-12, atol=0)


def chunk_trials(monkeypatch, cfg, size):
    """Make the engine run size trials per chunk for cfg."""
    monkeypatch.setattr(harness, "_CHUNK_BYTES", size * 16 * cfg.K * cfg.M**2)


class TestChunkedEngine:
    """The trial-batched engine: bytes independent of the chunk size, errors by trial."""

    NMSE = dict(
        M=4, K=2, tau=2, slots=3, trials=16, snr_db="[0]", user_speeds_kmh="[3, 30]",
        estimators="[ls, blmmse, kfb, tpe]", correlation_knowledge="sampled(40)",
        **{"tpe.alpha": 1.38},
    )
    RATE = dict(NMSE, M=8, mode="rate", snr_db="[0, 10]", **{"tpe.alpha": 1.09})
    # Known correlation at an odd M: the eigenbasis on (T, K, M, M) real stacks.
    KNOWN = dict(NMSE, M=5, correlation_knowledge="true", **{"tpe.alpha": 1.2})
    # The exact-gain trackers alone in the real frame, at an odd M.
    KNOWN_TRACKERS = dict(
        M=7, K=2, tau=2, slots=3, trials=16, estimators="[blmmse, kfb]",
        correlation_knowledge="true",
    )
    # Known correlation at tau = 3: Bussgang lag 2 is the mirrored lag 1 (at
    # tau = 2 no lag is mirrored), and the L_0 products and stacked lag
    # vectors span chunks.
    KNOWN_ODD_TAU = dict(
        M=6, K=2, tau=3, slots=3, trials=16, estimators="[blmmse, kfb, tpe]",
        correlation_knowledge="true", **{"tpe.alpha": 0.45},
    )
    # Known correlation so near 1 that the real form Q^H R Q has no Cholesky
    # factor: the eigenbasis runs on it all the same, since it factors only C_n_eff.
    NEAR_SINGULAR = dict(
        M=32, K=2, tau=2, slots=3, trials=16, estimators="[blmmse, kfb]",
        correlation_knowledge="true", r_spatial=0.999999999999999,
    )
    # One-bit estimates at M = 4: 7 of the 720 rated members are rank deficient.
    SMALL_M = dict(M=4, K=2, tau=2, slots=3, trials=40, mode="rate", estimators="[blmmse, kfb]")
    # The first-failure cases: 4 trials at two SNR points.
    SMALL = dict(M=4, K=2, tau=2, slots=3, trials=4, snr_db="[0, 10]")
    POINTS = "[-5, 5, 20]"

    def csv_text(self, cfg, path):
        if cfg.mode == "rate":
            return write_csv(run_rate_experiment(cfg), path)
        return write_csv(nmse_csv_rows(run_nmse_experiment(cfg), cfg), path)

    @pytest.mark.parametrize(
        "mode",
        ["nmse", "rate", "known", "known_trackers", "known_odd_tau", "near_singular", "small_m"],
    )
    def test_csv_bytes_do_not_depend_on_chunk_size(self, monkeypatch, tmp_path, mode):
        """Chunks of 1, 7 and all trials write the same CSV text, at three SNR points."""
        shape = {
            "nmse": self.NMSE, "rate": self.RATE, "known": self.KNOWN,
            "known_trackers": self.KNOWN_TRACKERS, "known_odd_tau": self.KNOWN_ODD_TAU,
            "near_singular": self.NEAR_SINGULAR, "small_m": self.SMALL_M,
        }[mode]
        cfg = tiny_config(**dict(shape, snr_db=self.POINTS))
        texts = []
        for size in (1, 7, cfg.trials):
            chunk_trials(monkeypatch, cfg, size)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                texts.append(self.csv_text(cfg, tmp_path / f"{size}.csv"))
            if "tpe" in cfg.estimators:
                # tpe.alpha clamps some trials but not all.
                assert 0 < len(caught) < cfg.trials * len(cfg.snr_db)
            else:
                assert not caught
        assert texts[1] == texts[0] and texts[2] == texts[0]

    @pytest.mark.filterwarnings("ignore:tpe.alpha:RuntimeWarning")
    @pytest.mark.parametrize("mode", ["nmse", "rate"])
    def test_each_point_equals_its_single_point_run(self, tmp_path, mode):
        """A point's rows of a three-point run are, byte for byte, its one-point run's rows."""
        shape = dict(self.NMSE if mode == "nmse" else self.RATE, trials=6)
        cfg = tiny_config(**dict(shape, snr_db=self.POINTS))
        lines = self.csv_text(cfg, tmp_path / "all.csv").splitlines()
        for snr_db in (-5.0, 5.0, 20.0):
            cfg = tiny_config(**dict(shape, snr_db=f"[{snr_db}]"))
            single = self.csv_text(cfg, tmp_path / f"{snr_db}.csv").splitlines()
            rows = [line for line in lines[1:] if line.split(",")[3] == repr(snr_db)]
            assert len(single) > 1 and rows == single[1:]

    @pytest.mark.filterwarnings("ignore:tpe.alpha:RuntimeWarning")
    @pytest.mark.parametrize("knowledge", ["true", "sampled(40)"])
    def test_rows_do_not_depend_on_the_estimators_order(self, tmp_path, knowledge):
        """Each estimator's rows, kfb_theory's too, are the same bits in either order.

        The harness runs each estimator by its name, not its position in
        estimators.
        """
        rows = []
        for order in ("[tpe, kfb, ls, blmmse]", "[ls, blmmse, kfb, tpe]"):
            shape = dict(self.NMSE, correlation_knowledge=knowledge, estimators=order)
            cfg = tiny_config(**dict(shape, snr_db=self.POINTS))
            rows.append(sorted(self.csv_text(cfg, tmp_path / "out.csv").splitlines()[1:]))
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("mode", ["nmse", "rate"])
    @pytest.mark.parametrize("knowledge", ["true", "sampled(40)"])
    def test_trials_are_drawn_once_per_run(self, monkeypatch, mode, knowledge):
        """Three SNR points: each trial's streams, correlation and slot-0 channel once, in order."""
        cfg = tiny_config(
            M=16, K=2, tau=2, slots=2, trials=5, snr_db=self.POINTS, mode=mode,
            estimators="[ls, blmmse, kfb]", correlation_knowledge=knowledge,
        )
        chunk_trials(monkeypatch, cfg, 2)
        calls = {"trial_streams": [], "exponential_correlation": [], "init_channel": []}
        for name, record in calls.items():
            monkeypatch.setattr(harness, name, self.recording(getattr(harness, name), record))
        run = run_rate_experiment if mode == "rate" else run_nmse_experiment
        run(cfg)
        assert [args[1] for args in calls["trial_streams"]] == list(range(cfg.trials))
        assert len(calls["exponential_correlation"]) == cfg.trials
        assert len(calls["init_channel"]) == cfg.trials

    @staticmethod
    def recording(fn, record):
        def call(*args):
            record.append(args)
            return fn(*args)

        return call

    def inject_at_points(self, monkeypatch, at):
        """Estimator 0 at each (snr_db, trial) of at gives its value from its slot on.

        at maps (snr_db, trial) to (first slot, value).
        """
        draw_chunk, estimate_chunk, first = harness._draw_chunk, harness._estimate_chunk, []

        def drawn(cfg, points, stats, trials):
            first.append(trials[0])
            return draw_chunk(cfg, points, stats, trials)

        def injected(cfg, pilots, *draws):
            h_hat, h_true, kfb_trace = estimate_chunk(cfg, pilots, *draws)
            snr_db = round(10.0 * np.log10(pilots.rho))
            for t in range(len(h_hat)):
                if (snr_db, first[-1] + t) in at:
                    slot, value = at[snr_db, first[-1] + t]
                    h_hat[t, 0, slot - 1 :] = value
            return h_hat, h_true, kfb_trace

        monkeypatch.setattr(harness, "_draw_chunk", drawn)
        monkeypatch.setattr(harness, "_estimate_chunk", injected)

    @pytest.mark.parametrize("size", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["nmse", "rate"])
    def test_lowest_failing_point_is_reported(self, monkeypatch, mode, size):
        """10 dB fails at trial 0, 0 dB only at trial 3: the 0 dB failure is named at any chunk size."""
        cfg = tiny_config(**self.SMALL, mode=mode, estimators="[ls, blmmse]")
        chunk_trials(monkeypatch, cfg, size)
        self.inject_at_points(monkeypatch, {(10, 0): (1, np.nan), (0, 3): (2, np.nan)})
        run = run_rate_experiment if mode == "rate" else run_nmse_experiment
        with pytest.raises(
            FloatingPointError, match="ls estimate is not finite at slot 2, trial 3, snr 0.0 dB"
        ):
            run(cfg)

    def inject(self, monkeypatch, name, value, first_slot):
        """harness.name's estimates at trial t of the chunk become value from slot first_slot[t].

        name is an estimator function, which the harness calls with out,
        the estimates, as its last argument.
        """
        estimates = getattr(harness, name)

        def injected(*args):
            result = estimates(*args)
            for trial, slot in first_slot.items():
                args[-1][trial, slot - 1 :] = value
            return result

        monkeypatch.setattr(harness, name, injected)

    @pytest.mark.parametrize(
        "first_slot,where", [({5: 2}, "slot 2, trial 5"), ({5: 3, 6: 1}, "slot 3, trial 5")]
    )
    def test_non_finite_estimate_names_its_trial(self, monkeypatch, first_slot, where):
        """Trial 5 of a 7-trial chunk; with two, the lower trial, as a one-trial loop."""
        cfg = tiny_config(M=4, K=2, tau=2, slots=3, trials=7, estimators="[blmmse, kfb, tpe]")
        chunk_trials(monkeypatch, cfg, 7)
        self.inject(monkeypatch, "tpe_estimates", np.nan, first_slot)
        with pytest.raises(FloatingPointError, match=f"tpe estimate is not finite at {where},"):
            run_nmse_experiment(cfg)

    def test_slots_are_quantized_once_per_chunk(self, monkeypatch):
        """One pass over a chunk's slots: 16 trials in chunks of 7 quantize 3 times."""
        shape = dict(self.NMSE, correlation_knowledge="true", estimators="[ls, kfb]")
        cfg = tiny_config(**shape)
        chunk_trials(monkeypatch, cfg, 7)
        quantize, shapes = harness.one_bit_quantize, []

        def counting(y):
            shapes.append(y.shape)
            return quantize(y)

        monkeypatch.setattr(harness, "one_bit_quantize", counting)
        run_nmse_experiment(cfg)
        slots = (cfg.slots, cfg.tau * cfg.M)
        assert shapes == [(7,) + slots, (7,) + slots, (2,) + slots]

    def test_no_general_inverse_of_a_user_block(self, monkeypatch):
        """At M = 33 the eigenbasis inverts only diagonal blocks of its triangular factor."""
        inverse, sizes = np.linalg.inv, []

        def recording(a):
            sizes.append(np.shape(a)[-1])
            return inverse(a)

        monkeypatch.setattr(np.linalg, "inv", recording)
        run_nmse_experiment(tiny_config(M=33, K=2, tau=2, slots=2, trials=2, snr_db="[0]"))
        assert sizes and max(sizes) <= linalg._INVERSE_BLOCK

    def test_default_chunk_adds_little_peak_memory(self, monkeypatch):
        """small_sweep_rate's shape: default chunks of 4 trials against one at a time.

        peak_rss_mb is a gated benchmark metric; a budget that raises the
        traced peak by 1.5 MB or more fails here first.
        """
        cfg = parse_config(
            (REPO / "perfbench" / "small_sweep_rate.cfg").read_text(encoding="utf-8"),
            base=default_config(mode="rate"),
            overrides={"trials": 8, "snr_db": [5]},
        )
        assert harness._chunk_size(cfg) == 4
        peaks = []
        for budget in (harness._CHUNK_BYTES, 0):
            monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
            tracemalloc.start()
            try:
                run_rate_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] - peaks[1] < 1.5e6

    # Ceilings on the traced peak, measured with numpy 2.4: small_sweep_rate's
    # about 19% above its 1.626 MB (set at 1.749 MB), the paper and fast runs'
    # about 5% above their 5.665 MB and 0.705 MB. Keeping a chunk's arrays
    # through the next draw raised the first to 2.29 MB; a dense copy of the
    # Toeplitz C_n_eff stack raises the others to 7.73 MB and 0.83 MB.
    PEAK_CEILINGS = {"small_sweep_rate": 1.93e6, "paper": 5.95e6, "fast": 0.74e6}

    @pytest.mark.parametrize("run", sorted(PEAK_CEILINGS))
    def test_engine_peak_memory_stays_under_its_ceiling(self, run):
        """The traced peak of a whole run stays under its ceiling.

        The runs: 8 small_sweep_rate trials (two chunks, three points), one
        paper-profile nmse trial, and 10 fast-profile nmse trials.

        peak_rss_mb is a gated benchmark metric, and every run reaches its
        peak in the engine's own arrays.
        """
        if run in ("paper", "fast"):
            trials = 1 if run == "paper" else 10
            cfg = parse_config(f"trials = {trials}\n", base=default_config(profile=run))
            experiment = run_nmse_experiment
        else:
            cfg = parse_config(
                (REPO / "perfbench" / "small_sweep_rate.cfg").read_text(encoding="utf-8"),
                base=default_config(mode="rate"),
                overrides={"trials": 8},
            )
            experiment = run_rate_experiment
        experiment(cfg)
        tracemalloc.start()
        try:
            experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_CEILINGS[run]


class TestCsvRows:
    def test_two_rows_per_point(self):
        cfg = tiny_config(**TINY)
        series = run_nmse_experiment(cfg)
        rows = nmse_csv_rows(series, cfg)
        assert len(rows) == 2 * len(series)
        metrics = {r.metric for r in rows}
        assert metrics == {"nmse", "nmse_db"}
        linear = [r for r in rows if r.metric == "nmse"]
        db = [r for r in rows if r.metric == "nmse_db"]
        for lin, logd in zip(linear, db):
            assert_allclose(logd.value, 10.0 * np.log10(lin.value), rtol=1e-12)

    def test_rate_rows(self):
        cfg = tiny_config(M=4, K=2, tau=2, slots=2, trials=3, r_spatial=0.3,
                          estimators="[blmmse, kfb]", snr_db="[0, 10]", mode="rate")
        rows = run_rate_experiment(cfg)
        assert len(rows) == 2 * 2 * 2
        assert all(r.metric == "sum_rate" and r.value > 0 for r in rows)
        assert {r.snr_db for r in rows} == {0.0, 10.0}

    def test_theory_rows(self):
        cfg = tiny_config(mode="theory", slots=2, **{"tpe.alpha": 1.0})
        rows = run_theory(cfg)
        gamma = [r for r in rows if r.metric == "gamma"]
        assert len(gamma) == 1 and gamma[0].slot == 0
        m_filt = {r.slot: r.value for r in rows if r.metric == "m_filt"}
        # first filtered value at alpha = 1 equals the single-shot floor
        assert_allclose(m_filt[1], 0.5437348600353822, rtol=1e-12)
        bounds = [r.value for r in rows if r.metric == "alpha_bound"]
        assert len(bounds) == 2 and all(b >= 2.0 for b in bounds)


class TestCsvWriter:
    def test_header_and_parseability(self, tmp_path):
        cfg = tiny_nmse_config(trials=2)
        rows = nmse_csv_rows(run_nmse_experiment(cfg), cfg)
        out = tmp_path / "nmse.csv"
        text = write_csv(rows, out)
        assert out.read_text(encoding="utf-8") == text
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            float(fields[3]); float(fields[5]); float(fields[6])
            int(fields[2]); int(fields[7])

    def test_stdout_fallback(self, capsys):
        cfg = tiny_config(mode="theory", slots=1)
        write_csv(run_theory(cfg), None)
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER)

    def test_text_is_stable(self, tmp_path):
        cfg = tiny_nmse_config(trials=2)
        rows = nmse_csv_rows(run_nmse_experiment(cfg), cfg)
        assert write_csv(rows, tmp_path / "a.csv") == write_csv(rows, tmp_path / "b.csv")


class TestCli:
    def write_tiny(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "M = 2\nK = 1\ntau = 1\nslots = 2\ntrials = 3\n"
            "estimators = [blmmse]\nr_spatial = 0.3\n",
            encoding="utf-8",
        )
        return path

    def test_nmse_to_file(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        out = tmp_path / "out.csv"
        code = main(["nmse", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2  # nmse and nmse_db rows for two slots

    def test_seed_override_lands_in_rows(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["nmse", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
        body = out.read_text(encoding="utf-8").strip().split("\n")[1:]
        assert all(line.endswith(",5") for line in body)

    def test_theory_to_stdout(self, capsys):
        assert main(["theory", "--trials", "1"]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_validate_config_ok(self, tmp_path, capsys):
        cfg = self.write_tiny(tmp_path)
        assert main(["validate-config", "--config", str(cfg)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_config_reports_issues(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("M = 0\nbogus = 1\n", encoding="utf-8")
        assert main(["validate-config", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert '"error": "config"' in err
        assert '"line": 1' in err

    @pytest.mark.parametrize("speed,code", [(40, 2), (96, 0), (1e6, 0), (1e12, 0), (1e300, 2)])
    def test_validate_config_speed_verdict(self, tmp_path, capsys, speed, code):
        """Past J0's first zero and far out: a coefficient outside [0, 1] is rejected.

        1e300 km/h overflows the Doppler product to inf; its coefficient is
        nan, which is rejected too.
        """
        cfg = tmp_path / "speed.cfg"
        cfg.write_text(f"M = 2\nK = 1\ntau = 1\nuser_speeds_kmh = {speed!r}\n", encoding="utf-8")
        assert main(["validate-config", "--config", str(cfg)]) == code
        if code:
            err = capsys.readouterr().err
            assert '"line": 4' in err and '"key": "user_speeds_kmh"' in err
        else:
            assert "config ok" in capsys.readouterr().out

    def test_run_imports_no_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "import onebit_mimo\n"
            "from onebit_mimo import cli\n"
            "code = cli.main(['nmse', '--profile', 'fast', '--trials', '1',\n"
            f"                 '--out', {str(tmp_path / 'out.csv')!r}])\n"
            "assert code == 0\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["nmse", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert '"error": "io"' in capsys.readouterr().err

    def test_diverged_estimate_exits_with_error(self, tmp_path, capsys, monkeypatch):
        """A run whose tpe estimate turns nan from slot 3: exit 1, no CSV, and where."""
        estimates = harness.tpe_estimates

        def diverged_from_slot_3(*args):
            m_filt = estimates(*args)
            args[-1][..., 2:, :, :] = np.nan
            return m_filt

        monkeypatch.setattr(harness, "tpe_estimates", diverged_from_slot_3)
        cfg = tmp_path / "tpe.cfg"
        # alpha = 0.4 is within the fast profile's bound, so no clamp warning.
        cfg.write_text("estimators = [blmmse, kfb, tpe]\ntpe.alpha = 0.4\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        code = main(["nmse", "--config", str(cfg), "--trials", "2", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert '"error": "runtime"' in err
        assert "tpe estimate is not finite at slot 3" in err
        assert "trial 0" in err

    def test_tpe_tracks_kfb_on_fast_profile(self, tmp_path):
        """The fast profile's tpe.alpha = 0.5 is clamped per trial: one warning, TPE near kfb."""
        cfg = tmp_path / "tpe.cfg"
        cfg.write_text("estimators = [kfb, tpe]\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            code = main(["nmse", "--config", str(cfg), "--trials", "100", "--out", str(out)])
        assert code == 0
        assert [w.category for w in caught] == [RuntimeWarning]
        with out.open(encoding="utf-8") as handle:
            last = {
                row["estimator"]: row
                for row in csv.DictReader(handle)
                if row["metric"] == "nmse_db" and row["slot"] == "10"
            }
        assert all(float(last[name]["stderr"]) < 0.1 for name in ("kfb", "tpe"))
        assert abs(float(last["tpe"]["value"]) - float(last["kfb"]["value"])) < 0.5

    def finite_rate_rows(self, path, count):
        with path.open(encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == count
        assert all(np.isfinite(float(r[key])) for r in rows for key in ("value", "stderr"))

    def test_rank_deficient_estimate_is_rated(self, tmp_path, monkeypatch):
        """A rate run whose ls estimate collapses to rank 1 at slot 2: exit 0, a finite CSV."""
        estimates = harness.ls_estimates

        def collapsed_at_slot_2(pilots, bins, out=None):
            h_hat = estimates(pilots, bins, out)
            h_hat[..., 1, :, :] = 1.0
            return h_hat

        monkeypatch.setattr(harness, "ls_estimates", collapsed_at_slot_2)
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(
            "M = 8\nK = 2\ntau = 2\nslots = 3\nestimators = [blmmse, ls]\nsnr_db = [0, 10]\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        code = main(["rate", "--config", str(cfg), "--trials", "2", "--out", str(out)])
        assert code == 0
        self.finite_rate_rows(out, 2 * 3 * 2)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_small_m_one_bit_estimates_are_rated(self, tmp_path, seed):
        """At M = 4 some one-bit blmmse and kfb estimates are rank deficient: exit 0, finite rows."""
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "M = 4\nK = 2\ntau = 2\nslots = 3\nsnr_db = [0, 10]\nestimators = [blmmse, kfb]\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        code = main(
            ["rate", "--config", str(cfg), "--trials", "5", "--seed", str(seed), "--out", str(out)]
        )
        assert code == 0
        self.finite_rate_rows(out, 2 * 3 * 2)

    @pytest.mark.parametrize("n_antennas", [1, 4])
    def test_singular_learned_priors_run(self, tmp_path, n_antennas):
        """Priors learned from one probe: exit 0 and finite rows.

        At M = 1 a probe that saw no power gives [[1]], the unit variance of
        the channel model (estimators.gram_correlation), not a singular
        [[0]]. At M = 4, 177 of the 192 priors these runs learn are rank
        deficient.
        """
        cfg = tmp_path / "single.cfg"
        cfg.write_text(
            f"M = {n_antennas}\nK = 2\ntau = 2\nslots = 3\nsnr_db = [0, 10]\n"
            "estimators = [blmmse, kfb]\ncorrelation_knowledge = sampled(1)\n",
            encoding="utf-8",
        )
        for seed in range(6):
            out = tmp_path / f"{seed}.csv"
            code = main(["nmse", "--config", str(cfg), "--trials", "8", "--seed", str(seed),
                         "--out", str(out)])
            assert code == 0
            with out.open(encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            assert len(rows) == 2 * 3 * 3 * 2
            assert all(np.isfinite(float(r["value"])) for r in rows)

    def test_near_singular_known_correlation_runs(self, tmp_path):
        """r_spatial = 1 - 1e-15 at M = 32: exit 0 and finite rows.

        Such an R is singular to rounding, and so is its real form. The
        eigenbasis factors only C_n_eff, never R.
        """
        cfg = tmp_path / "near.cfg"
        cfg.write_text(
            "M = 32\nK = 2\ntau = 2\nslots = 3\nsnr_db = [0, 10]\n"
            "estimators = [ls, blmmse, kfb]\nr_spatial = 0.999999999999999\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        code = main(["nmse", "--config", str(cfg), "--trials", "4", "--out", str(out)])
        assert code == 0
        with out.open(encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 3 * 4 * 2
        assert all(np.isfinite(float(r[key])) for r in rows for key in ("value", "stderr"))

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])


def load_benchmark_module(name):
    path = REPO / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's workloads, cheap enough for every test run: the
# known-correlation tracker at n = 256 and at paper scale (n = 1024), and
# learned correlation with TPE.
BENCHMARK_RUNS = {
    "fast_nmse": ["nmse", "--profile", "fast", "--trials", "10"],
    "paper_trial": ["nmse", "--profile", "paper", "--trials", "1"],
    "small_sweep_rate": [
        "rate", "--config", str(REPO / "perfbench" / "small_sweep_rate.cfg"), "--trials", "20",
    ],
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_RUNS))
def test_cli_output_matches_benchmark_reference(workload, tmp_path):
    """The benchmark's output contract: within 1e-9 relative of the stored CSV."""
    check = load_benchmark_module("check")
    out = tmp_path / "out.csv"
    code = main([*BENCHMARK_RUNS[workload], "--seed", "0", "--out", str(out)])
    csv_text = out.read_text(encoding="utf-8") if out.exists() else None
    reference_path = REPO / "perfbench" / "reference" / workload / "seed0.csv"
    reference = reference_path.read_text(encoding="utf-8")
    assert check.check_run(code, csv_text, reference) == []


def test_benchmark_trace_mode_runs(tmp_path):
    """The benchmark's traced child finds every harness name it wraps, in trial order."""
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(
        "M = 8\nK = 2\ntau = 2\nslots = 2\nsnr_db = [0, 10]\n"
        "estimators = [ls, blmmse, kfb, tpe]\ncorrelation_knowledge = sampled(40)\n",
        encoding="utf-8",
    )
    report = tmp_path / "report.json"
    command = [
        sys.executable, "perfbench/child.py", str(report), "trace", "--",
        "rate", "--config", str(cfg), "--trials", "3", "--out", str(tmp_path / "out.csv"),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(command, cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    traced = json.loads(report.read_text(encoding="utf-8"))
    assert {"rate.achievable_rates", "channel.init_channel"} <= {s[0] for s in traced["spans"]}
    # layer_metrics pairs each trial's trial_streams span with its init_channel span.
    metrics = load_benchmark_module("tracing").layer_metrics([traced])
    # The 3 trials are one chunk: drawn once, rated once per SNR point.
    assert metrics["rate.achievable_rates.calls"][0] == 2
    assert metrics["channel.init_channel.calls"][0] == 3


PROGRAM_MODULES = (
    "channel", "quantization", "estimators", "linalg", "rate", "rng", "theory", "config", "cli",
)


def reference_imports(tree):
    """The import statements of a syntax tree that bind the reference module or its names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            named = {alias.name for alias in node.names}
            if module in (".reference", "onebit_mimo.reference") or (
                module in (".", "onebit_mimo") and "reference" in named
            ):
                found.append(node)
        elif isinstance(node, ast.Import):
            if any(alias.name == "onebit_mimo.reference" for alias in node.names):
                found.append(node)
    return found


def test_reference_layer_stays_out_of_the_program():
    """No program module imports the reference module, and harness uses none of its names.

    harness binds some of them only for perfbench/tracing.py to wrap.
    """
    src = REPO / "src" / "onebit_mimo"
    for name in PROGRAM_MODULES:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        assert reference_imports(tree) == [], f"{name} imports the reference module"
    tree = ast.parse((src / "harness.py").read_text(encoding="utf-8"))
    bound = {
        alias.asname or alias.name for node in reference_imports(tree) for alias in node.names
    }
    assert bound and bound <= REFERENCE_NAMES
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not bound & used, f"harness uses {sorted(bound & used)} from the reference module"
