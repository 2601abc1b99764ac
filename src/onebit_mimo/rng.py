"""Deterministic random-number streams for Monte-Carlo trials."""

from dataclasses import dataclass

import numpy as np

# Stream indices are part of the reproducibility contract: changing them
# changes every published result for a given seed. Index 2 is unassigned.
_STREAMS = {"channel": 0, "pilot_noise": 1, "phases": 3}


def stream_rng(seed, trial, stream):
    """Independent generator for one named stream of one trial.

    Built from a spawn key so any single trial replays standalone, without
    drawing the trials before it.
    """
    try:
        index = _STREAMS[stream]
    except KeyError:
        raise ValueError(f"unknown stream {stream!r}, expected one of {sorted(_STREAMS)}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index, trial))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class TrialStreams:
    """The three generators belonging to one trial."""

    channel: np.random.Generator
    pilot_noise: np.random.Generator
    phases: np.random.Generator


def trial_streams(seed, trial):
    """All streams for a trial, spawned from the experiment root seed."""
    return TrialStreams(*(stream_rng(seed, trial, name) for name in _STREAMS))


def complex_normal(rng, size):
    """Circularly symmetric unit-variance complex Gaussian draws.

    Real and imaginary parts each carry variance 1/2 so E|x|^2 = 1.
    """
    return complex_normal_sequence(rng, 1, size)[0]


def complex_normal_sequence(rng, count, size):
    """count successive complex_normal(rng, size) draws in one call, (count, *size).

    The generator fills the real parts of a draw, then its imaginary parts,
    in order, so one standard_normal call over (count, 2, *size) gives the
    same bits as count calls of complex_normal.
    """
    parts = rng.standard_normal((count, 2, *np.atleast_1d(size)))
    out = np.empty(parts.shape[:1] + parts.shape[2:], dtype=complex)
    np.multiply(parts[:, 0], 1.0 / np.sqrt(2.0), out=out.real)
    np.multiply(parts[:, 1], 1.0 / np.sqrt(2.0), out=out.imag)
    return out
