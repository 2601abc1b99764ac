"""Spans around the functions onebit_mimo.harness calls, and their summary.

The traced run replaces the names the harness module imports with wrappers
that record one span per call: name, start, end, parent span, trial id and
SNR point index. Spans stay in memory and are written with the process
report when the run ends. Nothing under src/ is modified.
"""

import statistics
import time
import warnings

# Names imported by onebit_mimo.harness -> span name (<module>.<function>).
_HARNESS_NAMES = {
    "blmmse_estimate": "estimators.blmmse_estimate",
    "ls_estimate": "estimators.ls_estimate",
    "sample_correlation": "estimators.sample_correlation",
    "one_bit_quantize": "quantization.one_bit_quantize",
    "build_bussgang_model": "quantization.build_bussgang_model",
    "quantize_pilot_slot": "quantization.quantize_pilot_slot",
    "evolve_channel": "channel.evolve_channel",
    "init_channel": "channel.init_channel",
    "exponential_correlation": "channel.exponential_correlation",
    "aggregate_correlation": "channel.aggregate_correlation",
    "trial_streams": "rng.trial_streams",
    "achievable_rates": "rate.achievable_rates",
}
# kfb_step is split by gain: ExactGain -> kfb_step, TpeGain -> tpe_step, whose
# child tpe_inverse is wrapped in the estimators module itself.
SPAN_NAMES = (
    "estimators.kfb_step",
    "estimators.tpe_step",
    "estimators.tpe_inverse",
    *_HARNESS_NAMES.values(),
)
_ESTIMATES = {
    "estimators.kfb_step",
    "estimators.tpe_step",
    "estimators.blmmse_estimate",
    "estimators.ls_estimate",
}
P90_MIN_CALLS = 100


class Tracer:
    """Span recorder for one simulation process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, trial, snr index)
        self._stack = [-1]
        self.trial = -1
        self.snr_index = -1
        self.nonfinite = 0
        self.runtime_warnings = 0

    def install(self):
        import numpy as np
        from onebit_mimo import estimators, harness

        self._isfinite = np.isfinite
        for attr, name in _HARNESS_NAMES.items():
            setattr(harness, attr, self._wrap(getattr(harness, attr), name))
        exact = self._wrap(harness.kfb_step, "estimators.kfb_step")
        tpe = self._wrap(harness.kfb_step, "estimators.tpe_step")

        def kfb_step(state, obs, gain=estimators.ExactGain()):
            return (tpe if isinstance(gain, estimators.TpeGain) else exact)(state, obs, gain)

        harness.kfb_step = kfb_step
        estimators.tpe_inverse = self._wrap(estimators.tpe_inverse, "estimators.tpe_inverse")

        # Each SNR point's trial loop starts by building its pilots.
        dft_pilots = harness.dft_pilots

        def next_snr_point(*args, **kwargs):
            self.snr_index += 1
            return dft_pilots(*args, **kwargs)

        harness.dft_pilots = next_snr_point
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._count_warning

    def _count_warning(self, message, category, *args, **kwargs):
        if issubclass(category, RuntimeWarning):
            self.runtime_warnings += 1

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        is_estimate = name in _ESTIMATES
        starts_trial = name == "rng.trial_streams"

        def traced(*args, **kwargs):
            if starts_trial:
                self.trial = args[1]
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans[index] = (name, start, end, parent, self.trial, self.snr_index)
            if is_estimate:
                h = getattr(result, "h_hat", result)
                self.nonfinite += not self._isfinite(h).all()
            return result

        return traced

    def report(self):
        return {
            "spans": self.spans,
            "nonfinite": self.nonfinite,
            "runtime_warnings": self.runtime_warnings,
        }


def layer_metrics(reports):
    """Per-layer metrics, as (value, unit), from the reports of traced processes."""
    durations = {name: [] for name in SPAN_NAMES}
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    wall = covered = trial_setup = 0.0
    nonfinite = runtime_warnings = 0
    for rep in reports:
        spans = rep["spans"]
        inner = [0.0] * len(spans)
        setup_start = {}
        for name, start, end, parent, trial, snr in spans:
            if parent >= 0:
                inner[parent] += end - start
            else:
                covered += end - start
            if name == "rng.trial_streams":
                setup_start[(trial, snr)] = start
            elif name == "channel.init_channel":
                trial_setup += end - setup_start.pop((trial, snr))
        for (name, start, end, *_), child_time in zip(spans, inner):
            durations[name].append(end - start)
            busy[name] += end - start - child_time
        wall += rep["end_s"] - rep["config_s"]
        nonfinite += rep["nonfinite"]
        runtime_warnings += rep["runtime_warnings"]

    metrics = {}
    for name in SPAN_NAMES:
        d = durations[name]
        metrics[f"{name}.calls"] = (len(d), "count")
        metrics[f"{name}.busy_s"] = (busy[name], "s")
        metrics[f"{name}.share"] = (busy[name] / wall, "ratio")
        metrics[f"{name}.p50_ms"] = (statistics.median(d) * 1e3 if d else 0.0, "ms")
        # 0 when fewer than P90_MIN_CALLS calls: too few samples beyond p90.
        p90 = statistics.quantiles(d, n=10)[8] * 1e3 if len(d) >= P90_MIN_CALLS else 0.0
        metrics[f"{name}.p90_ms"] = (p90, "ms")
    metrics["harness.trial_setup_s"] = (trial_setup, "s")
    metrics["harness.self_s"] = (wall - covered, "s")
    metrics["harness.wall_s"] = (wall, "s")
    metrics["estimators.nonfinite"] = (nonfinite, "count")
    metrics["warnings.runtime"] = (runtime_warnings, "count")
    return metrics
