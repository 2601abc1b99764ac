"""onebit-mimo benchmark: closed-loop CLI runs, end-to-end and per-layer metrics.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's onebit-mimo command one process at a time, with BLAS
pinned to one thread, for about S seconds: another process starts while at
least half of one still fits before the deadline, each preceded by
set-up-only probes, one per PROBE_EVERY_S of the previous process. Every run's CSV is checked against the stored seed-code
reference. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of traced processes with --trace 1.
Process reports, CSVs and a results file with the environment manifest are
written under perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from check import check_run
from tracing import layer_metrics
from workloads import HERE, ROOT, WORKLOADS, cli_args, program_seed, reference_path

OUT_DIR = HERE / "out"
RUN_LIMIT_S = 165.0  # whole benchmark run, below the 180 s a run may take
# Set-up probes keep pace with the simulation: one per this many seconds of
# the previous process, at least one. A paper_trial process takes ~10 s,
# and one probe per process left too few samples for a steady median.
PROBE_EVERY_S = 2.5


def child_env():
    """Environment of every onebit-mimo process the benchmark starts."""
    env = dict(os.environ)
    # Byte-compiled sources are cached, as for an installed package, so the
    # warm-up probe keeps compilation out of setup_s.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # One string-hash seed for every process: the hash seed alone moved
    # small_sweep_rate throughput by ~10% between processes.
    env.update(
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


class Runner:
    """Starts child processes one at a time and collects their reports."""

    def __init__(self, workload, seed, started):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.env = child_env()
        self.work = OUT_DIR / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        for stale in self.work.glob(f"{workload}-*"):
            stale.unlink()
        self.count = 0

    def spawn(self, mode):
        """Run one process; returns (exit code, spawn time, report or None, csv path)."""
        self.count += 1
        tag = f"{self.workload}-{self.count}"
        report = self.work / f"{tag}.report.json"
        csv_path = self.work / f"{tag}.csv"
        for path in (report, csv_path):
            path.unlink(missing_ok=True)
        args = cli_args(self.workload, self.seed, csv_path)
        command = [sys.executable, str(HERE / "child.py"), str(report), mode, "--", *args]
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        with open(self.work / f"{tag}.stderr", "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            try:
                code = subprocess.run(
                    command, cwd=ROOT, env=self.env,
                    stdout=subprocess.DEVNULL, stderr=log, timeout=timeout,
                ).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        rep = json.loads(report.read_text(encoding="utf-8")) if report.exists() else None
        return code, spawned, rep, csv_path

    def probe(self):
        """Run one set-up-only process; returns its report and its set-up time."""
        code, spawned, rep, _ = self.spawn("setup")
        if code != 0 or rep is None:
            _fail(f"set-up probe exited with {code}; see {self.work}")
        return rep, rep["config_s"] - spawned


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _l2_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size", encoding="utf-8") as handle:
            return int(handle.read().strip().rstrip("K")) * 1024
    except (OSError, ValueError):
        return None


def _environment(versions, workload):
    """The manifest stored with every result."""
    cpu = _cpu_model()
    l2 = _l2_bytes()
    n = WORKLOADS[workload][1]
    matrix_bytes = 16 * n * n  # one dense complex128 n x n matrix
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2_bytes": l2,
        "platform": platform.platform(),
        "n": n,
        "matrix_bytes": matrix_bytes,
        "matrix_over_l2": matrix_bytes / l2 if l2 else None,
    }


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "onebit_mimo" / "cli.py").is_file():
        _fail(f"no onebit_mimo sources under {ROOT / 'src'}")
    ref_file = reference_path(opts.workload, opts.seed)
    if not ref_file.is_file():
        _fail(f"missing reference CSV {ref_file}")
    reference = ref_file.read_text(encoding="utf-8")

    runner = Runner(opts.workload, opts.seed, started)
    # Untimed warm-up: byte-compiles the sources and fills the file cache.
    versions = runner.probe()[0]["versions"]

    mode = "trace" if opts.trace else "run"
    runs, setups = [], []
    deadline = started + opts.seconds
    last = 0.0  # duration of the previous probes and process
    probes = 1
    # Start more probes and another process while at least half of them
    # still fits. The probes are spread over the window, so setup_s does not
    # hang on the machine's speed in one stretch of it.
    while not runs or time.monotonic() + last / 2 < deadline:
        began = time.monotonic()
        setups += [runner.probe()[1] for _ in range(probes)]
        code, spawned, rep, csv_path = runner.spawn(mode)
        ended = time.monotonic()
        last = ended - began
        probes = max(1, round((ended - spawned) / PROBE_EVERY_S))
        csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
        run = {"exit": code, "problems": check_run(code, csv_text, reference), "report": rep}
        if rep and "config_s" in rep:
            run["setup_s"] = rep["config_s"] - spawned
            run["trials_per_s"] = rep["trajectories"] / (rep["end_s"] - rep["config_s"])
            run["peak_rss_mb"] = rep["peak_rss_mb"]
        runs.append(run)
        if code == "timeout":
            break

    setups += [r["setup_s"] for r in runs if "setup_s" in r]
    failed = sum(1 for r in runs if r["problems"])
    # Timing medians use the runs that passed, or all timed runs if none did.
    timed = [r for r in runs if not r["problems"]] or [r for r in runs if "setup_s" in r]
    if not timed:
        _fail(f"no run reached a validated config; see {runner.work}")
    rate = statistics.median(r["trials_per_s"] for r in timed)
    if opts.trace:
        metrics = layer_metrics([r["report"] for r in timed])
        metrics["trace.trials_per_s"] = (rate, "1/s")
    else:
        metrics = {
            "trials_per_s": (rate, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        }

    env = _environment(versions, opts.workload)
    print(f"workload {opts.workload}, seed {opts.seed} (program seed {program_seed(opts.seed)}), "
          f"trace {opts.trace}, {len(runs)} runs, {len(setups)} set-up samples")
    print("environment " + json.dumps(env))
    for i, r in enumerate(runs, start=1):
        verdict = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"][:3])
        print(f"  run {i}: exit {r['exit']}, {verdict}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {failed / len(runs):.6g} ratio ({failed}/{len(runs)} runs failed)")

    OUT_DIR.mkdir(exist_ok=True)
    results = {
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "environment": env,
        "runs": [{k: v for k, v in r.items() if k != "report"} for r in runs],
        "setup_samples_s": setups,
        "failed_frac": failed / len(runs),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    results_file = OUT_DIR / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    results_file.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": results["metrics"],
    }))


if __name__ == "__main__":
    main()
