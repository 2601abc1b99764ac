"""All workloads in one command: repeated benchmark runs and their spread.

Usage, from the repository root:
    python3 perfbench/summary.py [--seeds 0 1 2] [--trace] [--baseline perfbench/baseline.json]

Runs perfbench/run.py once per workload and seed for the run_seconds of
BENCHMARK.json, untraced, and with
--trace also traced after each untraced run. Prints, per workload, every
end-to-end metric with its unit as the median and quartiles over the seeds
with the spread (third minus first quartile, as a share of the median),
failed_frac over all runs, and the tracing overhead (median untraced over
median traced trials_per_s). --baseline writes the same figures, and the
median of every per-layer metric, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def bench(workload, seed, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(RUN_SECONDS), "--trace", str(int(trace))]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline")
    opts = parser.parse_args()

    summary = {"seconds": RUN_SECONDS, "seeds": opts.seeds, "workloads": {}}
    for workload in WORKLOADS:
        results, traced = [], []
        # Traced and untraced runs alternate, so that both see the same drift.
        for seed in opts.seeds:
            results.append(bench(workload, seed, False))
            if opts.trace:
                traced.append(bench(workload, seed, True))
        attempted = sum(r["attempted"] for r in results + traced)
        failed = sum(r["failed"] for r in results + traced)
        row = {"failed_frac": failed / attempted, "runs_attempted": attempted, "metrics": {}}
        print(f"{workload}: failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted} runs)")
        for name in results[0]["metrics"]:
            unit = results[0]["metrics"][name]["unit"]
            stats = spread([r["metrics"][name]["value"] for r in results])
            row["metrics"][name] = {"unit": unit, **stats}
            print(f"  {name} = {stats['median']:.6g} {unit} "
                  f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, spread {stats['spread']:.4f}]")
        if traced:
            row["traced_medians"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]
            }
            rate = row["traced_medians"]["trace.trials_per_s"]
            overhead = row["metrics"]["trials_per_s"]["median"] / rate - 1.0
            row["tracing_overhead"] = overhead
            print(f"  traced trials_per_s = {rate:.6g} 1/s (median of {len(traced)}); "
                  f"untraced / traced - 1 = {overhead:+.3f} (tracing overhead)")
        summary["workloads"][workload] = row
    if opts.baseline:
        with open(opts.baseline, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
