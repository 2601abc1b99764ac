"""Write the reference CSVs the benchmark checks every run against.

Usage, from the repository root:
    python3 perfbench/make_reference.py

Runs every workload's command once per program seed 0..REFERENCE_SEEDS-1,
with BLAS pinned to one thread, and stores the CSV under
perfbench/reference/<workload>/seed<k>.csv. The stored files were written
by the seed code; regenerate them only with a change whose results are
meant to differ, and say so where that change is recorded.
"""

import subprocess
import sys

from run import child_env
from workloads import REFERENCE_SEEDS, ROOT, WORKLOADS, cli_args, reference_path


def main():
    env = child_env()
    for name in WORKLOADS:
        for seed in range(REFERENCE_SEEDS):
            path = reference_path(name, seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            command = [sys.executable, "-m", "onebit_mimo.cli", *cli_args(name, seed, path)]
            subprocess.run(command, cwd=ROOT, env=env, check=True)
            print(path.relative_to(ROOT))


if __name__ == "__main__":
    main()
