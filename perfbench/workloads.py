"""The benchmark's workloads: one fixed onebit-mimo command line each.

Every workload runs the unmodified CLI. The benchmark seed selects one of
REFERENCE_SEEDS program seeds, each with a reference CSV written by the
seed code, so every run's output can be checked.
"""

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEEDS = 16

# name -> (CLI arguments without --seed/--out, n = M*K)
WORKLOADS = {
    "fast_nmse": (
        ["nmse", "--profile", "fast", "--trials", "10"],
        256,
    ),
    "small_sweep_rate": (
        ["rate", "--config", str(Path("perfbench", "small_sweep_rate.cfg")), "--trials", "20"],
        64,
    ),
    "paper_trial": (
        ["nmse", "--profile", "paper", "--trials", "1"],
        1024,
    ),
}


def program_seed(seed):
    """Program seed used for a benchmark seed; it has a stored reference."""
    return seed % REFERENCE_SEEDS


def cli_args(workload, seed, out_path):
    """Full onebit-mimo argument list for one run of a workload."""
    args = WORKLOADS[workload][0]
    return [*args, "--seed", str(program_seed(seed)), "--out", str(out_path)]


def reference_path(workload, seed):
    return REFERENCE_DIR / workload / f"seed{program_seed(seed)}.csv"
