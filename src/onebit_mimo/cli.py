"""Command-line front end for the experiment harness.

main parses the arguments, builds the config (config.parse_config on the
profile's defaults, the config file and the overrides) and writes the
command's CSV. Before it parses anything it sets the process's allocator
policy once (_keep_freed_memory): glibc keeps the memory the run frees,
so each chunk and each SNR point reuses the pages of the last rather than
faulting fresh ones in. The policy is the CLI's, not the package's: a
program that imports onebit_mimo keeps its allocator as it was, and the
bytes of a run do not depend on it.
"""

import argparse
import ctypes
import json
import sys
from pathlib import Path

from .config import ConfigError, default_config, parse_config
from .harness import nmse_csv_rows, run_nmse_experiment, run_rate_experiment, run_theory, write_csv

# command -> (help, the experiment's CSV rows from the config; None only validates it)
_COMMANDS = {
    "nmse": (
        "Monte-Carlo channel estimation error",
        lambda cfg: nmse_csv_rows(run_nmse_experiment(cfg), cfg),
    ),
    "rate": ("Monte-Carlo zero-forcing sum rate", run_rate_experiment),
    "theory": ("closed-form NMSE recursion and fixed point", run_theory),
    "validate-config": ("check a config file and exit", None),
}


# glibc's mallopt parameters and their values. A block of at least the
# mmap threshold gets pages of its own, which free returns to the kernel,
# and the heap's top is trimmed once it has more free than the trim
# threshold. A paper-scale trial's live arrays peak under 5 MB together,
# so with these the heap keeps them all.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 64 << 20, 32 << 20


def _keep_freed_memory():
    """Let glibc keep freed memory in the process; a no-op without mallopt.

    Setting the mmap threshold alone ends glibc's dynamic threshold but
    keeps its 128 KB trim, which faulted more pages than the defaults, so
    the trim threshold goes first, and a mallopt that refuses it (returns
    0) changes nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    # int mallopt(int param, int value)
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES):
        mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="onebit-mimo",
        description="Uplink channel estimation experiments for massive MIMO with one-bit ADCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="experiment config file")
        cmd.add_argument("--seed", type=int, help="override the root seed")
        cmd.add_argument("--trials", type=int, help="override the trial count")
        cmd.add_argument("--out", help="CSV output path (default stdout)")
        cmd.add_argument(
            "--profile",
            choices=("fast", "paper"),
            default="fast",
            help="default parameter set merged under the config file",
        )
    return parser


def _build_config(args):
    base = default_config(profile=args.profile)
    overrides = {}
    if args.command != "validate-config":
        overrides["mode"] = args.command
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    return parse_config(text, base=base, overrides=overrides)


def _error_line(kind, **payload):
    print(json.dumps({"error": kind, **payload}), file=sys.stderr)


def main(argv=None):
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
    except ConfigError as err:
        _error_line(
            "config",
            issues=[{"line": ln, "key": key, "message": msg} for ln, key, msg in err.issues],
        )
        return 2
    except OSError as err:
        _error_line("io", message=str(err))
        return 2

    _, rows_of = _COMMANDS[args.command]
    if rows_of is None:
        print("config ok")
        return 0

    try:
        write_csv(rows_of(cfg), args.out)
    except (ValueError, ArithmeticError) as err:
        _error_line("runtime", message=str(err))
        return 1
    except OSError as err:
        _error_line("io", message=str(err))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
