"""One simulation process of the benchmark: the unmodified onebit-mimo CLI.

Usage: python3 perfbench/child.py REPORT MODE -- ONEBIT_MIMO_ARGS...

MODE is "run" (plain run), "trace" (spans around the harness's calls) or
"setup" (stop once the config is validated, and report the versions of
Python, numpy, scipy and BLAS and the BLAS thread count). The only hook in a plain run
times the return of the CLI's parse_config. REPORT receives a JSON object
with the CLOCK_MONOTONIC times of config validation and of the CLI's
return, the trajectory count, the peak RSS and, when traced, the spans.
"""

import sys
import time


class _SetupDone(Exception):
    pass


def main():
    report_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("run", "trace", "setup"):
        sys.exit("usage: child.py REPORT run|trace|setup -- ARGS...")
    from onebit_mimo import cli

    marks = {}
    parse_config = cli.parse_config

    def timed_parse_config(*args, **kwargs):
        cfg = parse_config(*args, **kwargs)
        marks["config_s"] = time.monotonic()
        marks["trajectories"] = cfg.trials * len(cfg.snr_db)
        if mode == "setup":
            raise _SetupDone
        return cfg

    cli.parse_config = timed_parse_config
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(argv)
    except _SetupDone:
        code = 0
    marks["end_s"] = time.monotonic()

    import json
    import resource

    marks["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "setup":
        marks["versions"] = _versions()
    if tracer is not None:
        marks.update(tracer.report())
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(marks, handle)
    return code


def _versions():
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": None,
    }
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                out["blas_threads"] = getter()
                return out
    return out


if __name__ == "__main__":
    sys.exit(main())
