"""Output check behind failed_frac.

A run fails if it exits non-zero, writes a non-finite value or stderr, or
deviates from the workload's reference CSV by more than 1e-9 relative. The
comparison uses a tolerance, not bytes, because BLAS results can differ in
their last bits. nmse_db values are compared in the linear domain, where the
1e-9 relative contract is defined.
"""

import math

REL_TOL = 1e-9
HEADER = "experiment,estimator,slot,snr_db,metric,value,stderr,seed"


def _rows(text):
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing or unexpected CSV header")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"line {number}: expected 8 fields")
        key = (*fields[:5], fields[7])
        rows.append((number, key, float(fields[5]), float(fields[6])))
    return rows


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_run(exit_code, csv_text, reference_text):
    """Reasons a run failed; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if csv_text is None:
        return ["no CSV written"]
    try:
        rows = _rows(csv_text)
        ref = _rows(reference_text)
    except ValueError as err:
        return [f"unreadable CSV: {err}"]
    problems = []
    for number, key, value, stderr in rows:
        if not (math.isfinite(value) and math.isfinite(stderr)):
            problems.append(f"line {number}: non-finite value or stderr in {key}")
    if len(rows) != len(ref):
        problems.append(f"{len(rows)} rows, reference has {len(ref)}")
        return problems
    for (number, key, value, stderr), (_, ref_key, ref_value, ref_stderr) in zip(rows, ref):
        if key != ref_key:
            problems.append(f"line {number}: row {key} where the reference has {ref_key}")
        elif key[4] == "nmse_db":
            if not _close(10.0 ** (value / 10.0), 10.0 ** (ref_value / 10.0)):
                problems.append(f"line {number}: value {value!r} != reference {ref_value!r}")
            if not _close(stderr, ref_stderr):
                problems.append(f"line {number}: stderr {stderr!r} != reference {ref_stderr!r}")
        elif not (_close(value, ref_value) and _close(stderr, ref_stderr)):
            problems.append(
                f"line {number}: ({value!r}, {stderr!r}) != reference ({ref_value!r}, {ref_stderr!r})"
            )
    return problems
