"""Self-test of the output check behind failed_frac.

Usage, from the repository root:
    python3 perfbench/selftest.py

Feeds the checker a reference that must pass, perturbed and truncated
copies, a non-zero exit, and the CSV of a known defect: TPE with
estimators = [blmmse, kfb, tpe] on the fast profile writes nan rows and
exits 0 (fixtures/tpe_nan_fast_profile.csv, written by the seed code with
--trials 2 --seed 0). It also runs that configuration live. Exits 1 if the
checker lets a bad run through.
"""

import subprocess
import sys

from check import check_run
from run import child_env
from workloads import HERE, ROOT, reference_path


def _perturb(text, factor):
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[5] = repr(float(fields[5]) * factor)
    lines[1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _live_tpe_run():
    out = HERE / "out" / "selftest-tpe.csv"
    cfg = HERE / "out" / "selftest-tpe.cfg"
    out.parent.mkdir(exist_ok=True)
    out.unlink(missing_ok=True)
    cfg.write_text("estimators = [blmmse, kfb, tpe]\n", encoding="utf-8")
    command = [sys.executable, "-m", "onebit_mimo.cli", "nmse", "--config", str(cfg),
               "--trials", "2", "--seed", "0", "--out", str(out)]
    code = subprocess.run(command, cwd=ROOT, env=child_env(), stderr=subprocess.DEVNULL).returncode
    return code, out.read_text(encoding="utf-8") if out.exists() else None


def main():
    ref = reference_path("fast_nmse", 0).read_text(encoding="utf-8")
    nan_csv = (HERE / "fixtures" / "tpe_nan_fast_profile.csv").read_text(encoding="utf-8")
    live_code, live_csv = _live_tpe_run()
    cases = [
        ("reference against itself", check_run(0, ref, ref), False),
        ("value off by 1e-12 relative", check_run(0, _perturb(ref, 1 + 1e-12), ref), False),
        ("value off by 1e-7 relative", check_run(0, _perturb(ref, 1 + 1e-7), ref), True),
        ("non-zero exit", check_run(1, ref, ref), True),
        ("no CSV", check_run(0, None, ref), True),
        ("missing last row", check_run(0, ref.rsplit("\n", 2)[0] + "\n", ref), True),
        ("nan CSV against itself", check_run(0, nan_csv, nan_csv), True),
        ("live TPE run on the fast profile", check_run(live_code, live_csv, nan_csv), True),
    ]
    bad = 0
    for name, problems, should_fail in cases:
        ok = bool(problems) == should_fail
        bad += not ok
        detail = problems[0] if problems else "passes"
        print(f"{'ok  ' if ok else 'BAD '} {name}: {detail}")
    print(f"{len(cases) - bad}/{len(cases)} checker cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
