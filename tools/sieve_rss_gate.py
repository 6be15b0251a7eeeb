"""Sieve memory gate: the sieve at the n_max cap, cold and then warm, must
stay within the 2-bit table plus a fixed margin over the cost of importing
ncflow.

    python3 tools/sieve_rss_gate.py

Runs ``python -c "import ncflow.cli"``, then ``python -m ncflow.cli sieve
--n-max N_MAX`` twice with NCFLOW_CACHE_DIR set to one fresh temporary
directory: the first run builds and saves the table, the second loads it.
Each child's peak RSS comes from ``os.wait4``.  Prints the three peaks and
exits 1 if a sieve run fails, or if either sieve run's peak, less the import
run's, passes N_MAX / 4 bytes (the table's codes) plus MARGIN_MIB.  Runs on the
src/ beside this script; outputs and the cache go to a temporary directory.
"""

import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIB = 2**20
N_MAX = 10**8  # the n_max cap of ncflow.moebius
MARGIN_MIB = 16.0  # the segment scratch and what the sieve experiment holds besides


def peak_rss_mib(args, env) -> float:
    """The peak RSS of one child process, in MiB; raises if it fails."""
    child = subprocess.Popen(
        [sys.executable, *args], env=env, cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    err = child.stderr.read()
    child.stderr.close()
    _, status, usage = os.wait4(child.pid, 0)
    if status != 0:
        raise RuntimeError(f"{' '.join(args)} failed: {err.decode(errors='replace')}")
    return usage.ru_maxrss * 1024 / MIB  # ru_maxrss is in KiB on Linux


def main() -> int:
    src = os.path.join(REPO, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with tempfile.TemporaryDirectory() as tmp:
        env["NCFLOW_CACHE_DIR"] = os.path.join(tmp, "cache")
        sieve = ["-m", "ncflow.cli", "sieve", "--n-max", str(N_MAX),
                 "--out", os.path.join(tmp, "out")]
        base = peak_rss_mib(["-c", "import ncflow.cli"], env)
        cold = peak_rss_mib(sieve, env)
        warm = peak_rss_mib(sieve, env)
    limit = N_MAX / 4 / MIB + MARGIN_MIB
    print(f"import {base:.1f} MiB; sieve at n_max {N_MAX}: cold {cold:.1f} MiB"
          f" (+{cold - base:.1f}), warm {warm:.1f} MiB (+{warm - base:.1f});"
          f" allowed +{limit:.1f}")
    if max(cold, warm) - base > limit:
        print("sieve memory gate failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
