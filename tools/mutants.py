"""Mutation gate: each listed weakening of a certified check must fail a named test.

    python3 tools/mutants.py

Each entry of MUTANTS is (file under src/ncflow, old text, new text, tests,
why).  For each one the script copies the src/ beside it to a temporary
directory, replaces the old text by the new text in the copy, and runs only
the entry's tests under pytest, on the copy, from this checkout's tests/.  A
mutant is killed when its tests fail.  Before the mutants, every named test
runs once on an unmutated copy and must pass, so a kill is the mutant's
doing.  Prints one line per mutant with its time, and exits 1 if the
unmutated copy fails, an old text does not occur exactly once in its file,
or a mutant survives.  Nothing under the checkout is written.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple
    why: str


MUTANTS = (
    Mutant(
        "moebius.py",
        "known = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 30: -1}",
        "known = {1: 1}",
        ("tests/test_moebius.py::"
         "test_cache_with_a_wrong_mu_30_under_a_valid_checksum_fails_the_spot_check",),
        "the cache spot check cut to n = 1 loads a table with a wrong mu(30)",
    ),
    Mutant(
        "flows.py",
        "hypothesis_holds=ratio <= 1.0,",
        "hypothesis_holds=ratio <= 2.0,",
        ("tests/test_flows.py::test_bsz_ratio_just_past_one_fails",),
        "bsz-check passes a correlation ratio of 1.2",
    ),
    Mutant(
        "flows.py",
        "bound = 2.0 * math.sqrt(epsilon * math.log(1.0 / epsilon)) * N",
        "bound = 2.0 * math.sqrt(epsilon * math.log(1.0 / epsilon)) * N * (1 + 1e-7)",
        ("tests/test_flows.py::test_bsz_golden_rotation_passes",),
        "bsz-check's analytic bound loosened by a relative 1e-7",
    ),
    Mutant(
        "linalg.py",
        "ATOL_UNITARY = 1e-10",
        "ATOL_UNITARY = 1e-3",
        ("tests/test_linalg.py::"
         "test_input_checks_take_rounding_and_refuse_1e_9_past_the_limit[check_unitary]",),
        "check_unitary takes U (1 + 1e-9)",
    ),
    Mutant(
        "car_fock.py",
        "_SYMBOL_ATOL = 1e-10",
        "_SYMBOL_ATOL = 1e-3",
        ("tests/test_linalg.py::"
         "test_input_checks_take_rounding_and_refuse_1e_9_past_the_limit[check_symbol]",),
        "check_symbol takes an eigenvalue 1 + 1e-9",
    ),
    Mutant(
        "matrix_dynamics.py",
        "CONTRACTION_SLACK = 1e-10",
        "CONTRACTION_SLACK = 1e-3",
        ("tests/test_linalg.py::"
         "test_input_checks_take_rounding_and_refuse_1e_9_past_the_limit[TraceProductSpec]",),
        "TraceProductSpec takes a contraction of norm 1 + 1e-9",
    ),
    Mutant(
        "matrix_dynamics.py",
        "DOMINATES_SLACK = 1e-12",
        "DOMINATES_SLACK = 1e-2",
        ("tests/test_matrix_dynamics.py::"
         "test_dominates_takes_rounding_and_refuses_1e_10_past_the_bound",),
        "the finite-dimensional bound chain dominates an |s_N| 1e-10 past its bound",
    ),
    Mutant(
        "flows.py",
        "return self.mobius_sum_abs <= self.analytic_bound",
        "return self.mobius_sum_abs <= 2 * self.analytic_bound",
        ("tests/test_flows.py::"
         "test_bsz_moebius_sum_just_past_the_analytic_bound_is_reported",),
        "bsz-check puts a Moebius sum 1.087 times its analytic bound within it",
    ),
    Mutant(
        "moebius.py",
        "TURNS_ERR = 11 * 2.0**-53",
        "TURNS_ERR = 1100 * 2.0**-53",
        ("tests/test_moebius.py::test_turns_error_comes_within_a_factor_8_of_turns_err",),
        "the stated phase-kernel error bound loosened 100-fold",
    ),
)


def _copy_src(work: str) -> str:
    """A fresh copy of src/ under work; returns the copy's path."""
    dest = os.path.join(work, "src")
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(
        os.path.join(REPO, "src"), dest, ignore=shutil.ignore_patterns("__pycache__")
    )
    return dest


def _tests_pass(src: str, tests) -> bool:
    """Whether the tests pass with ncflow imported from src."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    return done.returncode == 0


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory(prefix="ncflow-mutants-") as work:
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if not _tests_pass(_copy_src(work), every_test):
            print("the named tests fail on the unmutated src/", file=sys.stderr)
            return 1
        for m in MUTANTS:
            started = time.perf_counter()
            src = _copy_src(work)
            path = os.path.join(src, "ncflow", m.file)
            with open(path) as fh:
                text = fh.read()
            count = text.count(m.old)
            if count != 1:
                print(f"STALE     {m.file}: {m.old!r} occurs {count} times")
                failed = True
                continue
            with open(path, "w") as fh:
                fh.write(text.replace(m.old, m.new))
            survived = _tests_pass(src, m.tests)
            failed |= survived
            status = "SURVIVED" if survived else "killed  "
            print(f"{status}  {time.perf_counter() - started:5.1f} s  {m.file}: {m.why}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
