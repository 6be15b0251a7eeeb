"""Every module-level and class-level def in src/ncflow is reached by an
experiment, or is kept on purpose for the reason KEPT gives.

One pass runs the CLI in process under cProfile: every experiment at its
default config with seed 0, a sieve warm from the cache those runs wrote,
bsz-check with the constant flow and decay from a config file of float
coefficients.  The defs are listed with ast; cProfile keys a function by
its code's first line, which for a decorated def is its first decorator.
"""

import ast
import cProfile
import importlib
import json
import os
import pkgutil
import pstats

import ncflow
from ncflow import cli

# Flow's evaluator keyword is kept as well, for perfbench/trace_run.py, but
# a keyword is not a def
KEPT = {
    "moebius.poly_phase_frac": "the exact-phase probe of the phase tests, and"
    " the independent kernel a second decay value would use",
    "car_fock.CARPolynomial.adjoint": "p* for the positivity test's p*p and the"
    " algebra test",
    "car_fock.constant": "every random test polynomial starts from it",
}


def _defs() -> dict:
    """(file, first line) -> "module.Class.name" for each module-level and
    class-level def of the package."""
    src = os.path.dirname(os.path.realpath(ncflow.__file__))
    out = {}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(src, name)
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            members = [(top, "")]
            if isinstance(top, ast.ClassDef):
                members = [(node, f"{top.name}.") for node in top.body]
            for node, prefix in members:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    out[(path, first)] = f"{name[:-3]}.{prefix}{node.name}"
    return out


def _write(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def test_every_def_is_reached_or_kept(tmp_path, monkeypatch):
    monkeypatch.setenv("NCFLOW_CACHE_DIR", str(tmp_path / "cache"))
    out = str(tmp_path / "out")
    runs = [[name, "--seed", "0"] for name in sorted(cli.EXPERIMENTS)]
    runs.append(["sieve"])  # warm: loads the cache the first sieve wrote
    bsz = {"experiment": "bsz-check", "params": {"flow": "constant"}}
    runs.append(["--config", _write(tmp_path / "bsz.json", bsz)])
    decay = {"experiment": "decay", "params": {"coeffs": [0.0, 0.1234, 0.56789, 0.3]}}
    runs.append(["--config", _write(tmp_path / "decay.json", decay)])

    # a memoized def runs once per process: forget what earlier tests left
    for info in pkgutil.iter_modules(ncflow.__path__):
        for obj in vars(importlib.import_module(f"ncflow.{info.name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    profiler = cProfile.Profile()
    codes = []
    for argv in runs:
        codes.append(profiler.runcall(cli.main, argv + ["--out", out]))
    assert codes == [0] * len(runs)

    called = {(os.path.realpath(f), line) for f, line, _ in pstats.Stats(profiler).stats}
    uncalled = {name for key, name in _defs().items() if key not in called}
    assert uncalled == set(KEPT), "reached or kept wrongly: " + ", ".join(
        sorted(uncalled ^ set(KEPT))
    )
