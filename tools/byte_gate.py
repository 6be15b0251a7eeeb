"""Byte gate: print every CLI output of a checkout, so two checkouts can be diffed.

    python3 tools/byte_gate.py [--repo DIR] > outputs.txt

Runs every ncflow experiment at its default config with seed 0, and every
seed-0 config of DIR/perfbench/workloads.py, each at ``--workers 1`` and
``--workers 4``, as a fresh ``python -m ncflow.cli`` process on DIR/src.
DIR defaults to the checkout that holds this script.  Outputs and the sieve
cache go to a temporary directory; nothing under DIR is written.  Prints,
each prefixed with the run name and workers count, every line of the CSV and
every leaf of the sidecar ``result`` as ``key=value``, with nested keys and
list indices joined by dots and the value in JSON.  Run it on two checkouts
and diff the two outputs: each differing line names a moved CSV row or
result field with its value on either side, and equal outputs mean
byte-identical results.  Exits 1 if any run fails.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

WORKERS = (1, 4)
SEED = 0


def _leaves(value, key=""):
    """(dotted key, JSON value) for every leaf of a nested dict or list; an
    empty dict or list is a leaf."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for k, v in items:
            yield from _leaves(v, f"{key}.{k}" if key else str(k))
    else:
        yield key, json.dumps(value)


def _load_workloads(repo: str):
    """perfbench/workloads.py of the checkout, imported without writing bytecode."""
    spec = importlib.util.spec_from_file_location(
        "byte_gate_workloads", os.path.join(repo, "perfbench", "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True
    spec.loader.exec_module(module)
    return module


def _runs(repo: str, env: dict, work: str):
    """(name, CLI arguments before --out and --workers, output stem) per run."""
    listing = subprocess.run(
        [sys.executable, "-c", "import ncflow.cli as c; print(*sorted(c.EXPERIMENTS))"],
        env=env, capture_output=True, text=True, check=True,
    )
    for experiment in listing.stdout.split():
        yield f"default/{experiment}", [experiment, "--seed", str(SEED)], experiment
    workloads = _load_workloads(repo)
    for workload_name, make in workloads.WORKLOADS.items():
        for inv in make(SEED).invocations:
            path = os.path.join(work, f"{workload_name}.{inv.name}.config.json")
            with open(path, "w") as fh:
                json.dump(inv.config, fh)
            yield f"{workload_name}/{inv.name}", ["--config", path], inv.config["experiment"]


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=here, help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    repo = os.path.abspath(args.repo)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="byte_gate_") as work:
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"),
                   NCFLOW_CACHE_DIR=os.path.join(work, "cache"))
        for name, cli_args, stem in _runs(repo, env, work):
            for workers in WORKERS:
                out = os.path.join(work, "out", name, str(workers))
                done = subprocess.run(
                    [sys.executable, "-m", "ncflow.cli", *cli_args,
                     "--out", out, "--workers", str(workers)],
                    env=env, cwd=work, capture_output=True, text=True,
                )
                if done.returncode != 0:
                    failed += 1
                    last = (done.stderr.strip().splitlines() or [""])[-1]
                    print(f"{name} workers={workers} exit={done.returncode} {last}", flush=True)
                    continue
                prefix = f"{name} workers={workers}"
                with open(os.path.join(out, f"{stem}.csv")) as fh:
                    lines = [f"{prefix} csv {row}" for row in fh.read().splitlines()]
                with open(os.path.join(out, f"{stem}.json")) as fh:
                    result = json.load(fh)["result"]
                lines += [f"{prefix} result {k}={v}" for k, v in sorted(_leaves(result))]
                print("\n".join(lines), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
