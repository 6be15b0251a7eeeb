"""Byte gate: print every CLI output of a checkout, so two checkouts can be diffed.

    python3 tools/byte_gate.py [--repo DIR] > outputs.txt
    python3 tools/byte_gate.py [--repo DIR] --against outputs.txt

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

With ``--against FILE``, the output of an earlier run, it prints instead
each line that moved, with its largest absolute move over the line's
numeric fields, then the largest move of each moved field (CSV column or
result key, per run name, over both workers counts).  It exits 1 if a run
fails, a line is missing on either side, a non-numeric field changed, or a
move passes REF_ATOL + REF_RTOL |ref| of DIR/perfbench/workloads.py, with
ref the earlier value: the tolerance that perfbench's reference check
allows.
"""

import argparse
import importlib.util
import json
import math
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


def _runs(workloads, env: dict, work: str):
    """(name, CLI arguments before --out and --workers, output stem) per run."""
    listing = subprocess.run(
        [sys.executable, "-c", "import ncflow.cli as c; print(*sorted(c.EXPERIMENTS))"],
        env=env, capture_output=True, text=True, check=True,
    )
    for experiment in listing.stdout.split():
        yield f"default/{experiment}", [experiment, "--seed", str(SEED)], experiment
    for workload_name, make in workloads.WORKLOADS.items():
        for inv in make(SEED).invocations:
            path = os.path.join(work, f"{workload_name}.{inv.name}.config.json")
            with open(path, "w") as fh:
                json.dump(inv.config, fh)
            yield f"{workload_name}/{inv.name}", ["--config", path], inv.config["experiment"]


def _outputs(repo: str, workloads):
    """Every output line of every run, in order; a failed run gives one
    line with its exit code."""
    with tempfile.TemporaryDirectory(prefix="byte_gate_") as work:
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"),
                   NCFLOW_CACHE_DIR=os.path.join(work, "cache"))
        for name, cli_args, stem in _runs(workloads, env, work):
            for workers in WORKERS:
                out = os.path.join(work, "out", name, str(workers))
                done = subprocess.run(
                    [sys.executable, "-m", "ncflow.cli", *cli_args,
                     "--out", out, "--workers", str(workers)],
                    env=env, cwd=work, capture_output=True, text=True,
                )
                prefix = f"{name} workers={workers}"
                if done.returncode != 0:
                    last = (done.stderr.strip().splitlines() or [""])[-1]
                    yield f"{prefix} exit={done.returncode} {last}"
                    continue
                with open(os.path.join(out, f"{stem}.csv")) as fh:
                    for row in fh.read().splitlines():
                        yield f"{prefix} csv {row}"
                with open(os.path.join(out, f"{stem}.json")) as fh:
                    result = json.load(fh)["result"]
                for k, v in sorted(_leaves(result)):
                    yield f"{prefix} result {k}={v}"


def _fields(lines):
    """{line key: [(field name, value text)]} for gate output lines.  A CSV
    row is keyed by its run and row number, its fields named by the header
    row; a result leaf is keyed by its run and dotted key."""
    fields, header, rows = {}, {}, {}
    for line in lines:
        name, workers, kind, rest = (line.split(" ", 3) + ["", ""])[:4]
        run = f"{name} {workers}"
        if kind == "csv":
            index = rows.get(run, 0)
            rows[run] = index + 1
            values = rest.split(",")
            if index == 0:
                header[run] = values
            names = header.get(run, [])
            fields[f"{run} csv {index}"] = [
                (names[i] if i < len(names) else str(i), v) for i, v in enumerate(values)
            ]
        elif kind == "result":
            key, value = _split_leaf(rest)
            fields[f"{run} result {key}"] = [(key, value)]
        else:
            fields[f"{run} {kind} {rest}"] = [("exit", line)]
    return fields


def _split_leaf(text: str):
    """(key, JSON value) of a key=value leaf; a key may hold '=' (a flow
    label such as shift_symbol(L=10)), so the split is at the first '='
    whose remainder parses as JSON."""
    at = text.find("=")
    while at >= 0:
        try:
            json.loads(text[at + 1 :])
            return text[:at], text[at + 1 :]
        except ValueError:
            at = text.find("=", at + 1)
    return text, ""


def _number(text: str):
    """The float a field holds, or None for a non-numeric field."""
    try:
        value = json.loads(text)
    except ValueError:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _compare(earlier, now, atol: float, rtol: float):
    """(report lines, count of failures) for moves of now against earlier."""
    before, after = _fields(earlier), _fields(now)
    report, failures, moved, field_moves = [], 0, 0, {}
    for key in [*before, *(k for k in after if k not in before)]:
        if key not in before or key not in after:
            failures += 1
            report.append(f"only in the {'earlier' if key in before else 'new'} run: {key}")
            continue
        old, new = before[key], after[key]
        if old == new:
            continue
        largest, past = 0.0, len(old) != len(new)
        for (name, a), (_, b) in zip(old, new):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or not math.isfinite(x - y):
                move = math.inf
            else:
                move = abs(y - x)
            past = past or not move <= atol + rtol * abs(x if x is not None else 0.0)
            largest = max(largest, move)
            run_name, _, kind, _ = key.split(" ", 3)
            field = f"{run_name} {kind} {name}"
            field_moves[field] = max(field_moves.get(field, 0.0), move)
        failures += past
        moved += 1
        mark = " PAST TOLERANCE" if past else ""
        report.append(f"moved {largest:.3g}{mark}: {key}")
    for field, move in sorted(field_moves.items()):
        report.append(f"field {field}: largest move {move:.3g}")
    report.append(
        f"{moved} of {len(after)} lines moved,"
        f" {failures} failures (tolerance {atol:g} + {rtol:g} |ref|)"
    )
    return report, failures


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=here, help="checkout to run (default: this one)")
    parser.add_argument("--against", metavar="FILE",
                        help="output of an earlier run: print only what moved, and by how much")
    args = parser.parse_args(argv)
    repo = os.path.abspath(args.repo)
    workloads = _load_workloads(repo)
    failed = 0
    lines = []
    for line in _outputs(repo, workloads):
        failed += line.split(" ", 3)[2].startswith("exit=")
        if args.against:
            lines.append(line)
        else:
            print(line, flush=True)
    if args.against:
        with open(args.against) as fh:
            earlier = fh.read().splitlines()
        report, failures = _compare(earlier, lines, workloads.REF_ATOL, workloads.REF_RTOL)
        print("\n".join(report), flush=True)
        failed += failures
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
