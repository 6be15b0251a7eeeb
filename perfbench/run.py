"""ncflow benchmark: fresh-process CLI workloads, checked outputs, and a traced
per-layer run.

    python3 perfbench/run.py --workload sieve-cold --seed 0 --seconds 25 --trace 0

Run from the repository root; ncflow is imported from ``src/``, and metric
names and units are read from ``BENCHMARK.json``.  Each round runs every
invocation of the workload as a fresh ``python -m ncflow.cli`` process with
``--workers 1``, one after another.  Between invocations, whenever
SETUP_PROBE_EVERY_S have passed since the last one started, a fresh
``import ncflow.cli`` probe runs, so the set-up samples are spread over the
whole run.  Rounds repeat until ``--seconds`` have passed (at least
MIN_ROUNDS).  Timings are per-invocation medians over the rounds,
summed over the workload's invocations.  With ``--trace 1`` the script also
runs ``python -X importtime`` probes and one traced in-process run
(perfbench/trace_run.py) and prints the per-layer metrics instead of the
end-to-end ones.  The last stdout line is the JSON result; a full report,
with the environment and the sha256 of every output, goes to
``.perfbench_work/<workload>/report.json``.

Nothing runs in parallel except the two-thread worker probe of the traced
run.  ``--write-reference`` (seed 0 only) stores the outputs as the values
later seed-0 runs are compared against.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads
from tracer import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

MIN_ROUNDS = 3
SETUP_PROBE_EVERY_S = 2.5
MIN_SETUP_SAMPLES = 7
IMPORTTIME_PROBES = 3
RUN_LIMIT_S = 170.0  # every child is killed by then; the contract allows 180 s

# Span names whose self time is the layer each workload is meant to isolate.
OPERATOR_MODULES = {"matrix_dynamics", "linalg", "car_fock", "free_words"}
OPERATOR_FAMILIES = {
    "flows.values.ad_flow",
    "flows.values.pure_point_flow",
    "flows.values.finite_vn_state_flow",
}
INTENDED_LAYER = {
    "sieve-cold": lambda name: name == "moebius.build_table",
    "series-warm": lambda name: name in ("moebius.phase_values", "flows.values.poly_phase"),
    "operator-flows": lambda name: (
        name.split(".")[0] in OPERATOR_MODULES or name in OPERATOR_FAMILIES
    ),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Starts one child at a time and measures it from outside."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("NCFLOW_CACHE_DIR", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, args, log_path, cache_dir=None):
        """Runs ``python <args>``; returns (wall seconds, peak RSS MiB, exit code)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return 0.0, 0.0, -1
        env = self.env if cache_dir is None else dict(self.env, NCFLOW_CACHE_DIR=cache_dir)
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], env=env, cwd=self.root,
                stdout=log, stderr=subprocess.STDOUT,
            )
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                watchdog.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Bench:
    def __init__(self, root, workload, seed, write_reference):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".perfbench_work", workload.name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.runner = Runner(root, time.monotonic() + RUN_LIMIT_S)
        self.reference = {}
        if seed == 0 and not write_reference and os.path.exists(REFERENCE_PATH):
            with open(REFERENCE_PATH) as fh:
                self.reference = json.load(fh).get(workload.name, {})
        self.config_paths = {}
        for inv in workload.invocations:
            path = os.path.join(self.work, f"{inv.name}.config.json")
            with open(path, "w") as fh:
                json.dump(inv.config, fh)
            self.config_paths[inv.name] = path
        self.warm_cache = os.path.join(self.work, "warm_cache")
        self.runs = {inv.name: [] for inv in workload.invocations}
        self.setup_samples = []
        self.last_probe = -math.inf
        self.first_output = {}  # invocation -> (csv bytes, sidecar result)
        self.environment = {}

    # -- set-up ---------------------------------------------------------------

    def prepare(self):
        """Untimed: compiles bytecode, records versions, fills the warm cache."""
        probe = (
            "import json, platform, sys, numpy, scipy, ncflow.cli; "
            "print(json.dumps({'python': platform.python_version(), "
            "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
            "'ncflow': ncflow.__version__}))"
        )
        log = os.path.join(self.work, "versions.log")
        _, _, code = self.runner.spawn(["-c", probe], log)
        with open(log) as fh:
            lines = fh.read().strip().splitlines()
        if code != 0 or not lines:
            raise BenchError("cannot import ncflow.cli from src/: see " + log)
        self.environment = json.loads(lines[-1])
        self.environment.update(
            git_sha=_git_sha(self.root),
            nproc=os.cpu_count(),
            cpu=_cpu_model(),
            platform=platform.platform(),
        )
        if self.workload.warm_table:
            out = os.path.join(self.work, "warm_setup")
            args = ["-m", "ncflow.cli", "sieve", "--n-max", str(self.workload.warm_table),
                    "--out", out, "--workers", "1"]
            _, _, code = self.runner.spawn(args, out + ".log", cache_dir=self.warm_cache)
            if code != 0:
                raise BenchError("warm-cache set-up failed: see " + out + ".log")

    # -- untimed helpers --------------------------------------------------------

    def _cache_dir(self, inv, tag):
        if inv.cache == "warm":
            return self.warm_cache
        if inv.cache == "fresh":
            path = os.path.join(self.work, "cache", f"{tag}-{inv.name}")
            os.makedirs(path)
            return path
        return None

    def _read_outputs(self, inv, out_dir):
        with open(os.path.join(out_dir, f"{inv.name}.csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(out_dir, f"{inv.name}.json"), "rb") as fh:
            json_bytes = fh.read()
        return csv_bytes, json_bytes, json.loads(json_bytes)

    def check(self, inv, out_dir):
        """Returns (sidecar or None, output record with its failures)."""
        try:
            csv_bytes, json_bytes, sidecar = self._read_outputs(inv, out_dir)
        except (OSError, ValueError) as exc:
            return None, {"failures": [f"unreadable outputs: {exc}"]}
        record = {"csv_sha256": _sha256(csv_bytes), "json_sha256": _sha256(json_bytes)}
        try:
            failures = workloads.check_outputs(
                inv.name, csv_bytes.decode(), sidecar, self.reference.get(inv.name)
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            failures = [f"output check could not read the outputs: {exc!r}"]
        first = self.first_output.setdefault(inv.name, (csv_bytes, sidecar.get("result")))
        if first != (csv_bytes, sidecar.get("result")):
            failures.append("outputs differ from the first run of the same config")
        record["failures"] = failures
        return sidecar, record

    # -- timed rounds -------------------------------------------------------------

    def probe_setup(self):
        self.last_probe = time.monotonic()
        log = os.path.join(self.work, "setup_probe.log")
        wall, _, code = self.runner.spawn(["-c", "import ncflow.cli"], log)
        if code != 0:
            raise BenchError("import ncflow.cli failed: see " + log)
        self.setup_samples.append(wall)

    def run_round(self, index):
        for inv in self.workload.invocations:
            if time.monotonic() - self.last_probe >= SETUP_PROBE_EVERY_S:
                self.probe_setup()
            out_dir = os.path.join(self.work, f"r{index}", inv.name)
            os.makedirs(out_dir)
            cache_dir = self._cache_dir(inv, f"r{index}")
            args = ["-m", "ncflow.cli", "--config", self.config_paths[inv.name],
                    "--out", out_dir, "--workers", "1"]
            wall, rss, code = self.runner.spawn(args, out_dir + ".log", cache_dir)
            if inv.cache == "fresh":
                shutil.rmtree(cache_dir)
            run = {"wall_s": wall, "peak_rss_mb": rss, "exit_code": code}
            if code == 0:
                sidecar, record = self.check(inv, out_dir)
                run.update(record)
                if sidecar is not None and "wall_time_s" in sidecar:
                    run["compute_s"] = sidecar["wall_time_s"]
                    run["result"] = sidecar.get("result")
                elif sidecar is not None:
                    run["failures"].append("sidecar has no wall_time_s")
            else:
                run["failures"] = [f"exit code {code}"]
            self.runs[inv.name].append(run)

    def measure(self, seconds, reserve_s):
        start = time.monotonic()
        rounds = 0
        while True:
            round_start = time.monotonic()
            self.run_round(rounds)
            rounds += 1
            now = time.monotonic()
            if rounds >= MIN_ROUNDS and now - start >= seconds:
                break
            if now + (now - round_start) + reserve_s > self.runner.deadline:
                break
        while len(self.setup_samples) < MIN_SETUP_SAMPLES:
            self.probe_setup()
        return rounds

    # -- results ------------------------------------------------------------------

    def ok_runs(self, name):
        return [r for r in self.runs[name] if not r["failures"] and "compute_s" in r]

    def end_to_end(self):
        walls = [_median([r["wall_s"] for r in self.ok_runs(n)]) for n in self.runs]
        computes = [_median([r["compute_s"] for r in self.ok_runs(n)]) for n in self.runs]
        rss = [r["peak_rss_mb"] for runs in self.runs.values() for r in runs]
        return {
            "wall_s": sum(walls),
            "compute_s": sum(computes),
            "setup_s": _median(self.setup_samples),
            "peak_rss_mb": max(rss, default=0.0),
        }

    def first_result(self, name):
        runs = self.ok_runs(name) if name in self.runs else []
        return runs[0]["result"] if runs else None

    def write_reference(self):
        if self.seed != 0:
            raise BenchError("reference values are taken at the default seed 0")
        stored = {}
        if os.path.exists(REFERENCE_PATH):
            with open(REFERENCE_PATH) as fh:
                stored = json.load(fh)
        entry = {}
        for inv in self.workload.invocations:
            out_dir = os.path.join(self.work, "r0", inv.name)
            csv_bytes, _, sidecar = self._read_outputs(inv, out_dir)
            header, rows = workloads.parse_csv(csv_bytes.decode())
            entry[inv.name] = workloads.reference_record(header, rows, sidecar["result"])
        stored[self.workload.name] = entry
        with open(REFERENCE_PATH, "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")

    # -- traced run ---------------------------------------------------------------

    def import_breakdown(self):
        samples = {"ncflow_cli": [], "numpy": [], "scipy": []}
        for i in range(IMPORTTIME_PROBES):
            log = os.path.join(self.work, f"importtime{i}.log")
            _, _, code = self.runner.spawn(["-X", "importtime", "-c", "import ncflow.cli"], log)
            if code != 0:
                raise BenchError("import ncflow.cli failed: see " + log)
            with open(log) as fh:
                entries = parse_importtime(fh.read())
            for key, package in (("ncflow_cli", "ncflow"), ("numpy", "numpy"), ("scipy", "scipy")):
                samples[key].append(import_seconds(entries, package))
        return {f"import.{k}.s": _median(v) for k, v in samples.items()}

    def traced_run(self):
        """One in-process traced pass over the workload's invocations."""
        invocations = []
        records = {}
        for inv in self.workload.invocations:
            out_dir = os.path.join(self.work, "traced", inv.name)
            os.makedirs(out_dir)
            records[inv.name] = out_dir
            invocations.append({
                "argv": ["--config", self.config_paths[inv.name], "--out", out_dir,
                         "--workers", "1"],
                "cache_dir": self._cache_dir(inv, "traced"),
            })
        spec = {
            "invocations": invocations,
            "probe_seed": self.seed,
            "spans_out": os.path.join(self.work, "spans.json"),
            "result_out": os.path.join(self.work, "traced.json"),
        }
        spec_path = os.path.join(self.work, "trace_spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        log = os.path.join(self.work, "traced.log")
        _, _, code = self.runner.spawn([os.path.join(HERE, "trace_run.py"), spec_path], log)
        if code != 0:
            return None, [f"traced run exited with {code}: see {log}"], len(invocations) + 1
        with open(spec["spans_out"]) as fh:
            spans = json.load(fh)
        with open(spec["result_out"]) as fh:
            traced = json.load(fh)
        failures = []
        failed = 0
        computes = []
        for inv, exit_code in zip(self.workload.invocations, traced["exit_codes"]):
            if exit_code != 0:
                failures.append(f"traced {inv.name} exited with {exit_code}")
                failed += 1
                continue
            sidecar, record = self.check(inv, records[inv.name])
            failures += [f"traced {inv.name}: {f}" for f in record["failures"]]
            failed += bool(record["failures"])
            if sidecar is not None:
                computes.append(sidecar.get("wall_time_s", 0.0))
        if not traced["probe"]["identical"]:
            failures.append("average_series differs between workers 1 and 2")
            failed += 1
        traced["compute_s"] = sum(computes)
        return {"spans": spans, **traced}, failures, failed


def parse_importtime(text):
    """[(depth, module, cumulative seconds)] from ``-X importtime`` output."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        stripped = name.lstrip(" ")
        entries.append(((len(name) - len(stripped)) // 2, stripped, int(fields[1]) / 1e6))
    return entries


def import_seconds(entries, package):
    """Cumulative import time of a package: its outermost entries only."""
    def inside(name):
        return name == package or name.startswith(package + ".")

    total = 0.0
    ancestors = []  # output is post-order; walking it backwards gives pre-order
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if inside(name) and not any(inside(a) for _, a in ancestors):
            total += cumulative
        ancestors.append((depth, name))
    return total


def aggregate_spans(spans):
    agg = {}
    for (name, _, _, _, work), own in zip(spans, self_times(spans)):
        entry = agg.setdefault(name, {"s": 0.0, "calls": 0, "n": 0})
        entry["s"] += own
        entry["calls"] += 1
        entry["n"] += work
    return agg


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def margins(bench):
    """Deterministic certificate margins from the untraced sidecars."""
    out = {}
    tp = bench.first_result("trace-product")
    out["matrix_dynamics.trace_product.discrepancy_ratio"] = (
        tp["max_discrepancy"] / workloads.TRACE_PRODUCT_AGREE_TOL if tp else 0.0
    )
    qz = bench.first_result("quantize")
    if qz:
        gap = abs(complex(qz["s_n_re"], qz["s_n_im"])
                  - complex(qz["s_n_quantized_re"], qz["s_n_quantized_im"]))
        out["matrix_dynamics.quantize.drift_ratio"] = qz["max_drift"] / qz["epsilon"]
        out["matrix_dynamics.finite_bound.gap_ratio"] = gap / qz["epsilon_term"]
    else:
        out["matrix_dynamics.quantize.drift_ratio"] = 0.0
        out["matrix_dynamics.finite_bound.gap_ratio"] = 0.0
    car = bench.first_result("car-demo")
    out["car_fock.car_demo.error_ratio"] = (
        car["max_abs_error"] / workloads.CAR_DEMO_TOL if car else 0.0
    )
    for exp in ("decay", "matrix-flow", "pure-point"):
        res = bench.first_result(exp)
        key = "flows.decay_fit.r_squared." + exp.replace("-", "_")
        out[key] = res["fit"]["r_squared"] if res else 0.0
    return out


def layer_metrics(bench, names, traced, imports, e2e, attempted, failed):
    """Per-layer metrics; those taken from spans are 0 when the traced run
    failed (traced is None), the others are known without it."""
    agg = aggregate_spans(traced["spans"]) if traced else {}
    total_self = sum(entry["s"] for entry in agg.values())
    intended = INTENDED_LAYER[bench.workload.name]
    loads = agg.get("moebius.load_table", {}).get("calls", 0)
    builds = agg.get("moebius.build_table", {}).get("calls", 0)
    n_inv = len(bench.workload.invocations)
    special = {
        "moebius.cache.hit_ratio": _ratio(loads, loads + builds),
        "flows.average_series.workers2_speedup": traced["probe"]["speedup"] if traced else 0.0,
        "cli.overhead_s": e2e["wall_s"] - e2e["compute_s"] - n_inv * imports["import.ncflow_cli.s"],
        "trace.overhead_ratio": _ratio(traced["compute_s"] if traced else 0.0, e2e["compute_s"]),
        "trace.intended_share": _ratio(
            sum(e["s"] for name, e in agg.items() if intended(name)), total_self
        ),
        "failed_frac": _ratio(failed, attempted),
        **imports,
        **margins(bench),
    }
    stat_keys = {"s": "s", "calls": "calls", "n": "n", "bytes": "n"}
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
            continue
        base, stat = name.rsplit(".", 1)
        metrics[name] = agg.get(base, {}).get(stat_keys[stat], 0)
    top = sorted(agg.items(), key=lambda kv: -kv[1]["s"])[:8]
    return metrics, {"top_self_s": [[k, v["s"]] for k, v in top], "layers": agg}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_sha(root):
    """Commit of the checkout when it is a git work tree, else None."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed-0 run's outputs as the reference values")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ncflow", "cli.py")):
        print("perfbench: run from the repository root (src/ncflow not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        contract = json.load(fh)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    bench = Bench(root, workload, args.seed, args.write_reference)
    try:
        bench.prepare()
        # the traced pass, its probe and the importtime probes need room after the loop
        rounds = bench.measure(args.seconds, reserve_s=45.0 if args.trace else 5.0)
        if args.write_reference:
            bench.write_reference()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    runs = [r for name in bench.runs for r in bench.runs[name]]
    attempted = len(runs)
    failed = sum(1 for r in runs if r["failures"])
    e2e = bench.end_to_end()
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": rounds,
        "environment": bench.environment,
        "configs": {inv.name: inv.config for inv in workload.invocations},
        "end_to_end": e2e,
        "setup_samples_s": bench.setup_samples,
        "runs": {
            name: [{k: v for k, v in r.items() if k != "result"} for r in rs]
            for name, rs in bench.runs.items()
        },
    }
    if args.trace:
        try:
            imports = bench.import_breakdown()
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        traced, trace_failures, trace_failed = bench.traced_run()
        attempted += len(workload.invocations) + 1  # traced invocations and the probe
        failed += trace_failed
        report["trace_failures"] = trace_failures
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        metrics, detail = layer_metrics(bench, units, traced, imports, e2e, attempted, failed)
        report.update(detail)
        if traced is not None:
            report.update(missing_targets=traced["missing"], probe=traced["probe"])
    else:
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        metrics = {name: e2e[name] for name in units}
    report["metrics"] = metrics
    with open(os.path.join(bench.work, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    for name, rs in bench.runs.items():
        for f in sorted({f for r in rs for f in r["failures"]}):
            print(f"perfbench: {workload.name}/{name}: {f}", file=sys.stderr)
    for f in report.get("trace_failures", []):
        print(f"perfbench: {workload.name}: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
