"""Workloads: the CLI inputs drawn from a seed, and the checks on their outputs.

Every invocation is ``python -m ncflow.cli --config <file> --out <dir>
--workers 1``; the config file carries everything drawn from the seed.
"""

import csv
import io
import math
import random
from dataclasses import dataclass

TEN_MILLION = 10**7

# Known constants the sieve output must reproduce exactly.
MERTENS_AT_POWERS_OF_TEN = {10**3: 2, 10**4: -23, 10**5: -48, 10**6: 212, 10**7: 1037}
SQUAREFREE_COUNT_AT_TEN_MILLION = 6_079_291

# Certificate tolerances, as the CLI documents them.
TRACE_PRODUCT_AGREE_TOL = 1e-9
CAR_DEMO_TOL = 1e-10
DECAY_TWO_PATH_TOL = 1e-12

# Values at the default seed are compared against perfbench/reference.json
# with |value - ref| <= REF_ATOL + REF_RTOL * |ref|, so a last-ulp change in
# a summation order is not a failure.
REF_ATOL = 1e-9
REF_RTOL = 1e-12


@dataclass(frozen=True)
class Invocation:
    name: str  # experiment name; also names the CSV and sidecar files
    config: dict
    cache: str  # "none": no sieve cache; "fresh": new empty dir; "warm": filled in set-up


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    warm_table: int = 0  # n_max of the table the untimed set-up caches, 0 for none


def _config(experiment, **fields):
    return {"schema_version": 1, "experiment": experiment, **fields}


def sieve_cold(seed):
    n_max = random.Random(seed).randrange(TEN_MILLION, TEN_MILLION + 10**5)
    checkpoints = {10**k for k in range(1, 8)}
    checkpoints |= {round(10**k * math.sqrt(10.0)) for k in range(1, 7)}
    checkpoints.add(n_max)
    sieve = _config("sieve", n_max=n_max, checkpoints=sorted(checkpoints))
    return Workload("sieve-cold", (Invocation("sieve", sieve, "fresh"),))


def series_warm(seed):
    rng = random.Random(seed)
    coeffs = [0.0] + [rng.random() for _ in range(3)]
    decay = _config("decay", n_max=TEN_MILLION, params={"coeffs": coeffs})
    bsz = _config("bsz-check", n_max=TEN_MILLION)
    return Workload(
        "series-warm",
        (Invocation("decay", decay, "warm"), Invocation("bsz-check", bsz, "warm")),
        warm_table=TEN_MILLION,
    )


def operator_flows(seed):
    configs = [
        ("matrix-flow", {"n_max": 10**5, "params": {"dim": 8}}),
        ("trace-product", {"n_max": 3000}),
        ("quantize", {"n_max": 3 * 10**4, "params": {"dim": 8, "epsilon": 0.1}}),
        ("pure-point", {"n_max": 3 * 10**5, "params": {"d": 6}}),
        ("car-demo", {"params": {"d": 6, "samples": 200, "degree": 6}}),
        ("free-clt", {"params": {"q": 10, "p_max": 10}}),
        ("counterexample", {"params": {"L": 10**4}}),
    ]
    return Workload(
        "operator-flows",
        tuple(
            Invocation(name, _config(name, seed=seed, **fields), "none")
            for name, fields in configs
        ),
    )


WORKLOADS = {
    "sieve-cold": sieve_cold,
    "series-warm": series_warm,
    "operator-flows": operator_flows,
}


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _certificate_failures(name, header, rows, result):
    """Failures of the invocation's own certificate, as readable strings."""
    if name == "sieve":
        col = {c: i for i, c in enumerate(header)}
        by_n = {int(r[col["N"]]): r for r in rows}
        out = []
        for n, expect in MERTENS_AT_POWERS_OF_TEN.items():
            got = int(by_n[n][col["mertens"]]) if n in by_n else None
            if got != expect:
                out.append(f"M({n}) = {got}, expected {expect}")
        row = by_n.get(TEN_MILLION)
        q = None if row is None else round(float(row[col["abs_mu_avg"]]) * TEN_MILLION)
        if q != SQUAREFREE_COUNT_AT_TEN_MILLION:
            out.append(f"Q(10^7) = {q}, expected {SQUAREFREE_COUNT_AT_TEN_MILLION}")
        return out
    if name == "decay":
        gap = abs(result["final_abs"] - result["exp_sum_abs_at_n_max"])
        return [] if gap <= DECAY_TWO_PATH_TOL else [f"decay two-path gap {gap:.3e}"]
    if name == "trace-product":
        worst = result["max_discrepancy"]
        ok = worst <= TRACE_PRODUCT_AGREE_TOL
        return [] if ok else [f"trace-product discrepancy {worst:.3e}"]
    if name == "quantize":
        return [] if result["dominates"] is True else ["quantize bound does not dominate"]
    if name == "car-demo":
        worst = result["max_abs_error"]
        return [] if worst <= CAR_DEMO_TOL else [f"car-demo error {worst:.3e}"]
    if name == "counterexample":
        ok = result["bh_abs_matches_density_exactly"] is True
        return [] if ok else ["counterexample |s_L| differs from the squarefree density"]
    return []


def _close(value, ref):
    if isinstance(ref, bool) or not isinstance(ref, (int, float)):
        return value == ref
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value - ref) <= REF_ATOL + REF_RTOL * abs(ref)


def _differences(value, ref, path):
    if isinstance(ref, dict):
        if not isinstance(value, dict) or set(value) != set(ref):
            return [f"{path}: keys differ"]
        return [d for k in ref for d in _differences(value[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{path}: length differs"]
        return [
            d for i, (v, r) in enumerate(zip(value, ref))
            for d in _differences(v, r, f"{path}[{i}]")
        ]
    return [] if _close(value, ref) else [f"{path}: {value!r} vs reference {ref!r}"]


def csv_values(rows):
    """CSV cells as numbers where they parse, for comparison by value."""
    def cell(c):
        try:
            return int(c)
        except ValueError:
            try:
                return float(c)
            except ValueError:
                return c

    return [[cell(c) for c in row] for row in rows]


def reference_record(header, rows, result):
    return {"header": header, "rows": csv_values(rows), "result": result}


def check_outputs(name, csv_text, sidecar, reference=None):
    """All failures of one invocation's outputs; reference is this
    invocation's stored record when the run uses the default seed."""
    header, rows = parse_csv(csv_text)
    result = sidecar["result"]
    failures = _certificate_failures(name, header, rows, result)
    if reference is not None:
        failures += _differences(reference_record(header, rows, result), reference, name)
    return failures
