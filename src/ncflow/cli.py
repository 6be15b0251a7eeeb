"""Experiment runner: composes the sieve, flows, and operator modules into
reproducible experiments that emit a results CSV plus a JSON sidecar.

Outputs are deterministic given (config, seed): CSV floats are printed with 17
significant digits, the sidecar echoes the fully resolved config, and worker
count never changes a single output byte (see the summation contract in
moebius).  The only run-dependent sidecar fields are timestamp and wall_time_s.
"""

import argparse
import datetime
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import __version__
from .car_fock import (
    MAX_MODES,
    annihilation,
    counterexample_flow,
    creation,
    creation_matrix,
    fock_space,
    pure_point_flow,
    quasifree_density_matrix,
    quasifree_eval,
)
from .flows import (
    CSV_COLUMNS,
    BSZReport,
    Flow,
    FlowEvaluationError,
    average_series,
    bsz_check,
    bsz_prime_cap,
    check_fit_checkpoints,
    constant_flow,
    decay_fit,
    geometric_checkpoints,
    rotation_flow,
)
from .free_words import NC_ORDER_CAP, free_clt_moments, semicircle_moments
from .linalg import haar_unitary, op_norm, random_density
from .matrix_dynamics import (
    TraceProductSpec,
    ad_flow,
    finite_vn_average_bound,
    quantize_drift,
    quantize_grid_size,
    quantize_unitary,
    trace_product_sum,
)
from .moebius import (
    N_MAX_CAP,
    checked_checkpoints,
    exp_sum,
    load_or_build_table,
    phase_values,
    prefix_counts,
)

SCHEMA_VERSION = 1

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# at _MAX_DIM, k = 32, a 1024-row tile of k x k complex matrices is 16 MiB, and
# ad_flow holds one tile of walked matrices and one trace tile: matrix-flow to
# n_max 10^5 at seed 0 peaked at 48 MiB by tracemalloc and 86 MiB of RSS in
# process, and one trace product (d = 2) at 66 MiB by tracemalloc
_MAX_DIM = 32

# the bsz-check flows by name; the bsz-check record refuses any other name
BSZ_FLOWS = {
    "golden": lambda: rotation_flow(GOLDEN, label="golden_rotation"),
    "constant": lambda: constant_flow(1.0),
}


class ConfigError(ValueError):
    """Malformed config or usage; maps to exit code 2."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A JSON number that float() takes without overflow."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


# the JSON type test for each Python type of a field or parameter default;
# a bool is neither an integer nor a number
_JSON_TYPES = {
    int: (_is_int, "an integer"),
    float: (_is_finite, "a finite number"),
    str: (lambda x: isinstance(x, str), "a string"),
    list: (lambda x: isinstance(x, (list, tuple)), "a list"),
    dict: (lambda x: isinstance(x, dict), "an object"),
}
_FIELD_TYPES = {"schema_version": int, "experiment": str, "seed": int, "n_max": int,
                "checkpoints": list, "out_dir": str, "params": dict}


def _check_type(name: str, value, kind: type) -> None:
    is_kind, what = _JSON_TYPES[kind]
    if not is_kind(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass
class ExperimentConfig:
    """A config whose fields have their JSON types, checked on construction;
    resolve_config checks the parameters."""

    experiment: str
    seed: Optional[int] = None
    n_max: Optional[int] = None
    checkpoints: Optional[tuple] = None
    out_dir: str = "."
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                _check_type(f.name, value, _FIELD_TYPES[f.name])
        if self.experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {known}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoints is not None:
            for n in self.checkpoints:
                _check_type("each checkpoint", n, int)
            self.checkpoints = tuple(self.checkpoints)

    def to_json_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(map(repr, set(data) - set(_FIELD_TYPES)))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    version = data.get("schema_version", SCHEMA_VERSION)
    _check_type("schema_version", version, int)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r} (this build reads {SCHEMA_VERSION})"
        )
    if "experiment" not in data:
        raise ConfigError("no experiment given (positional name or the config's experiment)")
    return ExperimentConfig(**{k: v for k, v in data.items() if k != "schema_version"})


def _check_out_dir(path: str) -> None:
    """Refuse, creating nothing, an empty out dir, one the OS cannot name, or one
    whose nearest existing ancestor is not a writable directory."""
    try:
        probe = os.path.abspath(path) if path and b"\0" not in os.fsencode(path) else None
    except UnicodeEncodeError:
        probe = None
    while probe is not None and not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if probe is None or not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError(f"out_dir {path!r} cannot be created")


def resolve_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check the parameters and fill every default, so the sidecar echo
    reruns identically."""
    experiment = EXPERIMENTS[cfg.experiment]
    unknown = sorted(map(repr, set(cfg.params) - set(experiment.params)))
    if unknown:
        raise ConfigError(
            f"unknown parameters for {cfg.experiment!r}: {', '.join(unknown)}"
        )
    for key, value in cfg.params.items():
        if isinstance(value, bool):
            raise ConfigError(f"parameter {key!r} has no boolean form")
        default = experiment.params[key]
        _check_type(f"parameter {key!r}", value, type(default))
        if isinstance(default, int) and value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
        if isinstance(default, list) and not (value and all(map(_is_finite, value))):
            raise ConfigError(f"{key} must be a non-empty list of finite numbers")
        cap = experiment.caps.get(key)
        if cap is not None and value > cap:
            raise ConfigError(f"{key} must be <= {cap}, got {value}")
    if experiment.randomized and cfg.seed is None:
        raise ConfigError(f"experiment {cfg.experiment!r} is randomized; --seed is mandatory")
    params = {**experiment.params, **cfg.params}
    n_max = cfg.n_max
    if experiment.horizon is not None:
        key, window = experiment.horizon, int(params[experiment.horizon])
        if n_max not in (None, window):
            raise ConfigError(
                f"{cfg.experiment} reads its sieve table up to {key} = {window}; "
                f"drop n_max or set it to {key}, got {n_max}"
            )
        n_max = window
    elif experiment.n_max is None and (cfg.n_max, cfg.checkpoints) != (None, None):
        drop = "n_max" if cfg.n_max is not None else "checkpoints"
        raise ConfigError(f"experiment {cfg.experiment!r} reads no sieve table; drop {drop}")
    elif n_max is None:
        n_max = experiment.n_max
    if n_max is not None and not 1 <= n_max <= N_MAX_CAP:
        raise ConfigError(f"n_max must lie in [1, {N_MAX_CAP}], got {n_max}")
    _check_out_dir(cfg.out_dir)
    try:
        if cfg.checkpoints is not None:
            checked_checkpoints(n_max, cfg.checkpoints)
        experiment.check(params, n_max)
        if experiment.fits:
            check_fit_checkpoints(_checkpoints(cfg, n_max))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return replace(cfg, n_max=n_max, params=params)


# ---------------------------------------------------------------------------
# experiment bodies: each returns (csv header, csv rows, sidecar result dict)


def _checkpoints(cfg: ExperimentConfig, horizon: int):
    if cfg.checkpoints is not None:
        return cfg.checkpoints
    return geometric_checkpoints(horizon)


def _fitted_series(cfg, table, workers, flow, **extra):
    """CSV and sidecar result of a flow's series at the config's checkpoints,
    with its decay fit and the extra result keys."""
    series = average_series(flow, table, _checkpoints(cfg, cfg.n_max), workers=workers)
    result = {**_series_payload(series, decay_fit(series)), **extra}
    return CSV_COLUMNS, list(series.csv_rows()), result


def _series_payload(series, fit=None) -> dict:
    final = complex(series.values[-1])
    out = {
        "label": series.label,
        "declared_bound": float(series.declared_bound),
        "final_N": int(series.checkpoints[-1]),
        "final_abs": abs(final),
        "final_re": final.real,
        "final_im": final.imag,
    }
    if fit is not None:
        out["fit"] = asdict(fit)
    return out


def _hermitian_contraction(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / op_norm(h)


def _symbol_contraction(rng, dim: int) -> np.ndarray:
    v = haar_unitary(dim, rng)
    lam = rng.random(dim)
    return (v * lam) @ v.conj().T


def _unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _run_sieve(cfg, table, workers):
    cps = _checkpoints(cfg, cfg.n_max)
    ns = sorted({*cps, cfg.n_max})
    counts = dict(zip(ns, prefix_counts(table, ns)))
    rows = []
    for n in cps:
        m, q = counts[n]
        rows.append((n, m, m / n, q / n))
    header = ("N", "mertens", "mertens_over_N", "abs_mu_avg")
    m_max, q_max = counts[cfg.n_max]
    result = {
        "n_max": cfg.n_max,
        "mertens_at_n_max": m_max,
        "mertens_over_n_max": m_max / cfg.n_max,
        "squarefree_density": q_max / cfg.n_max,
    }
    return header, rows, result


def _run_decay(cfg, table, workers):
    coeffs = tuple(float(c) for c in cfg.params["coeffs"])
    flow = Flow(
        values_at=lambda ns: phase_values(coeffs, ns),
        declared_bound=1.0,
        label=f"poly_phase(degree={len(coeffs) - 1})",
    )
    return _fitted_series(
        cfg, table, workers, flow,
        exp_sum_abs_at_n_max=abs(exp_sum(table, coeffs, cfg.n_max)),
    )


def _run_matrix_flow(cfg, table, workers):
    dim = int(cfg.params["dim"])
    rng = np.random.default_rng(cfg.seed)
    u = haar_unitary(dim, rng)
    rho = random_density(dim, rng)
    a = _hermitian_contraction(rng, dim)
    return _fitted_series(cfg, table, workers, ad_flow(u, a, rho), dim=dim)


# trace_product_sum streams n run by run, so its memory stays flat in n_max,
# but its time does not: one product (k = 4, d = 2) took 8.6-9.0 s and peaked
# at 41.9 MiB at n_max 10^6 on 2 cores, about 15 minutes at the 10^8 cap
TRACE_PRODUCT_N_MAX = 10**6
# its time also grows with k, d and count, and with the bits of the largest
# phase coeff_max * n_max, one binary-power product each in the direct path.
# Seconds per factor, n and phase bit of one product, for k up to each key, on
# 2 cores at d = 2, coeff_max 7 and n_max 20000: 0.28e-6 at k = 4 (0.32e-6 at
# n_max 10^5), 0.40e-6 at 8, 1.05e-6 at 16 and 5.2e-6 at 32 (4.5e-6 with
# coeff_max at its cap)
TRACE_PRODUCT_COST = {4: 0.3e-6, 8: 0.4e-6, 16: 1.1e-6, 32: 5.5e-6}
TRACE_PRODUCT_SECONDS = 120  # cap on count * d * n_max * bits * cost(k)


def _check_trace_product(params, n_max):
    if n_max > TRACE_PRODUCT_N_MAX:
        raise ValueError(f"trace-product n_max must be <= {TRACE_PRODUCT_N_MAX}, got {n_max}")
    k, d, count = params["k"], params["d"], params["count"]
    bits = (params["coeff_max"] * n_max).bit_length()
    cost = next(cost for top, cost in TRACE_PRODUCT_COST.items() if k <= top)
    seconds = count * d * n_max * bits * cost
    if seconds > TRACE_PRODUCT_SECONDS:
        raise ValueError(
            f"trace-product work count * d * n_max * bits * cost(k) = {count} * {d} *"
            f" {n_max} * {bits} * {cost:g} s = {seconds:.3g} s is past its cap of"
            f" {TRACE_PRODUCT_SECONDS} s"
        )


def _run_trace_product(cfg, table, workers):
    k = int(cfg.params["k"])
    d = int(cfg.params["d"])
    count = int(cfg.params["count"])
    coeff_max = int(cfg.params["coeff_max"])
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = 0.0
    for i in range(count):
        unitaries = tuple(haar_unitary(k, rng) for _ in range(d))
        contractions = []
        for _ in range(d):
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            contractions.append(g / op_norm(g))
        polys = tuple((0, int(rng.integers(1, coeff_max + 1))) for _ in range(d))
        spec = TraceProductSpec(unitaries, tuple(contractions), polys)
        res = trace_product_sum(spec, table, cfg.n_max)
        value, eigen = res.value, res.eigen_value
        rows.append((i, value.real, value.imag, eigen.real, eigen.imag, res.discrepancy))
        worst = max(worst, res.discrepancy)
    header = ("index", "re", "im", "eigen_re", "eigen_im", "discrepancy")
    result = {"k": k, "d": d, "N": cfg.n_max, "max_discrepancy": worst}
    return header, rows, result


def _run_quantize(cfg, table, workers):
    dim = int(cfg.params["dim"])
    epsilon = float(cfg.params["epsilon"])
    horizon = cfg.n_max
    rng = np.random.default_rng(cfg.seed)
    u = haar_unitary(dim, rng)
    quantized = quantize_unitary(u, epsilon, horizon)
    cps = _checkpoints(cfg, horizon)
    drifts = quantize_drift(u, quantized, cps)
    rows = [(n, drift, epsilon) for n, drift in zip(cps, drifts)]
    max_drift = max(drifts, default=0.0)
    t = _hermitian_contraction(rng, dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    bound = finite_vn_average_bound(u, quantized, t, g, table, horizon)
    result = {
        "dim": dim,
        "epsilon": epsilon,
        "horizon": horizon,
        "grid_size": quantized.grid_size,
        "max_drift": max_drift,
        "s_n_re": bound.s_n.real,
        "s_n_im": bound.s_n.imag,
        "s_n_quantized_re": bound.s_n_quantized.real,
        "s_n_quantized_im": bound.s_n_quantized.imag,
        "epsilon_term": bound.epsilon_term,
        "exp_term": bound.exp_term,
        "bound": bound.bound,
        "max_exp_sum_abs": bound.max_exp_sum_abs,
        "dominates": bound.dominates,
    }
    header = ("n", "drift", "epsilon")
    return header, rows, result


def _run_car_demo(cfg, table, workers):
    d = int(cfg.params["d"])
    samples = int(cfg.params["samples"])
    degree = int(cfg.params["degree"])
    rng = np.random.default_rng(cfg.seed)
    space = fock_space(d)
    symbol = _symbol_contraction(rng, d)
    rho = quasifree_density_matrix(symbol, space)
    rows = []
    worst = 0.0
    for s in range(samples):
        deg = int(rng.integers(1, degree + 1))
        poly = None
        for _ in range(deg):
            factor = (creation if rng.integers(0, 2) else annihilation)(_unit_vector(rng, d))
            poly = factor if poly is None else poly * factor
        lhs = quasifree_eval(symbol, poly)
        rhs = complex(np.trace(rho @ poly.to_matrix(space)))
        err = abs(lhs - rhs)
        worst = max(worst, err)
        rows.append((s, deg, lhs.real, lhs.imag, err))
    car_residual = 0.0
    for _ in range(10):
        f = _unit_vector(rng, d)
        g = _unit_vector(rng, d)
        af = creation_matrix(space, f).conj().T
        ag_star = creation_matrix(space, g)
        anti = af @ ag_star + ag_star @ af
        anti -= np.vdot(g, f) * np.eye(space.dim)
        car_residual = max(car_residual, op_norm(anti))
    header = ("sample", "degree", "value_re", "value_im", "abs_error")
    result = {
        "d": d,
        "samples": samples,
        "max_abs_error": worst,
        "anticommutator_residual": car_residual,
    }
    return header, rows, result


def _run_counterexample(cfg, table, workers):
    L = int(cfg.params["L"])
    flows = counterexample_flow(L, table)
    cps = sorted({*_checkpoints(cfg, L), L})  # the certificate is read at N = L
    bh, car = (
        average_series(f, table, cps, workers=workers) for f in (flows.bh_flow, flows.car_flow)
    )
    header = ("flow",) + CSV_COLUMNS
    rows = [(s.label,) + r for s in (bh, car) for r in s.csv_rows()]
    payload = {s.label: _series_payload(s) for s in (bh, car)}
    bh_abs = payload[bh.label]["final_abs"]
    density = bh.abs_mu_counts[-1] / L
    result = {
        "L": L,
        "dim": flows.dim,
        "series": payload,
        "squarefree_density_at_L": density,
        "bh_abs_at_L": bh_abs,
        "bh_abs_matches_density_exactly": bh_abs == density,
    }
    return header, rows, result


def _run_pure_point(cfg, table, workers):
    d = int(cfg.params["d"])
    rng = np.random.default_rng(cfg.seed)
    angles = rng.random(d)
    symbol = _symbol_contraction(rng, d)
    v = [_unit_vector(rng, d) for _ in range(6)]
    observable = (
        creation(v[0]) * creation(v[1]) * annihilation(v[2]) * annihilation(v[3])
        + creation(v[4]) * annihilation(v[5])
    )
    flow = pure_point_flow(angles, observable, symbol)
    return _fitted_series(cfg, table, workers, flow, d=d)


def _run_free_clt(cfg, table, workers):
    q = int(cfg.params["q"])
    p_max = int(cfg.params["p_max"])
    moments = free_clt_moments(q, p_max)
    semi = semicircle_moments(p_max)
    rows = []
    gaps = []
    for p, (m, s) in enumerate(zip(moments, semi), start=1):
        gap = s - m
        gaps.append(gap)
        rows.append((p, float(m), float(s), float(gap)))
    header = ("p", "m_p", "semicircle_m_p", "gap")
    result = {
        "q": q,
        "p_max": p_max,
        "moments": [str(Fraction(m)) for m in moments],
        "gaps": [str(Fraction(g)) for g in gaps],
    }
    if p_max >= 4:
        result["gap_at_4"] = str(Fraction(gaps[3]))
    return header, rows, result


def _check_bsz(params, n_max):
    if params["flow"] not in BSZ_FLOWS:
        known = ", ".join(sorted(BSZ_FLOWS))
        raise ValueError(f"unknown bsz-check flow {params['flow']!r}; expected one of {known}")
    bsz_prime_cap(params["epsilon"], params["M"], n_max)


def _run_bsz_check(cfg, table, workers):
    epsilon = float(cfg.params["epsilon"])
    M = int(cfg.params["M"])
    flow = BSZ_FLOWS[cfg.params["flow"]]()
    report = bsz_check(flow, table, epsilon, M, cfg.n_max)
    result = {
        "flow": flow.label,
        **asdict(report),
        "within_analytic_bound": report.within_analytic_bound,
    }
    header = tuple(f.name for f in fields(BSZReport))
    return header, [astuple(report)], result


@dataclass(frozen=True)
class Experiment:
    """One registry record.  params maps each parameter to its default (the
    type is inferred from it), caps to its upper bound; check(params, n_max)
    raises ValueError for parameters the runner cannot take.  n_max is the
    default horizon, None without a sieve; horizon names the parameter that
    fixes the horizon instead.  fits marks the runners that fit a decay law."""

    params: dict
    runner: Callable
    n_max: Optional[int] = None
    randomized: bool = False
    caps: dict = field(default_factory=dict)
    check: Callable = lambda params, n_max: None
    fits: bool = False
    horizon: Optional[str] = None


EXPERIMENTS = {
    "sieve": Experiment({}, _run_sieve, n_max=10**6),
    "decay": Experiment({"coeffs": [0.0, GOLDEN]}, _run_decay, n_max=10**5, fits=True),
    "matrix-flow": Experiment(
        {"dim": 8}, _run_matrix_flow, n_max=10**5, randomized=True,
        caps={"dim": _MAX_DIM}, fits=True,
    ),
    "trace-product": Experiment(
        {"k": 4, "d": 2, "count": 5, "coeff_max": 7}, _run_trace_product,
        n_max=10**3, randomized=True,
        caps={
            "k": _MAX_DIM,
            # time grows linearly in d: one product to n_max 10^5 took
            # 6-7 s at d = 16 and 24 s at d = 64 on 2 cores
            "d": 16,
            "coeff_max": (2**63 - 1) // N_MAX_CAP,  # phases c * n < 2^63
        },
        check=_check_trace_product,
    ),
    "quantize": Experiment(
        {"dim": 8, "epsilon": 0.1}, _run_quantize, n_max=10**4, randomized=True,
        caps={"dim": _MAX_DIM},
        check=lambda params, n_max: quantize_grid_size(float(params["epsilon"]), n_max),
    ),
    "car-demo": Experiment(
        {"d": 4, "samples": 50, "degree": 4}, _run_car_demo, randomized=True,
        # normal ordering grows combinatorially: a word of j a(f) then j a(g)*
        # took 0.3 s at degree 2j = 12, and 34 s and 495 MiB at 16
        caps={"d": MAX_MODES, "degree": 12},
    ),
    "counterexample": Experiment({"L": 10_000}, _run_counterexample, horizon="L"),
    "pure-point": Experiment(
        {"d": 6}, _run_pure_point, n_max=10**5, randomized=True,
        caps={"d": _MAX_DIM}, fits=True,
    ),
    "free-clt": Experiment(  # free_clt_moments refuses orders past NC_ORDER_CAP
        {"q": 10, "p_max": 8}, _run_free_clt, caps={"p_max": NC_ORDER_CAP}
    ),
    "bsz-check": Experiment(
        {"epsilon": 0.25, "M": 10_000, "flow": "golden"}, _run_bsz_check, n_max=10**6,
        # M values per prime up to 200, 74 MB at M = 10^5: at n_max 10^8 that
        # peaked with the 2-bit table at 87 MiB, and M = 10^7 at 909 MiB
        caps={"M": 10**5}, check=_check_bsz,
    ),
}
EXPERIMENTS["mertens"] = EXPERIMENTS["sieve"]


# ---------------------------------------------------------------------------
# serialization


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg: ExperimentConfig, *, workers: int = 1) -> int:
    """Run one experiment; writes <out>/<experiment>.csv and .json."""
    cfg = resolve_config(cfg)
    started = time.perf_counter()
    table = None
    if cfg.n_max is not None:
        table = load_or_build_table(cfg.n_max)
    header, rows, result = EXPERIMENTS[cfg.experiment].runner(cfg, table, workers)
    wall = time.perf_counter() - started
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, f"{cfg.experiment}.csv")
    json_path = os.path.join(cfg.out_dir, f"{cfg.experiment}.json")
    _write_csv(csv_path, header, rows)
    sidecar = {
        "config": cfg.to_json_dict(),
        "library_version": __version__,
        "result": result,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": wall,
    }
    with open(json_path, "w", newline="") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    print(f"{cfg.experiment}: wrote {csv_path} and {json_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    names = sorted(EXPERIMENTS)
    parser = argparse.ArgumentParser(
        prog="ncflow",
        description="Run a Moebius-average experiment and write CSV/JSON artifacts.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=names,
        help="experiment to run (or name it in the --config file)",
    )
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int, help="RNG seed (mandatory for randomized experiments)")
    parser.add_argument("--n-max", dest="n_max", type=int, help="series horizon / sieve range")
    parser.add_argument("--out", help="output directory (default: current directory)")
    parser.add_argument(
        "--workers", type=int, default=1, help="summation worker count (output-invariant)"
    )
    return parser


def _merge_config(args) -> ExperimentConfig:
    """The config file's fields with the flags laid over them."""
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
    if isinstance(data, dict):  # config_from_dict refuses anything else
        named = data.get("experiment", args.experiment)
        if args.experiment is not None and named != args.experiment:
            raise ConfigError(
                f"experiment {args.experiment!r} on the command line conflicts with "
                f"{named!r} in the config file"
            )
        flags = {"experiment": args.experiment, "seed": args.seed, "n_max": args.n_max,
                 "out_dir": args.out}
        data.update((k, v) for k, v in flags.items() if v is not None)
    return config_from_dict(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
    except ConfigError as exc:
        print(f"ncflow: error: {exc}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("ncflow: error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        return run(cfg, workers=args.workers)
    except (ConfigError, OSError) as exc:
        print(f"ncflow: error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, FlowEvaluationError, ValueError) as exc:
        print(f"ncflow: numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
