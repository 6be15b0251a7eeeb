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
    constant_flow,
    decay_fit,
    geometric_checkpoints,
    rotation_flow,
)
from .free_words import free_clt_moments, semicircle_moments
from .linalg import haar_unitary, op_norm, random_density, unitary_power
from .matrix_dynamics import (
    TraceProductSpec,
    ad_flow,
    finite_vn_average_bound,
    quantize_grid_size,
    quantize_unitary,
    trace_product_sum,
)
from .moebius import (
    N_MAX_CAP,
    PolynomialPhase,
    checked_checkpoints,
    exp_sum,
    load_or_build_table,
    mertens,
    phase_values,
    squarefree_count,
)

SCHEMA_VERSION = 1

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# at _MAX_DIM an 8192-index tile of k x k complex matrices is 128 MiB
_MAX_DIM = 32
_MATRIX_DIMS = {"matrix-flow": "dim", "trace-product": "k", "quantize": "dim", "pure-point": "d"}
_SIZE_CAPS = {**{pair: _MAX_DIM for pair in _MATRIX_DIMS.items()}, ("car-demo", "d"): MAX_MODES}


class ConfigError(ValueError):
    """Malformed config or usage; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    experiment: str
    seed: Optional[int] = None
    n_max: Optional[int] = None
    checkpoints: Optional[tuple] = None
    out_dir: str = "."
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


_TOP_KEYS = {"schema_version", *(f.name for f in fields(ExperimentConfig))}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r} (this build reads {SCHEMA_VERSION})"
        )
    experiment = data.get("experiment")
    if experiment is None:
        raise ConfigError("config is missing the experiment name")
    cps = data.get("checkpoints")
    if cps is not None:
        cps = tuple(int(c) for c in cps)
    cfg = ExperimentConfig(
        experiment=str(experiment),
        seed=None if data.get("seed") is None else int(data["seed"]),
        n_max=None if data.get("n_max") is None else int(data["n_max"]),
        checkpoints=cps,
        out_dir=str(data.get("out_dir", ".")),
        params=dict(data.get("params", {})),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; expected one of {known}")
    spec = EXPERIMENTS[cfg.experiment].params
    unknown = sorted(set(cfg.params) - set(spec))
    if unknown:
        raise ConfigError(
            f"unknown parameters for {cfg.experiment!r}: {', '.join(unknown)}"
        )
    for key, value in cfg.params.items():
        default = spec[key]
        if isinstance(default, bool) or isinstance(value, bool):
            raise ConfigError(f"parameter {key!r} has no boolean form")
        if isinstance(default, int) and not isinstance(value, int):
            raise ConfigError(f"parameter {key!r} must be an integer")
        if isinstance(default, float) and not isinstance(value, (int, float)):
            raise ConfigError(f"parameter {key!r} must be a number")
        if isinstance(default, str) and not isinstance(value, str):
            raise ConfigError(f"parameter {key!r} must be a string")
        if isinstance(default, list) and not isinstance(value, list):
            raise ConfigError(f"parameter {key!r} must be a list")
        if isinstance(default, int) and value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
        cap = _SIZE_CAPS.get((cfg.experiment, key))
        if cap is not None and value > cap:
            raise ConfigError(f"{key} must be <= {cap}, got {value}")
        if key == "coeffs" and not (
            value and all(type(c) in (int, float) and math.isfinite(c) for c in value)
        ):
            raise ConfigError("coeffs must be a non-empty list of finite numbers")
        if (cfg.experiment, key) == ("bsz-check", "epsilon") and not 0.0 < value < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {value}")
    if EXPERIMENTS[cfg.experiment].randomized and cfg.seed is None:
        raise ConfigError(f"experiment {cfg.experiment!r} is randomized; --seed is mandatory")


def resolve_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill every default so the sidecar echo reruns identically."""
    _validate(cfg)
    experiment = EXPERIMENTS[cfg.experiment]
    params = dict(experiment.params)
    params.update(cfg.params)
    n_max = cfg.n_max
    if cfg.experiment == "counterexample":
        window = int(params["L"])
        if n_max not in (None, window):
            raise ConfigError(
                f"counterexample reads its sieve table up to L = {window}; "
                f"drop n_max or set it to L, got {n_max}"
            )
        n_max = window
    elif n_max is None:
        n_max = experiment.n_max
    elif experiment.n_max is None:
        raise ConfigError(f"experiment {cfg.experiment!r} reads no sieve table; drop n_max")
    if n_max is not None and not 1 <= n_max <= N_MAX_CAP:
        raise ConfigError(f"n_max must lie in [1, {N_MAX_CAP}], got {n_max}")
    try:
        if cfg.checkpoints is not None and n_max is not None:
            checked_checkpoints(n_max, cfg.checkpoints)
        if cfg.experiment == "quantize":
            quantize_grid_size(float(params["epsilon"]), n_max)
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
    rows = []
    for n in cps:
        m = mertens(table, n)
        q = squarefree_count(table, n)
        rows.append((n, m, m / n, q / n))
    header = ("N", "mertens", "mertens_over_N", "abs_mu_avg")
    m_max = mertens(table, cfg.n_max)
    result = {
        "n_max": cfg.n_max,
        "mertens_at_n_max": m_max,
        "mertens_over_n_max": m_max / cfg.n_max,
        "squarefree_density": squarefree_count(table, cfg.n_max) / cfg.n_max,
    }
    return header, rows, result


def _run_decay(cfg, table, workers):
    coeffs = tuple(float(c) for c in cfg.params["coeffs"])
    phase = PolynomialPhase(coeffs)
    flow = Flow(
        values_at=lambda ns: phase_values(coeffs, ns),
        declared_bound=1.0,
        label=f"poly_phase(degree={phase.degree})",
    )
    return _fitted_series(
        cfg, table, workers, flow,
        exp_sum_abs_at_n_max=abs(exp_sum(table, phase, cfg.n_max)),
    )


def _run_matrix_flow(cfg, table, workers):
    dim = int(cfg.params["dim"])
    rng = np.random.default_rng(cfg.seed)
    u = haar_unitary(dim, rng)
    rho = random_density(dim, rng)
    a = _hermitian_contraction(rng, dim)
    return _fitted_series(cfg, table, workers, ad_flow(u, a, rho), dim=dim)


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
        polys = tuple(
            (0, int(rng.integers(1, coeff_max + 1))) for _ in range(d)
        )
        spec = TraceProductSpec(
            unitaries=unitaries,
            contractions=tuple(contractions),
            phase_polys=polys,
        )
        res = trace_product_sum(spec, table, cfg.n_max, two_path=True)
        rows.append(
            (
                i,
                res.value.real,
                res.value.imag,
                res.eigen_value.real,
                res.eigen_value.imag,
                res.discrepancy,
            )
        )
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
    rows = []
    max_drift = 0.0
    cps = _checkpoints(cfg, horizon)
    for n, power in zip(cps, unitary_power(u, cps)):
        drift = op_norm(power - quantized.power(n))
        rows.append((n, drift, epsilon))
        max_drift = max(max_drift, drift)
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
            factor = (
                creation(_unit_vector(rng, d))
                if rng.integers(0, 2)
                else annihilation(_unit_vector(rng, d))
            )
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
    cps = _checkpoints(cfg, L)
    header = ("flow",) + CSV_COLUMNS
    rows = []
    payload = {}
    for flow in (flows.bh_flow, flows.car_flow):
        series = average_series(flow, table, cps, workers=workers)
        rows.extend((flow.label,) + r for r in series.csv_rows())
        payload[flow.label] = _series_payload(series)
    bh_abs = payload[flows.bh_flow.label]["final_abs"]
    density = squarefree_count(table, L) / L
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


def _run_bsz_check(cfg, table, workers):
    epsilon = float(cfg.params["epsilon"])
    M = int(cfg.params["M"])
    name = cfg.params["flow"]
    if name == "golden":
        flow = rotation_flow(GOLDEN, label="golden_rotation")
    elif name == "constant":
        flow = constant_flow(1.0)
    else:
        raise ConfigError(f"unknown bsz-check flow {name!r}; expected golden or constant")
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
    type is inferred from it); n_max is the default horizon, None for
    experiments without a sieve, which refuse an n_max (counterexample
    reads its table up to its window L and accepts no other n_max)."""

    params: dict
    runner: Callable
    n_max: Optional[int] = None
    randomized: bool = False


EXPERIMENTS = {
    "sieve": Experiment({}, _run_sieve, n_max=10**6),
    "decay": Experiment({"coeffs": [0.0, GOLDEN]}, _run_decay, n_max=10**5),
    "matrix-flow": Experiment(
        {"dim": 8}, _run_matrix_flow, n_max=10**5, randomized=True
    ),
    "trace-product": Experiment(
        {"k": 4, "d": 2, "count": 5, "coeff_max": 7},
        _run_trace_product,
        n_max=10**3,
        randomized=True,
    ),
    "quantize": Experiment(
        {"dim": 8, "epsilon": 0.1}, _run_quantize, n_max=10**4, randomized=True
    ),
    "car-demo": Experiment(
        {"d": 4, "samples": 50, "degree": 4}, _run_car_demo, randomized=True
    ),
    "counterexample": Experiment({"L": 10_000}, _run_counterexample),
    "pure-point": Experiment({"d": 6}, _run_pure_point, n_max=10**5, randomized=True),
    "free-clt": Experiment({"q": 10, "p_max": 8}, _run_free_clt),
    "bsz-check": Experiment(
        {"epsilon": 0.25, "M": 10_000, "flow": "golden"}, _run_bsz_check, n_max=10**6
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


def _jsonify(x):
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, (complex, np.complexfloating)):
        return {"re": float(x.real), "im": float(x.imag)}
    if isinstance(x, Fraction):
        return str(x)
    return x


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
        "result": _jsonify(result),
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
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        cfg = config_from_dict(data)
    else:
        cfg = None
    experiment = args.experiment
    if experiment is not None and cfg is not None and experiment != cfg.experiment:
        raise ConfigError(
            f"experiment {experiment!r} on the command line conflicts with "
            f"{cfg.experiment!r} in the config file"
        )
    if cfg is None:
        if experiment is None:
            raise ConfigError("no experiment given (positional name or --config)")
        cfg = ExperimentConfig(experiment=experiment)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.n_max is not None:
        cfg = replace(cfg, n_max=args.n_max)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    _validate(cfg)
    return cfg


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
    except ConfigError as exc:
        print(f"ncflow: error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, FlowEvaluationError, ValueError) as exc:
        print(f"ncflow: numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
