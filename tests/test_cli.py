import ast
import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ncflow
from ncflow import cli
from ncflow.cli import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    main,
    resolve_config,
)
from ncflow.moebius import N_MAX_CAP, build_table, load_table
from oracles import squarefree_count


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_sidecar(path):
    with open(path) as fh:
        return json.load(fh)


def comparable(sidecar):
    """Sidecar content with the run-specific bookkeeping stripped."""
    out = dict(sidecar)
    out.pop("timestamp")
    out.pop("wall_time_s")
    return out


def test_free_clt_gap_is_exact(tmp_path):
    out = tmp_path / "run"
    assert main(["free-clt", "--out", str(out)]) == 0
    side = read_sidecar(out / "free-clt.json")
    assert side["result"]["gap_at_4"] == "1/80"
    assert Fraction(side["result"]["moments"][3]) == Fraction(39, 80)
    rows = read_csv(out / "free-clt.csv")
    assert rows[0] == ["p", "m_p", "semicircle_m_p", "gap"]
    assert len(rows) == 1 + 8


def test_counterexample_average_matches_density(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "counterexample",
        "params": {"L": 1000},
        "out_dir": str(tmp_path / "ce"),
    }
    cfg_path = tmp_path / "ce.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path)]) == 0
    side = read_sidecar(tmp_path / "ce" / "counterexample.json")
    assert side["result"]["bh_abs_matches_density_exactly"] is True
    table = build_table(1000)
    density = squarefree_count(table, 1000) / 1000
    assert side["result"]["bh_abs_at_L"] == density
    rows = read_csv(tmp_path / "ce" / "counterexample.csv")
    symbol_rows = [r for r in rows[1:] if r[0].startswith("shift_symbol")]
    assert float(symbol_rows[-1][4]) == density


def test_counterexample_certificate_is_exact_equality(tmp_path, monkeypatch):
    # bh_abs equals Q(L) / L exactly; a bh flow scaled by 1 - 2^-20 misses it
    # by about 7e-7 at the default L = 10, and the certificate must read false
    made = cli.counterexample_flow

    def scaled(L, table):
        flows = made(L, table)
        bh = flows.bh_flow
        off = ncflow.Flow(
            values_at=lambda ns: bh.values_at(ns) * (1 - 2.0**-20),
            declared_bound=bh.declared_bound,
            label=bh.label,
            valid_n=bh.valid_n,
        )
        return replace(flows, bh_flow=off)

    monkeypatch.setattr(cli, "counterexample_flow", scaled)
    out = tmp_path / "ce"
    assert main(["counterexample", "--out", str(out)]) == 0
    result = read_sidecar(out / "counterexample.json")["result"]
    assert 0 < abs(result["bh_abs_at_L"] - result["squarefree_density_at_L"]) < 1e-6
    assert result["bh_abs_matches_density_exactly"] is False


def test_counterexample_checkpoints_short_of_L_still_certify_at_L(tmp_path):
    # the certificate compares |s_L| with Q(L)/L, so the series runs to N = L
    # even when the configured checkpoints stop short of it
    cfg = {
        "schema_version": 1,
        "experiment": "counterexample",
        "params": {"L": 10**4},
        "checkpoints": [100, 1000],
        "out_dir": str(tmp_path / "ce"),
    }
    cfg_path = tmp_path / "ce.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path)]) == 0
    result = read_sidecar(tmp_path / "ce" / "counterexample.json")["result"]
    density = squarefree_count(build_table(10**4), 10**4) / 10**4
    assert result["squarefree_density_at_L"] == density
    assert result["bh_abs_at_L"] == density
    assert result["bh_abs_matches_density_exactly"] is True
    assert result["series"]["shift_symbol(L=10000)"]["final_N"] == 10**4
    rows = read_csv(tmp_path / "ce" / "counterexample.csv")
    assert [int(r[1]) for r in rows[1:] if r[0].startswith("shift_symbol")] == [100, 1000, 10**4]


def test_rerun_is_reproducible(tmp_path):
    args = ["matrix-flow", "--seed", "7", "--n-max", "10000"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "matrix-flow.csv").read_bytes() == (out2 / "matrix-flow.csv").read_bytes()
    s1 = comparable(read_sidecar(out1 / "matrix-flow.json"))
    s2 = comparable(read_sidecar(out2 / "matrix-flow.json"))
    s1["config"].pop("out_dir")
    s2["config"].pop("out_dir")
    assert s1 == s2


def test_worker_count_does_not_change_results(tmp_path):
    base = ["pure-point", "--seed", "11", "--n-max", "10000"]
    serial, threaded = tmp_path / "s", tmp_path / "t"
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(threaded), "--workers", "4"]) == 0
    assert (serial / "pure-point.csv").read_bytes() == (threaded / "pure-point.csv").read_bytes()
    s1 = comparable(read_sidecar(serial / "pure-point.json"))
    s2 = comparable(read_sidecar(threaded / "pure-point.json"))
    s1["config"].pop("out_dir")
    s2["config"].pop("out_dir")
    assert s1 == s2  # workers is a runtime knob, never part of the config


def test_alias_runs_the_sieve(tmp_path, capsys):
    out = tmp_path / "m"
    assert main(["mertens", "--out", str(out), "--n-max", "1000"]) == 0
    assert capsys.readouterr().out.startswith("mertens: wrote")
    side = read_sidecar(out / "mertens.json")
    assert side["result"]["mertens_at_n_max"] == 2
    assert side["result"]["squarefree_density"] == 0.608


def test_randomized_experiments_require_seed(tmp_path, capsys):
    for name in ("matrix-flow", "trace-product", "quantize", "car-demo", "pure-point"):
        assert main([name, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--seed is mandatory" in err


def test_unknown_experiment_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-experiment", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_config_round_trip():
    cfg = ExperimentConfig(
        experiment="trace-product",
        seed=3,
        n_max=500,
        checkpoints=(100, 500),
        out_dir="somewhere",
        params={"k": 4, "d": 2, "count": 3, "coeff_max": 5},
    )
    assert config_from_dict(cfg.to_json_dict()) == cfg
    resolved = resolve_config(cfg)
    assert resolve_config(resolved) == resolved
    assert resolved.seed == 3 and resolved.params["count"] == 3


def test_resolve_fills_defaults():
    resolved = resolve_config(ExperimentConfig(experiment="sieve"))
    assert resolved.n_max == 10**6
    assert resolved.params == {}
    golden = resolve_config(ExperimentConfig(experiment="decay"))
    assert golden.params["coeffs"][1] == pytest.approx((5**0.5 - 1) / 2)


def test_config_validation_rejects_garbage():
    with pytest.raises(ConfigError, match="unknown config fields"):
        config_from_dict({"schema_version": 1, "experiment": "sieve", "bogus": 1})
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict({"schema_version": 99, "experiment": "sieve"})
    with pytest.raises(ConfigError, match="unknown experiment"):
        config_from_dict({"schema_version": 1, "experiment": "zeta"})
    with pytest.raises(ConfigError, match="unknown parameters"):
        resolve_config(
            ExperimentConfig(experiment="quantize", seed=1, params={"surprise": 2})
        )
    with pytest.raises(ConfigError, match="boolean"):
        resolve_config(
            ExperimentConfig(experiment="quantize", seed=1, params={"dim": True})
        )


def test_cli_flag_conflicting_with_config_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"schema_version": 1, "experiment": "sieve", "n_max": 1000})
    )
    assert main(["decay", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "conflict" in capsys.readouterr().err
    # the same value twice is not a conflict
    assert main(["sieve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "config, message",
    [
        ({"experiment": "car-demo", "seed": 0, "params": {"d": 11}}, "d must be <= 10"),
        ({"experiment": "quantize", "seed": 0, "params": {"epsilon": 1e-9}}, "grid size"),
        (
            {"experiment": "quantize", "seed": 5, "n_max": 100, "params": {"epsilon": 1e-9}},
            "grid size",
        ),
    ],
    ids=["car-demo-d", "quantize-grid", "quantize-grid-n100"],
)
def test_configs_past_a_hard_cap_fail_before_the_sieve(
    tmp_path, capsys, monkeypatch, config, message
):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    monkeypatch.setattr(cli, "fock_space", no_table)
    out = tmp_path / "out"
    cfg_path = tmp_path / "cap.json"
    cfg_path.write_text(json.dumps({**config, "out_dir": str(out)}))
    assert main(["--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["sieve", "--n-max", "200000000"], "n_max must lie in"),
        (["sieve", "--n-max", "0"], "n_max must lie in"),
        # geometric checkpoints up to n_max <= 3162 are too few for a decay fit
        (["decay", "--n-max", "500"], "at least 3 checkpoints"),
        (["matrix-flow", "--seed", "0", "--n-max", "2000"], "at least 3 checkpoints"),
        (["pure-point", "--seed", "0", "--n-max", "999"], "at least 3 checkpoints"),
        (["decay", "--n-max", "3162"], "at least 3 checkpoints"),
        # n_max / M = 0.5 leaves bsz-check no prime pair to audit
        (["bsz-check", "--n-max", "5000"], "prime cap floor(min(e^(1/epsilon), 200, n_max / M))"),
    ],
)
def test_bad_n_max_is_a_usage_error(tmp_path, capsys, monkeypatch, extra, message):
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    out = tmp_path / "out"
    assert main(["--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ncflow: error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args", [["car-demo", "--seed", "0"], ["free-clt"]], ids=["car-demo", "free-clt"]
)
def test_n_max_for_an_experiment_without_a_sieve_is_a_usage_error(
    tmp_path, capsys, monkeypatch, args
):
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    out = tmp_path / "out"
    assert main(args + ["--out", str(out), "--n-max", "2000000"]) == 2
    assert "reads no sieve table" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="reads no sieve table"):
        resolve_config(ExperimentConfig(experiment=args[0], seed=0, n_max=1000))
    assert resolve_config(ExperimentConfig(experiment=args[0], seed=0)).n_max is None


@pytest.mark.parametrize("experiment", ["car-demo", "free-clt"])
def test_checkpoints_for_an_experiment_without_a_sieve_are_a_usage_error(
    tmp_path, capsys, monkeypatch, experiment
):
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    out = tmp_path / "out"
    cfg_path = tmp_path / "cps.json"
    cfg_path.write_text(
        json.dumps({"experiment": experiment, "seed": 0, "checkpoints": [5, 3]})
    )
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 2
    expect = f"experiment {experiment!r} reads no sieve table; drop checkpoints"
    assert capsys.readouterr().err == f"ncflow: error: {expect}\n"
    assert not out.exists()


def test_counterexample_n_max_follows_its_window():
    # n_max == L is what the sidecar echoes, so reruns keep working
    cfg = ExperimentConfig(experiment="counterexample", params={"L": 500})
    assert resolve_config(cfg).n_max == 500
    assert resolve_config(replace(cfg, n_max=500)).n_max == 500
    with pytest.raises(ConfigError, match="L = 500"):
        resolve_config(replace(cfg, n_max=800))


@pytest.mark.parametrize("n_max", ["500", "20000"])
def test_counterexample_n_max_off_its_window_is_a_usage_error(
    tmp_path, capsys, monkeypatch, n_max
):
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    out = tmp_path / "out"
    assert main(["counterexample", "--out", str(out), "--n-max", n_max]) == 2
    err = capsys.readouterr().err
    assert "L = 10000" in err and n_max in err
    assert not out.exists()


@pytest.mark.parametrize(
    "checkpoints, message",
    [
        ([0, 100], "must lie in"),
        ([100, 2000], "must lie in"),
        ([500, 100], "strictly ascending"),
        ([100, 100], "strictly ascending"),
        # valid checkpoints that no decay fit can use
        ([10, 20], "at least 3 checkpoints"),
        ([1, 2, 3, 4], "N > e"),
    ],
)
def test_bad_checkpoints_are_a_usage_error(tmp_path, capsys, monkeypatch, checkpoints, message):
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    out = tmp_path / "out"
    cfg_path = tmp_path / "cps.json"
    cfg_path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "experiment": "decay",
                "n_max": 1000,
                "checkpoints": checkpoints,
                "out_dir": str(out),
            }
        )
    )
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ncflow: error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, params, message",
    [
        ("car-demo", {"degree": 0}, "degree must be >= 1"),
        ("quantize", {"epsilon": 0.0}, "epsilon must be positive"),
        ("quantize", {"epsilon": -0.1}, "epsilon must be positive"),
        ("matrix-flow", {"dim": 0}, "dim must be >= 1"),
        ("trace-product", {"k": 0}, "k must be >= 1"),
        ("trace-product", {"count": -1}, "count must be >= 1"),
        ("pure-point", {"d": 0}, "d must be >= 1"),
        ("free-clt", {"q": 0}, "q must be >= 1"),
        ("bsz-check", {"M": 0}, "M must be >= 1"),
        ("matrix-flow", {"dim": 33}, "dim must be <= 32"),
        ("trace-product", {"k": 33}, "k must be <= 32"),
        ("quantize", {"dim": 10**6}, "dim must be <= 32"),
        ("pure-point", {"d": 33}, "d must be <= 32"),
        ("bsz-check", {"epsilon": 0.0}, "epsilon must lie in (0, 1)"),
        ("bsz-check", {"epsilon": 1.0}, "epsilon must lie in (0, 1)"),
        ("decay", {"coeffs": ["a"]}, "coeffs must be a non-empty list"),
        ("decay", {"coeffs": []}, "coeffs must be a non-empty list"),
        ("decay", {"coeffs": [0, float("nan")]}, "coeffs must be a non-empty list"),
        ("decay", {"coeffs": [0, True]}, "coeffs must be a non-empty list"),
        ("free-clt", {"p_max": 15}, "p_max must be <= 14, got 15"),
        ("trace-product", {"coeff_max": 2**63 - 1}, "coeff_max must be <= 92233720368"),
        # e^(1/0.95) < 3: no prime pair to audit, whatever n_max / M
        (
            "bsz-check",
            {"epsilon": 0.95, "M": 1},
            "prime cap floor(min(e^(1/epsilon), 200, n_max / M)) is 2 < 3",
        ),
    ],
)
def test_bad_parameters_are_a_usage_error(tmp_path, capsys, experiment, params, message):
    out = tmp_path / "out"
    cfg_path = tmp_path / "params.json"
    cfg_path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "experiment": experiment,
                "seed": 0,
                "n_max": 100,
                "params": params,
                "out_dir": str(out),
            }
        )
    )
    assert main(["--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_max", [cli.TRACE_PRODUCT_N_MAX + 1, N_MAX_CAP])
def test_trace_product_refuses_n_max_above_its_cap_before_any_table(
    tmp_path, capsys, monkeypatch, n_max
):
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    assert resolve_config(
        ExperimentConfig(experiment="trace-product", seed=0, n_max=cli.TRACE_PRODUCT_N_MAX)
    )
    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    out = tmp_path / "out"
    argv = ["trace-product", "--seed", "0", "--n-max", str(n_max), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"ncflow: error: trace-product n_max must be <= 1000000, got {n_max}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "params, n_max, seconds",
    [
        ({"count": 10**8}, 1000, "7.8e+05"),  # the default k, d at the default n_max
        ({"k": 32, "count": 1}, 10**6, "253"),
        ({"k": 32, "count": 1, "coeff_max": (2**63 - 1) // N_MAX_CAP}, 2 * 10**5, "121"),
    ],
)
def test_trace_product_refuses_work_past_its_cap_before_any_table(
    tmp_path, capsys, monkeypatch, params, n_max, seconds
):
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    config = tmp_path / "tp.json"
    config.write_text(json.dumps({
        "schema_version": 1, "experiment": "trace-product", "seed": 0,
        "n_max": n_max, "params": params,
    }))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ncflow: error: trace-product work count * d * n_max * bits * cost(k)")
    assert err.endswith(f" = {seconds} s is past its cap of {cli.TRACE_PRODUCT_SECONDS} s\n")
    assert not out.exists()


def test_trace_product_work_rule_admits_one_product_at_k_32_to_10_5():
    # about 24 s on 2 cores, under the 120 s cap; the default five products
    # at k = 4 to n_max 10^6 are admitted by the n_max cap test above
    cfg = ExperimentConfig(
        experiment="trace-product", seed=0, n_max=10**5, params={"k": 32, "count": 1}
    )
    assert resolve_config(cfg).params["k"] == 32


def test_a_trace_product_disagreement_names_its_spec(tmp_path, capsys):
    # coefficients near the cap put the direct path's binary powers of a
    # Haar unitary about 2e-5 off the eigen path at N = 1000
    config = tmp_path / "tp.json"
    config.write_text(json.dumps({
        "schema_version": 1, "experiment": "trace-product", "seed": 0,
        "n_max": 1000, "params": {"coeff_max": (2**63 - 1) // N_MAX_CAP},
    }))
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ncflow: numeric failure: trace product paths disagree by ")
    assert err.endswith(
        "> 1e-09 for the spec with k = 4, d = 2 and phase polynomials"
        " ((0, 51105828437), (0, 74682637285))\n"
    )


def test_a_quantize_drift_failure_names_n_drift_and_epsilon(tmp_path, capsys, monkeypatch):
    from ncflow import matrix_dynamics

    monkeypatch.setattr(
        matrix_dynamics, "quantize_drift", lambda u, quantized, ns: [0.05 * n for n in ns]
    )
    argv = ["quantize", "--seed", "0", "--n-max", "100", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "ncflow: numeric failure: quantized power drifted by ||U^n - V^n|| = 2.500e+00"
        " past epsilon = 0.1 at n = 50\n"
    )


@pytest.mark.parametrize(
    "name, key",
    [(name, key) for name, e in sorted(cli.EXPERIMENTS.items()) for key in sorted(e.caps)],
)
def test_each_registry_cap_admits_its_default_and_refuses_one_more(
    tmp_path, capsys, monkeypatch, name, key
):
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    cap = cli.EXPERIMENTS[name].caps[key]
    assert resolve_config(ExperimentConfig(experiment=name, seed=0)).params[key] <= cap
    assert resolve_config(ExperimentConfig(experiment=name, seed=0, params={key: cap}))
    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    monkeypatch.setattr(cli, "fock_space", no_table)
    out = tmp_path / "out"
    cfg_path = tmp_path / "cap.json"
    cfg_path.write_text(
        json.dumps({"experiment": name, "seed": 0, "params": {key: cap + 1}, "out_dir": str(out)})
    )
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"ncflow: error: {key} must be <= {cap}, got {cap + 1}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"experiment": "sieve", "seed": "abc"}, "seed must be an integer, got 'abc'"),
        ({"experiment": "sieve", "seed": True}, "seed must be an integer, got True"),
        ({"experiment": "matrix-flow", "seed": True}, "seed must be an integer, got True"),
        ({"experiment": "matrix-flow", "seed": -1}, "seed must be >= 0, got -1"),
        ({"experiment": "sieve", "n_max": "1e5"}, "n_max must be an integer"),
        ({"experiment": "sieve", "n_max": 1e5}, "n_max must be an integer"),
        ({"experiment": "sieve", "params": [1, 2]}, "params must be an object"),
        ({"experiment": "sieve", "params": None}, "params must be an object"),
        ({"experiment": "sieve", "checkpoints": 5}, "checkpoints must be a list, got 5"),
        (
            {"experiment": "decay", "checkpoints": [1000.7, 5000, 100000]},
            "each checkpoint must be an integer, got 1000.7",
        ),
        ({"experiment": "sieve", "out_dir": None}, "out_dir must be a string"),
        ({"experiment": ["sieve"]}, "experiment must be a string"),
        ({"experiment": "sieve", "schema_version": True}, "schema_version must be an integer"),
        ({"experiment": "bsz-check", "params": {"flow": "nope"}}, "unknown bsz-check flow 'nope'"),
        (
            {"experiment": "quantize", "seed": 0, "params": {"epsilon": 5e-324}},
            "grid size m = inf",
        ),
        (
            {"experiment": "quantize", "seed": 0, "params": {"epsilon": 10**400}},
            "parameter 'epsilon' must be a finite number",
        ),
        ({"experiment": "decay", "params": {"coeffs": [0, 10**400]}}, "coeffs must be"),
        ({}, "no experiment given"),
    ],
)
def test_malformed_fields_are_a_usage_error(tmp_path, capsys, monkeypatch, config, message):
    # no malformed field may end in a traceback, run with a truncated or
    # coerced value, build a table or create the out dir
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ncflow: error: ") and message in err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["bad.json"]


@pytest.mark.parametrize(
    "out_dir, message",
    [
        ("", "out_dir '' cannot be created"),
        ("a\0b", "out_dir 'a\\x00b' cannot be created"),
        ("\ud800", "out_dir '\\ud800' cannot be created"),
        ("afile/out", "out_dir 'afile/out' cannot be created"),
        ("afile", "out_dir 'afile' cannot be created"),
    ],
)
def test_an_out_dir_that_cannot_be_created_is_a_usage_error(
    tmp_path, capsys, monkeypatch, out_dir, message
):
    def no_table(*a, **kw):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "load_or_build_table", no_table)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    cfg_path = tmp_path / "out.json"
    cfg_path.write_text(json.dumps({"experiment": "sieve", "n_max": 1000, "out_dir": out_dir}))
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ncflow: error: ") and message in err
    assert sorted(os.listdir(tmp_path)) == ["afile", "out.json"]


def test_an_os_error_while_writing_outputs_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "sieve.csv").mkdir()  # the CSV path is taken by a directory
    assert main(["sieve", "--n-max", "1000", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ncflow: error: ") and "sieve.csv" in err


@pytest.mark.parametrize(
    "content",
    [b"[1, 2]", b"\xff\xfe", b"[" * 100_000, b"{"],
    ids=["not-an-object", "not-utf8", "too-deep", "truncated"],
)
def test_unreadable_config_files_are_a_usage_error(tmp_path, capsys, content):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(content)
    assert main(["--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("ncflow: error: ")


def test_malformed_config_leaves_no_traceback(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"experiment": "sieve", "checkpoints": 5}))
    src = os.path.dirname(os.path.dirname(ncflow.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "ncflow.cli", "--config", str(cfg_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("ncflow: error: checkpoints must be a list, got 5")


def test_library_configs_get_the_same_field_checks():
    with pytest.raises(ConfigError, match="seed must be"):
        ExperimentConfig(experiment="sieve", seed="abc")
    with pytest.raises(ConfigError, match="each checkpoint must be"):
        ExperimentConfig(experiment="decay", checkpoints=(1000.5,))
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig(experiment="zeta")
    with pytest.raises(ConfigError, match="unknown bsz-check flow"):
        resolve_config(ExperimentConfig(experiment="bsz-check", params={"flow": "nope"}))
    with pytest.raises(ConfigError, match="n_max must be"):
        replace(ExperimentConfig(experiment="sieve"), n_max=True)
    assert ExperimentConfig(experiment="decay", checkpoints=[10, 100]).checkpoints == (10, 100)


class _Reached(Exception):
    """Raised by the stand-in table builder and runners: the config passed."""


def _reached(*args, **kwargs):
    raise _Reached


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
_TOP_FIELDS = ["schema_version", "experiment", "seed", "n_max", "checkpoints", "out_dir", "params"]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_any_json_value_in_any_field_is_a_usage_error_or_runs(tmp_path, capsys, data):
    # main either refuses the config with exit code 2 and one error line, or
    # reaches the table builder or runner; no other exception escapes
    name = data.draw(st.sampled_from(sorted(cli.EXPERIMENTS)), label="experiment")
    spec = cli.EXPERIMENTS[name].params
    where = data.draw(
        st.sampled_from(["<config>", *_TOP_FIELDS, *spec, "unknown"]), label="field"
    )
    value = data.draw(_JSON, label="value")
    config = {"experiment": name, "seed": 0, "out_dir": str(tmp_path / "out")}
    if where == "<config>":
        config = value
    elif where in _TOP_FIELDS:
        config[where] = value
    else:
        config["params"] = {where: value}
    cfg_path = tmp_path / "any.json"
    cfg_path.write_text(json.dumps(config))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        mp.setattr(cli, "load_or_build_table", _reached)
        for key, experiment in cli.EXPERIMENTS.items():
            mp.setitem(cli.EXPERIMENTS, key, replace(experiment, runner=_reached))
        try:
            code = main(["--config", str(cfg_path)])
        except _Reached:
            code = None
    err = capsys.readouterr().err
    if code is not None:
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ncflow: error: "), err
    assert sorted(os.listdir(tmp_path)) == ["any.json"]


@pytest.mark.parametrize("flow, label", [("golden", "golden_rotation"), ("constant", "constant")])
def test_bsz_check_runs_every_named_flow(tmp_path, flow, label):
    cfg_path = tmp_path / "bsz.json"
    cfg_path.write_text(
        json.dumps({"experiment": "bsz-check", "n_max": 4000, "params": {"M": 100, "flow": flow}})
    )
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    side = read_sidecar(tmp_path / "out" / "bsz-check.json")
    assert side["result"]["flow"].startswith(label)
    assert sorted(cli.BSZ_FLOWS) == ["constant", "golden"]


def test_bsz_check_takes_a_small_epsilon(tmp_path):
    # e^(1/epsilon) overflows a float here, but only the other caps bind
    cfg_path = tmp_path / "bsz.json"
    params = {"M": 100, "epsilon": 1e-3}
    cfg_path.write_text(json.dumps({"experiment": "bsz-check", "n_max": 4000, "params": params}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert read_sidecar(tmp_path / "out" / "bsz-check.json")["result"]["prime_cap"] == 40


def test_sieve_cache_roundtrip(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("NCFLOW_CACHE_DIR", str(cache))
    out = tmp_path / "run1"
    assert main(["sieve", "--out", str(out), "--n-max", "30000"]) == 0
    cached = cache / "moebius_30000.ncf"
    assert cached.exists()
    stamp = cached.stat().st_mtime_ns
    out2 = tmp_path / "run2"
    assert main(["sieve", "--out", str(out2), "--n-max", "30000"]) == 0
    assert cached.stat().st_mtime_ns == stamp  # reused, not rebuilt
    assert (out / "sieve.csv").read_bytes() == (out2 / "sieve.csv").read_bytes()


def _old_format(raw):
    return b"NCF1" + raw[4:12] + raw[16:]  # no checksum field


def _flip_payload_byte(raw):
    raw = bytearray(raw)
    raw[1000] ^= 0x55
    return bytes(raw)


@pytest.mark.parametrize("spoil", [_old_format, _flip_payload_byte])
def test_rejected_sieve_cache_is_rebuilt(tmp_path, monkeypatch, capsys, spoil):
    monkeypatch.delenv("NCFLOW_CACHE_DIR", raising=False)
    fresh = tmp_path / "fresh"
    assert main(["sieve", "--out", str(fresh), "--n-max", "30000"]) == 0
    cache = tmp_path / "cache"
    monkeypatch.setenv("NCFLOW_CACHE_DIR", str(cache))
    assert main(["sieve", "--out", str(tmp_path / "seed"), "--n-max", "30000"]) == 0
    cached = cache / "moebius_30000.ncf"
    good = cached.read_bytes()
    cached.write_bytes(spoil(good))
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["sieve", "--out", str(out), "--n-max", "30000"]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(cached) in err
    assert (out / "sieve.csv").read_bytes() == (fresh / "sieve.csv").read_bytes()
    assert cached.read_bytes() == good
    assert load_table(cached).n_max == 30000


def test_sieve_cache_for_another_n_max_is_rebuilt(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NCFLOW_CACHE_DIR", raising=False)
    fresh = tmp_path / "fresh"
    assert main(["sieve", "--out", str(fresh), "--n-max", "2000"]) == 0
    cache = tmp_path / "cache"
    monkeypatch.setenv("NCFLOW_CACHE_DIR", str(cache))
    assert main(["sieve", "--out", str(tmp_path / "seed"), "--n-max", "1000"]) == 0
    cached = cache / "moebius_2000.ncf"
    cached.write_bytes((cache / "moebius_1000.ncf").read_bytes())  # valid, but for 1000
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["sieve", "--out", str(out), "--n-max", "2000"]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"ncflow: rebuilding sieve cache {cached}: ")
    assert (out / "sieve.csv").read_bytes() == (fresh / "sieve.csv").read_bytes()
    assert np.array_equal(load_table(cached).codes, build_table(2000).codes)


SMALL_RUNS = {
    "sieve": {"n_max": 1000},
    "decay": {"n_max": 10000},
    "matrix-flow": {"seed": 0, "n_max": 10000, "params": {"dim": 3}},
    "trace-product": {"seed": 0, "n_max": 100, "params": {"count": 2}},
    "quantize": {"seed": 0, "n_max": 100, "params": {"dim": 4}},
    "car-demo": {"seed": 0, "params": {"d": 2, "samples": 3}},
    "counterexample": {"params": {"L": 100}},
    "pure-point": {"seed": 0, "n_max": 10000, "params": {"d": 2}},
    "free-clt": {"params": {"p_max": 4}},
    "bsz-check": {"n_max": 1000, "params": {"M": 10}},
}


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # every experiment, the spectral ones (trace-product, quantize) included,
    # runs through main in one fresh process without loading scipy
    paths = []
    for name, cfg in SMALL_RUNS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(
            json.dumps({"experiment": name, "out_dir": str(tmp_path / "out"), **cfg})
        )
        paths.append(str(path))
    src = os.path.dirname(os.path.dirname(ncflow.__file__))
    code = (
        "import sys\n"
        "from ncflow.cli import main\n"
        "codes = [main(['--config', p]) for p in sys.argv[1:]]\n"
        "print(codes, 'scipy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("NCFLOW_CACHE_DIR", None)
    done = subprocess.run(
        [sys.executable, "-c", code, *paths],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * len(paths)} False", done.stderr
    assert sorted(SMALL_RUNS) == sorted(set(cli.EXPERIMENTS) - {"mertens"})


def test_package_source_never_imports_scipy():
    package = os.path.dirname(ncflow.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), (name, node.lineno)


def test_public_names_are_sorted_unique_and_resolve():
    names = ncflow.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(ncflow, name)]
    assert not missing


def test_package_runs_from_src_alone(tmp_path):
    # isolated mode: no PYTHONPATH, no script directory, so sys.path holds
    # src/ and the interpreter's own paths, never tests/ and its oracles
    src = os.path.dirname(os.path.dirname(ncflow.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import os, sys\n"
        "src, tests, out = sys.argv[1:]\n"
        "sys.path.insert(0, src)\n"
        "import ncflow\n"
        "from ncflow.cli import main\n"
        "assert not any(os.path.abspath(p or '.') == tests for p in sys.path), sys.path\n"
        "codes = [main([name, '--out', out]) for name in ('free-clt', 'counterexample')]\n"
        "print(codes, os.path.dirname(ncflow.__file__) == os.path.join(src, 'ncflow'),\n"
        "      'oracles' in sys.modules)"
    )
    env = dict(os.environ)
    env.pop("NCFLOW_CACHE_DIR", None)
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src, tests, str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] True False", done.stdout + done.stderr


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.dirname(ncflow.__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def test_bsz_check_experiment(tmp_path):
    out = tmp_path / "bsz"
    cfg_path = tmp_path / "bsz.json"
    cfg_path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "experiment": "bsz-check",
                "n_max": 10000,
                "params": {"M": 100},
                "out_dir": str(out),
            }
        )
    )
    assert main(["--config", str(cfg_path)]) == 0
    side = read_sidecar(out / "bsz-check.json")
    assert side["result"]["hypothesis_holds"] is True
    assert side["result"]["max_correlation_ratio"] < 1.0
    assert side["result"]["prime_pairs_checked"] > 0
    rows = read_csv(out / "bsz-check.csv")
    assert rows[1][rows[0].index("hypothesis_holds")] == "true"


def test_all_experiments_produce_output(tmp_path):
    quick = {
        "sieve": [],
        "decay": ["--n-max", "10000"],
        "matrix-flow": ["--seed", "1", "--n-max", "10000"],
        "trace-product": ["--seed", "1", "--n-max", "1000"],
        "quantize": ["--seed", "1", "--n-max", "500"],
        "car-demo": ["--seed", "1"],
        "pure-point": ["--seed", "1", "--n-max", "10000"],
        "free-clt": [],
        "bsz-check": ["--n-max", "30000"],  # n_max / M >= 3 leaves a prime pair to audit
    }
    for name, extra in quick.items():
        out = tmp_path / name
        args = [name, "--out", str(out)] + extra
        if name == "sieve":
            args += ["--n-max", "5000"]
        assert main(args) == 0, name
        rows = read_csv(out / f"{name}.csv")
        assert len(rows) >= 2, name
        side = read_sidecar(out / f"{name}.json")
        assert side["config"]["experiment"] == name
        assert side["library_version"]
