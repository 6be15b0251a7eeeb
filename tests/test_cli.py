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

import ncflow
from ncflow import cli
from ncflow.cli import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    main,
    resolve_config,
)
from ncflow.moebius import build_table, load_table, squarefree_count


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
        ({"experiment": "car-demo", "seed": 0, "params": {"d": 13}}, "d must be <= 12"),
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
        (["--n-max", "200000000"], "n_max must lie in"),
        (["--n-max", "0"], "n_max must lie in"),
    ],
)
def test_bad_n_max_is_a_usage_error(tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    assert main(["sieve", "--out", str(out)] + extra) == 2
    assert message in capsys.readouterr().err
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
    ],
)
def test_bad_checkpoints_are_a_usage_error(tmp_path, capsys, checkpoints, message):
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
    assert message in capsys.readouterr().err
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
    assert np.array_equal(load_table(cached).mu, build_table(2000).mu)


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
        "bsz-check": ["--n-max", "4000"],
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
