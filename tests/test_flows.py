import math

import numpy as np
import pytest

from conftest import hermitian_contraction
from ncflow import flows
from ncflow.flows import (
    AverageSeries,
    Flow,
    FlowEvaluationError,
    average_series,
    bsz_check,
    constant_flow,
    decay_fit,
    geometric_checkpoints,
    rotation_flow,
)
from ncflow.linalg import random_density
from ncflow.matrix_dynamics import ad_flow
from ncflow.moebius import PolynomialPhase, exp_sum, mertens, squarefree_count

GOLDEN = (math.sqrt(5) - 1) / 2


def test_geometric_checkpoints():
    cps = geometric_checkpoints(10**5)
    assert cps[0] == 1000 and cps[-1] == 10**5
    assert list(cps) == sorted(cps)
    assert geometric_checkpoints(500) == (500,)


def test_rotation_series_matches_exp_sum(table_1m):
    cps = geometric_checkpoints(10**5)
    series = average_series(rotation_flow(GOLDEN), table_1m, cps)
    for i, n in enumerate(cps):
        direct = exp_sum(table_1m, PolynomialPhase((0.0, GOLDEN)), n)
        assert abs(series.values[i] - direct) < 1e-12


def test_series_prefix_consistency(table_1m):
    # truncating the checkpoint list must not change earlier values at all
    cps = geometric_checkpoints(10**5)
    full = average_series(rotation_flow(GOLDEN), table_1m, cps)
    part = average_series(rotation_flow(GOLDEN), table_1m, cps[:3])
    assert np.array_equal(full.values[:3], part.values)


def test_series_worker_count_does_not_change_bits(table_1m, monkeypatch):
    cps = geometric_checkpoints(10**5)
    flow = rotation_flow(GOLDEN)
    s1 = average_series(flow, table_1m, cps, workers=1)
    s4 = average_series(flow, table_1m, cps, workers=4)
    assert np.array_equal(s1.values, s4.values)
    assert s1.abs_mu_counts == s4.abs_mu_counts
    # three threads, each summing one contiguous run of blocks, with
    # checkpoints that cut blocks short at uneven places inside the runs
    monkeypatch.setattr(flows.os, "cpu_count", lambda: 3)
    cps = sorted({*cps, 4097, 8191, 12289, 50001, 77777})
    s1 = average_series(flow, table_1m, cps, workers=1)
    s3 = average_series(flow, table_1m, cps, workers=3)
    assert np.array_equal(s1.values, s3.values)
    assert s1.abs_mu_counts == s3.abs_mu_counts


@pytest.mark.parametrize("cpus, pool_size", [(4, 3), (2, 2), (None, None)])
def test_series_worker_count_is_clamped(table_10k, monkeypatch, cpus, pool_size):
    # three blocks: the pool never gets more threads than blocks or CPUs,
    # and a clamp to one thread starts no pool at all
    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(flows, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(flows.os, "cpu_count", lambda: cpus)
    flow = rotation_flow(GOLDEN)
    serial = average_series(flow, table_10k, [9000])
    clamped = average_series(flow, table_10k, [9000], workers=100_000)
    assert pools == ([] if pool_size is None else [pool_size])
    assert np.array_equal(serial.values, clamped.values)


def test_series_abs_mu_counts_and_bounds(table_10k):
    series = average_series(constant_flow(1.0), table_10k, [100, 10**4])
    assert series.abs_mu_counts == (
        squarefree_count(table_10k, 100),
        squarefree_count(table_10k, 10**4),
    )
    bounds = series.running_bounds()
    assert bounds[1] == pytest.approx(squarefree_count(table_10k, 10**4) / 10**4)
    rows = list(series.csv_rows())
    assert rows[0][0] == 100 and len(rows[0]) == 5


def test_constant_flow_series_is_mertens(table_10k):
    from ncflow.moebius import mertens

    series = average_series(constant_flow(1.0), table_10k, [9973])
    assert series.values[0] == pytest.approx(mertens(table_10k, 9973) / 9973, abs=1e-15)


def test_flow_declared_bound_enforced(table_10k):
    bad = Flow(
        values_at=lambda ns: np.full(ns.shape, 2.0 + 0j), declared_bound=1.0, label="bad"
    )
    with pytest.raises(FlowEvaluationError, match="bound"):
        average_series(bad, table_10k, [100])


def test_flow_rejects_nonfinite_values(table_10k):
    def vals(ns):
        return np.where(ns == 37, complex("nan"), 0.5 + 0j)

    bad = Flow(values_at=vals, declared_bound=1.0, label="nan_at_37")
    with pytest.raises(FlowEvaluationError, match="37"):
        average_series(bad, table_10k, [100])


def test_flow_valid_n_window(table_10k):
    flow = Flow(
        values_at=lambda ns: np.ones(ns.shape, dtype=complex),
        declared_bound=1.0,
        label="w",
        valid_n=50,
    )
    with pytest.raises(ValueError, match="n <= 50"):
        average_series(flow, table_10k, [100])
    series = average_series(flow, table_10k, [50])
    assert len(series.values) == 1


def test_flow_never_calls_the_evaluator_keyword(table_10k):
    def boom(n):
        raise AssertionError("evaluator was called")

    flow = Flow(
        evaluator=boom,
        declared_bound=1.0,
        label="vectorized",
        values_at=lambda ns: np.full(ns.shape, 0.5 + 0j),
    )
    assert flow.evaluator(7) == 0.5
    series = average_series(flow, table_10k, [100])
    assert series.values[0] == pytest.approx(0.5 * mertens(table_10k, 100) / 100)
    with pytest.raises(ValueError, match="n >= 1"):
        flow.evaluator(0)


def test_averaging_is_linear(table_10k):
    f1 = rotation_flow(0.21)
    f2 = rotation_flow(0.57)
    mix = Flow(
        declared_bound=1.0,
        label="mix",
        values_at=lambda ns: 0.5 * (f1.values_at(ns) + f2.values_at(ns)),
    )
    n = 9973
    s1 = average_series(f1, table_10k, [n]).values[0]
    s2 = average_series(f2, table_10k, [n]).values[0]
    sm = average_series(mix, table_10k, [n]).values[0]
    assert abs(sm - 0.5 * (s1 + s2)) < 1e-14


def test_nearby_flows_have_nearby_averages(table_10k):
    # |s_N(f) - s_N(g)| <= sup|f-g| * (1/N) sum |mu|
    delta = 1e-3
    f = rotation_flow(0.41)
    g = Flow(
        declared_bound=1.0,
        label="shrunk",
        values_at=lambda ns: f.values_at(ns) * (1 - delta),
    )
    n = 9973
    sf = average_series(f, table_10k, [n]).values[0]
    sg = average_series(g, table_10k, [n]).values[0]
    slack = delta * squarefree_count(table_10k, n) / n
    assert abs(sf - sg) <= slack + 1e-15


def test_periodic_flow_regrouping_identity(table_1m):
    # U of order q = 2 makes the ad_flow q-periodic:
    # s_N = (1/N) sum_j c_j sum_{n <= N, n % q == j} mu(n)
    u = np.diag(np.exp(2j * np.pi * np.array([0.5, 0.0, 0.5])))
    rng = np.random.default_rng(11)
    rho = random_density(3, rng)
    a = hermitian_contraction(rng, 3)
    flow = ad_flow(u, a, rho)
    q = 2
    cycle = [flow.evaluator(q), flow.evaluator(1)]  # c_0, c_1
    # the incremental walk drifts by about 2.5e-17 per step
    assert np.max(np.abs(flow.values(0, 1000) - np.tile(cycle[::-1], 500))) < 1e-13
    n = 10**5
    s = average_series(flow, table_1m, [n]).values[0]
    mu = table_1m.mu[1 : n + 1].astype(np.float64)
    ns = np.arange(1, n + 1)
    regroup = sum(cycle[j] * mu[ns % q == j].sum() for j in range(q)) / n
    assert abs(s - regroup) < 1e-12


def test_decay_fit_recovers_synthetic_exponent():
    cps = tuple(geometric_checkpoints(10**6))
    vals = np.array([2.5 * math.log(n) ** -2.0 for n in cps], dtype=complex)
    series = AverageSeries(
        label="synthetic",
        declared_bound=1.0,
        checkpoints=cps,
        values=vals,
        abs_mu_counts=tuple(1 for _ in cps),
    )
    fit = decay_fit(series)
    assert fit.h == pytest.approx(2.0, abs=1e-9)
    assert fit.C == pytest.approx(2.5, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_flags_exact_zero():
    cps = (10, 100, 1000)
    series = AverageSeries(
        label="zero",
        declared_bound=1.0,
        checkpoints=cps,
        values=np.zeros(3, dtype=complex),
        abs_mu_counts=(1, 1, 1),
    )
    fit = decay_fit(series)
    assert fit.exact_zero and math.isinf(fit.h)


def test_decay_fit_needs_enough_points():
    series = AverageSeries(
        label="short",
        declared_bound=1.0,
        checkpoints=(10, 100),
        values=np.ones(2, dtype=complex),
        abs_mu_counts=(1, 1),
    )
    with pytest.raises(ValueError):
        decay_fit(series)


def test_bsz_golden_rotation_passes(table_1m):
    rep = bsz_check(rotation_flow(GOLDEN), table_1m, 0.25, 10**4, 10**6)
    assert rep.hypothesis_holds
    assert rep.max_correlation_ratio < 1.0
    assert rep.within_analytic_bound
    assert rep.analytic_bound == pytest.approx(
        2.0 * math.sqrt(0.25 * math.log(4.0)) * 10**6
    )
    assert rep.prime_cap <= min(200, int(math.exp(4)), 10**6 // 10**4)
    assert rep.prime_pairs_checked > 0


def test_bsz_constant_flow_fails(table_1m):
    rep = bsz_check(constant_flow(1.0), table_1m, 0.25, 10**4, 10**6)
    assert not rep.hypothesis_holds
    assert rep.max_correlation_ratio == pytest.approx(4.0)


def test_bsz_rejects_bad_epsilon(table_10k):
    with pytest.raises(ValueError):
        bsz_check(constant_flow(1.0), table_10k, 1.5, 10, 10**4)
