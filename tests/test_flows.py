import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hermitian_contraction, symbol_contraction, unit_vector
from ncflow import moebius
from ncflow.car_fock import annihilation, counterexample_flow, creation, pure_point_flow
from ncflow.flows import (
    BSZ_PRIME_CAP,
    AverageSeries,
    Flow,
    FlowEvaluationError,
    average_series,
    bsz_check,
    bsz_prime_cap,
    constant_flow,
    decay_fit,
    geometric_checkpoints,
    rotation_flow,
)
from ncflow.free_words import ReducedWord, free_shift_flow
from ncflow.linalg import haar_unitary, random_density
from ncflow.matrix_dynamics import ad_flow, finite_vn_state_flow, rank_one_flow
from ncflow.moebius import (
    PolynomialPhase,
    build_table,
    exp_sum,
    mertens,
    phase_values,
    squarefree_count,
)

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
    monkeypatch.setattr(moebius.os, "cpu_count", lambda: 3)
    cps = sorted({*cps, 4097, 8191, 12289, 50001, 77777})
    s1 = average_series(flow, table_1m, cps, workers=1)
    s3 = average_series(flow, table_1m, cps, workers=3)
    assert np.array_equal(s1.values, s3.values)
    assert s1.abs_mu_counts == s3.abs_mu_counts


@settings(max_examples=20, deadline=None)
@given(
    cps=st.lists(st.integers(1, 60_000), min_size=1, max_size=8, unique=True),
    keep=st.integers(1, 8),
    theta=st.floats(0.0, 1.0),
)
def test_series_bits_ignore_workers_and_dropped_checkpoints(table_1m, cps, keep, theta):
    cps = sorted(cps)
    flow = rotation_flow(theta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moebius.os, "cpu_count", lambda: 3)
        runs = [average_series(flow, table_1m, cps, workers=w) for w in (1, 2, 3)]
    for series in runs[1:]:
        assert series.values.tobytes() == runs[0].values.tobytes()
    # dropping trailing checkpoints keeps every block below the last one kept
    kept = average_series(flow, table_1m, cps[:keep])
    assert kept.values.tobytes() == runs[0].values[:keep].tobytes()


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

    monkeypatch.setattr(moebius, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(moebius.os, "cpu_count", lambda: cpus)
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


@pytest.mark.parametrize("value", [complex(0.0, math.inf), complex(1.0, math.nan)])
def test_flow_rejects_a_value_nonfinite_only_in_its_imaginary_part(value):
    def vals(ns):
        return np.where(ns >= 4100, value, 0.5 + 0j)

    bad = Flow(values_at=vals, declared_bound=2.0, label="imag")
    with pytest.raises(FlowEvaluationError, match=r"non-finite value at n = 4100$"):
        bad.values(4090, 4200)


def test_flow_accepts_values_exactly_at_the_bound():
    edge = np.array([1.0, -1.0, 1j, -1j, (0.6 + 0.8j)])
    flow = Flow(values_at=lambda ns: edge[ns - 1], declared_bound=1.0, label="edge")
    assert np.array_equal(flow.at(np.arange(1, 6)), edge)


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
    assert flow.at([7])[0] == 0.5
    series = average_series(flow, table_10k, [100])
    assert series.values[0] == pytest.approx(0.5 * mertens(table_10k, 100) / 100)
    with pytest.raises(ValueError, match="n >= 1"):
        flow.at([0])[0]


def _one_flow_of_each_family():
    """A flow of every family the package builds, the CLI's inline
    poly_phase flow included; their n may run up to 10^4."""
    rng = np.random.default_rng(31)
    u = haar_unitary(5, rng)
    a = hermitian_contraction(rng, 5)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    v = [unit_vector(rng, 4) for _ in range(6)]
    observable = (
        creation(v[0]) * creation(v[1]) * annihilation(v[2]) * annihilation(v[3])
        + creation(v[4]) * annihilation(v[5])
    )
    coeffs = (0.0, 0.1234, 0.56789, 0.3)
    shifts = counterexample_flow(10**4, build_table(10**4))
    flows = [
        rotation_flow(GOLDEN),
        constant_flow(0.5 - 0.25j),
        free_shift_flow(ReducedWord(((1, 2),)), ReducedWord(())),
        Flow(
            values_at=lambda ns: phase_values(coeffs, ns),
            declared_bound=1.0,
            label="poly_phase(degree=3)",
        ),
        ad_flow(u, a, random_density(5, rng)),
        rank_one_flow(u, unit_vector(rng, 5), unit_vector(rng, 5)),
        finite_vn_state_flow(u, a, g),
        pure_point_flow(rng.random(4), observable, symbol_contraction(rng, 4)),
        shifts.bh_flow,
        shifts.car_flow,
    ]
    return {flow.label: flow for flow in flows}


FLOW_FAMILIES = _one_flow_of_each_family()


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(sorted(FLOW_FAMILIES)),
    lo=st.integers(0, 9000),
    size=st.integers(1, 1000),
    data=st.data(),
)
def test_flow_values_are_pointwise_in_n(label, lo, size, data):
    # the pointwise contract: a value's bits depend on its n alone, not on
    # the other n of the request, their order or their number
    flow = FLOW_FAMILIES[label]
    ns = np.arange(lo + 1, lo + size + 1, dtype=np.int64)
    full = flow.at(ns)
    pick = np.array(
        data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size)),
        dtype=np.int64,
    )
    assert flow.at(ns[pick]).tobytes() == full[pick].tobytes()
    one = int(pick[0])
    assert flow.at(ns[one : one + 1]).tobytes() == full[one : one + 1].tobytes()
    mu = build_table(lo + size).mu[lo + 1 :]
    squarefree = flow.values(lo, lo + size, where=mu)
    assert squarefree.tobytes() == np.where(mu != 0, full, 0j).tobytes()


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
    cycle = [flow.at([q])[0], flow.at([1])[0]]  # c_0, c_1
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


def test_bsz_prime_cap_refuses_an_empty_audit(table_10k):
    assert bsz_prime_cap(0.25, 10, 10**4) == 54  # floor(e^4)
    assert bsz_prime_cap(0.25, 1000, 10**4) == 10  # n_max / M
    assert bsz_prime_cap(1e-300, 10, 10**4) == BSZ_PRIME_CAP  # e^(1/eps) would overflow
    with pytest.raises(ValueError, match=r"is 2 < 3"):  # e^(1/0.95) < 3
        bsz_check(constant_flow(1.0), table_10k, 0.95, 10, 10**4)
    with pytest.raises(ValueError, match=r"is 0 < 3"):  # n_max / M < 1
        bsz_check(constant_flow(1.0), table_10k, 0.25, 10**5, 10**4)
