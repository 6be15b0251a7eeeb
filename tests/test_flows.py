import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hermitian_contraction, symbol_contraction, unit_vector
from ncflow import matrix_dynamics, moebius
from ncflow.car_fock import annihilation, counterexample_flow, creation, pure_point_flow
from ncflow.flows import (
    BOUND_SLACK,
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
from ncflow.linalg import haar_unitary, random_density
from ncflow.matrix_dynamics import ad_flow
from ncflow.moebius import build_table, exp_sum, phase_values
from oracles import mertens, mu_array, squarefree_count, table_of, tree_sum, values

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
        direct = exp_sum(table_1m, (0.0, GOLDEN), n)
        assert abs(series.values[i] - direct) < 1e-12
    # at a single checkpoint both are one weighted_average call in the same
    # runs, so the bits agree, here past two run edges
    N = 2 * moebius._SUM_RUN + 777
    cubic = (0.0, 0.1234, 0.56789, 0.3)
    phases = {
        "golden": (rotation_flow(GOLDEN), (0.0, GOLDEN)),
        "cubic": (Flow(lambda ns: phase_values(cubic, ns), 1.0, "cubic"), cubic),
    }
    for name, (flow, coeffs) in phases.items():
        got = average_series(flow, table_1m, [N]).values[0]
        want = exp_sum(table_1m, coeffs, N)
        assert np.complex128(got).tobytes() == np.complex128(want).tobytes(), name


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
    # three threads, each summing whole runs, with checkpoints that cut
    # the runs at uneven places
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
    # dropping trailing checkpoints keeps every piece below the last one kept
    kept = average_series(flow, table_1m, cps[:keep])
    assert kept.values.tobytes() == runs[0].values[:keep].tobytes()


@pytest.mark.parametrize("cpus, pool_size", [(4, 3), (2, 2), (None, None)])
def test_series_worker_count_is_clamped(table_1m, monkeypatch, cpus, pool_size):
    # three runs: the pool never gets more threads than runs or
    # CPUs, and a clamp to one thread starts no pool at all
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
    N = 2 * moebius._SUM_RUN + 9000
    serial = average_series(flow, table_1m, [N])
    clamped = average_series(flow, table_1m, [N], workers=100_000)
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
        values(bad, 4090, 4200)


@pytest.mark.parametrize(
    "bad, message",
    [
        (complex("nan"), "produced a non-finite value at n = 3"),
        (complex(math.inf, 0.0), "produced a non-finite value at n = 3"),
        (complex(0.0, -math.inf), "produced a non-finite value at n = 3"),
        (1.0 + 2 * BOUND_SLACK, "exceeded its declared bound 1 at n = 3"),
    ],
)
def test_flow_at_checks_every_value_in_one_pass(bad, message):
    # the values pass in one comparison with the bound; a failing value is
    # then named by the finiteness check first and the bound check second
    def flow_with(values):
        edge = np.array(values, dtype=np.complex128)
        return Flow(values_at=lambda ns: edge[ns - 1], declared_bound=1.0, label="edge")

    at_bound = [0.5, -1.0, 1.0 + BOUND_SLACK, 1j, 0.6 - 0.8j]
    assert np.array_equal(flow_with(at_bound).at(np.arange(1, 6)), at_bound)
    values = list(at_bound)
    values[2] = bad
    with pytest.raises(FlowEvaluationError, match=f"^flow 'edge' {message}$"):
        flow_with(values).at(np.arange(1, 6))
    # a non-finite value is reported before an earlier over-bound one
    values[1] = 2.0
    first = "non-finite value at n = 3" if "non-finite" in message else "bound 1 at n = 2"
    with pytest.raises(FlowEvaluationError, match=first):
        flow_with(values).at(np.arange(1, 6))


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
    poly_phase flow included, and the rank-one matrix coefficient
    |<U^n eta, xi>|^2, the ad_flow of the state xi xi* and the observable
    eta eta*; their n may run up to 10^4."""
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
    ad = ad_flow(u, a, random_density(5, rng))
    xi, eta = unit_vector(rng, 5), unit_vector(rng, 5)
    rank_one = ad_flow(u, np.outer(eta, eta.conj()), np.outer(xi, xi.conj()))
    flows = [
        rotation_flow(GOLDEN),
        constant_flow(0.5 - 0.25j),
        Flow(
            values_at=lambda ns: phase_values(coeffs, ns),
            declared_bound=1.0,
            label="poly_phase(degree=3)",
        ),
        ad,
        matrix_dynamics._state_flow(u, a, g)[0],
        pure_point_flow(rng.random(4), observable, symbol_contraction(rng, 4)),
        shifts.bh_flow,
        shifts.car_flow,
    ]
    # keyed apart: its label is ad_flow's own
    return {**{flow.label: flow for flow in flows}, "rank_one_flow(dim=5)": rank_one}


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
    # weighted_average's call: the squarefree n of the range alone
    table = build_table(lo + size)
    mu = table.window(lo + 1, lo + size + 1)
    assert flow.at(ns[mu != 0]).tobytes() == full[mu != 0].tobytes()
    # and summed over a table with mu = 0 below lo + 1, against tree_sum of
    # the values of the whole range
    padded = mu_array(table)
    padded[: lo + 1] = 0
    ((got, _),) = moebius.weighted_average(table_of(padded), [lo + size], flow.at)
    (total,) = tree_sum(padded, np.concatenate([np.zeros(lo + 1, complex), full]), [lo + size])
    want = complex(total) / (lo + size)
    assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


@pytest.mark.parametrize("label", sorted(FLOW_FAMILIES))
def test_flow_values_keep_their_bits_across_row_tiles(label):
    # matrix-row evaluators take a long call _ROW_TILE n at a time; a last
    # tile of one n would take numpy's one-row product, which rounds
    # otherwise, so it joins the tile before and every n keeps its bits
    flow = FLOW_FAMILIES[label]
    tile = moebius._ROW_TILE
    for size in (tile - 1, tile, tile + 1, tile + 2, 2 * tile + 1):
        ns = np.arange(1, size + 1, dtype=np.int64)
        full = flow.at(ns)
        for i in {0, tile - 1, tile, size - 2, size - 1} & set(range(size)):
            assert full[i : i + 1].tobytes() == flow.at(ns[i : i + 1]).tobytes(), (size, i)


@pytest.mark.parametrize("label", sorted(FLOW_FAMILIES))
def test_flow_values_at_one_n_keep_their_bits(label):
    # values_at itself, not only the checked Flow.at, is pointwise at a
    # single n: moebius.by_row_tiles never hands a matrix-row evaluator one
    # row, which numpy would multiply through gemv or dot
    flow = FLOW_FAMILIES[label]
    ns = np.array([1, 2, 3, 7, 100, 1000, 1024, 1025, 4097, 9973, 10**4], dtype=np.int64)
    full = flow.values_at(ns)
    for i in range(ns.size):
        assert flow.values_at(ns[i : i + 1]).tobytes() == full[i : i + 1].tobytes(), ns[i]


@pytest.mark.parametrize("label", sorted(FLOW_FAMILIES))
def test_series_is_the_per_block_sums_of_flow_values(label):
    # average_series evaluates whole runs at the squarefree n; the oracle
    # evaluates Flow.values at every n, one piece between two cuts at a
    # time, and tree_sum reduces the pieces' squarefree terms and folds the
    # sums: the bits must agree
    flow = FLOW_FAMILIES[label]
    N = min(flow.valid_n or 10**9, 2 * moebius._SUM_RUN + 1000)
    cps = [1000, moebius._SUM_RUN // 4 + 1, N // 2, N]
    table = build_table(N)
    edges = sorted({*range(0, N, moebius._SUM_RUN), *cps})
    f = np.zeros(N + 1, dtype=np.complex128)
    for lo, hi in zip(edges, edges[1:]):
        f[lo + 1 : hi + 1] = values(flow, lo, hi)
    want = [complex(s) / n for s, n in zip(tree_sum(mu_array(table), f, cps), cps)]
    got = average_series(flow, table, cps).values
    assert got.tobytes() == np.array(want).tobytes()


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
    assert np.max(np.abs(values(flow, 0, 1000) - np.tile(cycle[::-1], 500))) < 1e-13
    n = 10**5
    s = average_series(flow, table_1m, [n]).values[0]
    mu = table_1m.window(1, n + 1).astype(np.float64)
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
    assert rep.analytic_bound == 2.0 * math.sqrt(0.25 * math.log(1.0 / 0.25)) * 10**6
    assert rep.prime_cap <= min(200, int(math.exp(4)), 10**6 // 10**4)
    assert rep.prime_pairs_checked > 0


def test_bsz_constant_flow_fails(table_1m):
    rep = bsz_check(constant_flow(1.0), table_1m, 0.25, 10**4, 10**6)
    assert not rep.hypothesis_holds
    assert rep.max_correlation_ratio == pytest.approx(4.0)


def test_bsz_ratio_just_past_one_fails():
    # |f|^2 = 0.3 at every n: each correlation is 0.3 M, a ratio of 1.2
    rep = bsz_check(constant_flow(math.sqrt(0.3)), build_table(10**5), 0.25, 1000, 10**5)
    assert rep.max_correlation_ratio == pytest.approx(1.2)
    assert not rep.hypothesis_holds


def test_bsz_moebius_sum_just_past_the_analytic_bound_is_reported():
    # f = mu: |sum_{n<=N} mu(n)^2| = Q(10^5) = 60794, against the analytic
    # bound 2 sqrt(0.02 log 50) 10^5 = 55943, a ratio of 1.087
    table = build_table(10**5)
    mu = mu_array(table)
    flow = Flow(values_at=lambda ns: mu[ns].astype(np.complex128), declared_bound=1.0, label="mu")
    rep = bsz_check(flow, table, 0.02, 100, 10**5)
    assert rep.mobius_sum_abs == pytest.approx(squarefree_count(table, 10**5))
    assert rep.mobius_sum_abs / rep.analytic_bound == pytest.approx(1.087, abs=1e-3)
    assert not rep.within_analytic_bound


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
