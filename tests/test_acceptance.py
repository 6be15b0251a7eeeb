"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines; each
test also asserts its conditions, so a plain pytest run enforces the same
gates.  Tolerances and sizes are stated inline next to every check.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from conftest import hermitian_contraction, symbol_contraction, unit_vector, word_shift_flow
from ncflow.car_fock import (
    annihilation,
    constant,
    counterexample_flow,
    creation,
    creation_matrix,
    fock_space,
    gamma,
    normal_order,
    pure_point_flow,
    quasifree_density_matrix,
    quasifree_eval,
)
from ncflow.cli import main as cli_main
from ncflow.flows import (
    average_series,
    bsz_check,
    constant_flow,
    decay_fit,
    geometric_checkpoints,
    rotation_flow,
)
from ncflow.free_words import (
    catalan,
    cumulants_to_moments,
    free_clt_moments,
    moments_to_cumulants,
)
from ncflow.linalg import haar_unitary, op_norm, random_density, unitary_power
from ncflow.matrix_dynamics import (
    TraceProductSpec,
    ad_flow,
    finite_vn_average_bound,
    quantize_unitary,
    trace_product_sum,
)
from ncflow.moebius import build_table
from oracles import (
    GroupElementSum,
    ReducedWord,
    arcsine_sum_moment_by_words,
    mertens,
    mu_array,
    nc_partitions,
    squarefree_count,
    values,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def report(index, label, **checks):
    ok = all(checks.values())
    print(f"acceptance {index:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    failed = [name for name, good in checks.items() if not good]
    assert not failed, f"{label}: failed checks {failed}"


def mu_trial(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def random_trace_spec(rng, k, d, coeff_max=7):
    unitaries = tuple(haar_unitary(k, rng) for _ in range(d))
    contractions = tuple(hermitian_contraction(rng, k) for _ in range(d))
    polys = tuple(
        (0, int(rng.integers(-coeff_max, coeff_max + 1))) for _ in range(d)
    )
    return TraceProductSpec(unitaries, contractions, polys)


def test_01_sieve_matches_trial_division():
    start = time.perf_counter()
    table = build_table(10**6)
    oracle = np.array([mu_trial(n) for n in range(1, 10**4 + 1)], dtype=np.int8)
    mu = mu_array(table)
    sieve_ok = np.array_equal(mu[1 : 10**4 + 1], oracle)
    rng = np.random.default_rng(0)
    a = rng.integers(1, 1000, size=2 * 10**5)
    b = rng.integers(1, 1000, size=2 * 10**5)
    coprime = np.gcd(a, b) == 1
    a, b = a[coprime][: 10**5], b[coprime][: 10**5]
    mult_ok = len(a) == 10**5 and np.array_equal(
        mu[a * b], mu[a] * mu[b]
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        "sieve vs trial division and multiplicativity",
        oracle_match_to_1e4=sieve_ok,
        multiplicative_on_1e5_coprime_pairs=mult_ok,
        under_5_seconds=elapsed < 5.0,
    )


def test_02_mertens_and_squarefree_density():
    start = time.perf_counter()
    table = build_table(10**6)
    m = mertens(table, 10**6)
    q = squarefree_count(table, 10**6)
    elapsed = time.perf_counter() - start
    report(
        2,
        "Mertens smallness and squarefree density",
        mertens_ratio_below_1e_3=abs(m) / 10**6 < 1e-3,
        density_within_5e_4=abs(q / 10**6 - 6 / math.pi**2) < 5e-4,
        under_5_seconds=elapsed < 5.0,
    )


def test_03_car_anticommutation():
    sp = fock_space(6)
    eye = np.eye(sp.dim)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        f, g = unit_vector(rng, 6), unit_vector(rng, 6)
        af, ag = creation_matrix(sp, f), creation_matrix(sp, g)
        worst = max(
            worst,
            op_norm(af @ ag + ag @ af),
            op_norm(af @ af),
            op_norm(af @ ag.conj().T + ag.conj().T @ af - np.vdot(g, f) * eye),
        )
    report(3, "CAR identities, 50 pairs at d=6", residual_below_1e_12=worst < 1e-12)


def test_04_bogoliubov_covariance():
    worst = 0.0
    pairs = 0
    for d in (2, 4, 6):
        sp = fock_space(d)
        for seed in range(7):
            rng = np.random.default_rng(seed)
            u = haar_unitary(d, rng)
            f = unit_vector(rng, d)
            gu = gamma(sp, u)
            lhs = gu @ creation_matrix(sp, f) @ gu.conj().T
            worst = max(worst, op_norm(lhs - creation_matrix(sp, u @ f)))
            pairs += 1
    report(
        4,
        "second quantization moves one-particle vectors",
        at_least_20_pairs=pairs >= 20,
        residual_below_1e_10=worst < 1e-10,
    )


def test_05_quasifree_consistency():
    worst_eval = 0.0
    samples = 0
    for d in (2, 3, 4, 5):
        sp = fock_space(d)
        rng = np.random.default_rng(d)
        t = symbol_contraction(rng, d)
        rho = quasifree_density_matrix(t, sp)
        for _ in range(50):
            n_star = int(rng.integers(0, 4))
            n_plain = int(rng.integers(0, min(4, 7 - n_star)))
            poly = constant(complex(rng.standard_normal(), rng.standard_normal()))
            for _ in range(n_star):
                poly = poly * annihilation(unit_vector(rng, d))
            for _ in range(n_plain):
                poly = poly * creation(unit_vector(rng, d))
            lhs = quasifree_eval(t, poly)
            rhs = complex(np.trace(rho @ poly.to_matrix(sp)))
            worst_eval = max(worst_eval, abs(lhs - rhs))
            samples += 1
    worst_order = 0.0
    sp = fock_space(3)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        poly = constant(1.0)
        for _ in range(6):
            vec = unit_vector(rng, 3)
            poly = poly * (creation(vec) if rng.integers(0, 2) else annihilation(vec))
        worst_order = max(
            worst_order, op_norm(poly.to_matrix(sp) - normal_order(poly).to_matrix(sp))
        )
    report(
        5,
        "determinant formula vs density matrix",
        two_hundred_samples=samples == 200,
        eval_residual_below_1e_10=worst_eval < 1e-10,
        normal_order_preserves_matrix_1e_10=worst_order < 1e-10,
    )


def test_06_counterexample_exactness(table_1m):
    L = 10**4
    flows = counterexample_flow(L, table_1m)
    series = average_series(flows.bh_flow, table_1m, [L])
    q_count = squarefree_count(table_1m, L)
    count_exact = series.abs_mu_counts[-1] == q_count
    value_exact = abs(series.values[-1]) == q_count / L
    mu = table_1m.window(1, L + 1).astype(np.float64)
    car_vals = values(flows.car_flow, 0, L)
    car_exact = np.array_equal(car_vals, (mu + 1) / 2)
    bh_vals = values(flows.bh_flow, 0, L)
    bh_exact = np.array_equal(bh_vals, mu.astype(np.complex128))
    report(
        6,
        "flows that reproduce mu exactly",
        series_numerator_is_squarefree_count=count_exact,
        series_value_exact=value_exact,
        mu_values_exact=bh_exact,
        half_shifted_values_exact=car_exact,
        no_decay_above_055=abs(series.values[-1]) > 0.55,
    )


def test_07_trace_product_two_paths(table_1m):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        spec = random_trace_spec(rng, k, d)
        res = trace_product_sum(spec, table_1m, 1000)
        worst = max(worst, res.discrepancy)
    means = []
    for k in (2, 4, 8, 16):
        vals = []
        for seed in (100, 101, 102):
            rng = np.random.default_rng(seed)
            spec = random_trace_spec(rng, k, 2)
            vals.append(abs(trace_product_sum(spec, table_1m, 1000).value))
        means.append(float(np.mean(vals)))
    no_growth = all(
        means[j] <= 2.0 * means[i]
        for i in range(len(means))
        for j in range(i + 1, len(means))
    )
    report(
        7,
        "direct vs eigen-expansion trace sums",
        two_path_residual_below_1e_9=worst < 1e-9,
        dimension_independent_within_2x=no_growth,
    )


def test_08_rank_one_tensor_identity():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u = haar_unitary(4, rng)
        xi, eta = unit_vector(rng, 4), unit_vector(rng, 4)
        fl = ad_flow(u, np.outer(eta, eta.conj()), np.outer(xi, xi.conj()))
        w = np.eye(4, dtype=complex)
        for n in range(1, 101):
            w = u @ w
            big = np.kron(w, w.conj().T)
            rhs = complex(np.vdot(np.kron(xi, eta), big @ np.kron(eta, xi)))
            worst = max(worst, abs(fl.at([n])[0] - rhs))
    report(8, "matrix coefficients as tensor products", residual_below_1e_12=worst < 1e-12)


def test_09_quantization_bound_chain(table_1m):
    drift_ok = True
    chain_ok = True
    for epsilon in (0.1, 0.01):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u = haar_unitary(8, rng)
            quantized = quantize_unitary(u, epsilon, 100)
            drift = max(
                op_norm(unitary_power(u, n) - unitary_power(quantized.power(1), n))
                for n in range(1, 101)
            )
            drift_ok = drift_ok and drift <= epsilon + 1e-12
            t = hermitian_contraction(rng, 8)
            a = hermitian_contraction(rng, 8)
            fb = finite_vn_average_bound(u, quantized, t, a, table_1m, 100)
            chain_ok = (
                chain_ok
                and fb.bound >= abs(fb.s_n) - 1e-12
                and abs(fb.s_n - fb.s_n_quantized) <= fb.epsilon_term + 1e-9
            )
    report(
        9,
        "spectral quantization with certified drift",
        powers_stay_within_epsilon=drift_ok,
        bound_chain_dominates_average=chain_ok,
    )


def test_10_conjugation_linearity_state_bounds(table_10k):
    worst_conj = 0.0
    worst_lin = 0.0
    state_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dim = 6
        u = haar_unitary(dim, rng)
        w = haar_unitary(dim, rng)
        rho = random_density(dim, rng)
        a = hermitian_contraction(rng, dim)
        conjugated = ad_flow(w @ u @ w.conj().T, a, rho)
        rotated = ad_flow(u, w.conj().T @ a @ w, w.conj().T @ rho @ w)
        worst_conj = max(
            worst_conj,
            float(np.max(np.abs(values(conjugated, 0, 80) - values(rotated, 0, 80)))),
        )
        b = hermitian_contraction(rng, dim)
        c1, c2 = 0.35, 0.4 + 0.2j
        s_a = average_series(ad_flow(u, a, rho), table_10k, [5000]).values[0]
        s_b = average_series(ad_flow(u, b, rho), table_10k, [5000]).values[0]
        s_mix = average_series(ad_flow(u, c1 * a + c2 * b, rho), table_10k, [5000]).values[0]
        worst_lin = max(worst_lin, abs(s_mix - (c1 * s_a + c2 * s_b)))
        sigma = random_density(dim, rng)
        rho_near = 0.98 * rho + 0.02 * sigma
        trace_dist = float(np.sum(np.linalg.svd(rho - rho_near, compute_uv=False)))
        s_near = average_series(ad_flow(u, a, rho_near), table_10k, [5000]).values[0]
        state_ok = state_ok and abs(s_a - s_near) <= trace_dist * op_norm(a) + 1e-12
    report(
        10,
        "conjugation, linearity, state approximation",
        conjugation_exact_1e_12=worst_conj < 1e-12,
        linearity_exact_1e_12=worst_lin < 1e-12,
        state_bound_holds=state_ok,
    )


def test_11_decay_experiments(table_1m):
    n_max = 10**5
    decades = (10**3, 10**4, 10**5)
    fine = geometric_checkpoints(n_max)

    def flow_passes(flow):
        start = time.perf_counter()
        coarse = average_series(flow, table_1m, decades)
        fit = decay_fit(average_series(flow, table_1m, fine))
        elapsed = time.perf_counter() - start
        magnitudes = np.abs(coarse.values)
        monotone = all(
            magnitudes[i + 1] <= 2.0 * magnitudes[i]
            for i in range(len(magnitudes) - 1)
        )
        return (
            magnitudes[-1] <= 0.02
            and monotone
            and fit.h > 0.0
            and elapsed < 60.0
        )

    matrix_ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        u = haar_unitary(8, rng)
        rho = random_density(8, rng)
        a = hermitian_contraction(rng, 8)
        matrix_ok = matrix_ok and flow_passes(ad_flow(u, a, rho))
    pure_point_ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        d = 6
        angles = rng.random(d)
        t = symbol_contraction(rng, d)
        observable = (
            creation(unit_vector(rng, d))
            * creation(unit_vector(rng, d))
            * annihilation(unit_vector(rng, d))
            * annihilation(unit_vector(rng, d))
        )
        pure_point_ok = pure_point_ok and flow_passes(
            pure_point_flow(angles, observable, t)
        )
    report(
        11,
        "averages decay for generic finite flows",
        matrix_flows_decay=matrix_ok,
        pure_point_flows_decay=pure_point_ok,
    )


def test_12_free_module(table_10k):
    rng = np.random.default_rng(7)
    tracial = True
    for _ in range(5):
        def rand_sum():
            total = GroupElementSum()
            for _ in range(4):
                pairs = [
                    (int(rng.integers(0, 3)), int(rng.integers(-2, 3)))
                    for _ in range(4)
                ]
                word = ReducedWord.from_syllables(pairs)
                total = total + GroupElementSum.from_word(
                    word, Fraction(int(rng.integers(-4, 5)), 3)
                )
            return total

        x, y = rand_sum(), rand_sum()
        tracial = (
            tracial
            and (x * y).trace() == (y * x).trace()
            and x.shift(3).trace() == x.trace()
            and (x.adjoint() * x).trace() >= 0
        )
    counts_ok = all(
        len(list(nc_partitions(n))) == catalan(n) for n in range(1, 11)
    )
    exact_moments = tuple(Fraction(c, 8) for c in (0, 4, 0, 3, 0, 2, 1, 5))
    round_trip_exact = (
        cumulants_to_moments(moments_to_cumulants(exact_moments).kappa).moments
        == exact_moments
    )
    float_table = moments_to_cumulants([0.0, 0.5, 0.0, 0.375])
    float_back = cumulants_to_moments(float_table.kappa).moments
    round_trip_float = max(
        abs(a - b) for a, b in zip(float_back, [0.0, 0.5, 0.0, 0.375])
    ) < 1e-12
    clt_ok = all(
        free_clt_moments(q, 4)[3] == Fraction(1, 2) - Fraction(1, 8 * q)
        for q in (2, 10, 100)
    )
    word_check = arcsine_sum_moment_by_words(2, 4) == free_clt_moments(2, 4)[3]
    shift = word_shift_flow(ReducedWord.generator(0, 2), ReducedWord.generator(1))
    series = average_series(shift, table_10k, geometric_checkpoints(10**4))
    shift_zero = all(v == 0 for v in series.values)
    report(
        12,
        "free group algebra and free limit laws",
        trace_identities_exact=tracial,
        noncrossing_counts_are_catalan=counts_ok,
        cumulant_round_trip_exact=round_trip_exact,
        cumulant_round_trip_float_1e_12=round_trip_float,
        clt_fourth_moment_exact=clt_ok,
        word_expansion_cross_check=word_check,
        shift_averages_vanish_exactly=shift_zero,
    )


def test_13_bilinear_hypothesis_checker(table_1m):
    golden = bsz_check(rotation_flow(GOLDEN), table_1m, 0.25, 10**4, 10**6)
    flat = bsz_check(constant_flow(1.0), table_1m, 0.25, 10**4, 10**6)
    budget = 2.0 * math.sqrt(0.25 * math.log(4.0)) * 10**6
    report(
        13,
        "bilinear sum hypothesis screening",
        golden_rotation_passes=golden.hypothesis_holds,
        golden_checked_prime_pairs=golden.prime_pairs_checked > 0,
        mobius_sum_within_budget=golden.mobius_sum_abs <= budget,
        constant_flow_fails=not flat.hypothesis_holds,
    )


def test_14_cli_reproducibility(tmp_path, monkeypatch):
    args = ["matrix-flow", "--seed", "7", "--n-max", "10000", "--out", "run"]

    def run_in(subdir, extra=()):
        workdir = tmp_path / subdir
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli_main(args + list(extra)) == 0
        csv_bytes = (workdir / "run" / "matrix-flow.csv").read_bytes()
        sidecar = json.loads((workdir / "run" / "matrix-flow.json").read_text())
        sidecar.pop("timestamp")
        sidecar.pop("wall_time_s")
        return csv_bytes, json.dumps(sidecar, sort_keys=True)

    first = run_in("a")
    second = run_in("b")
    threaded = run_in("c", extra=["--workers", "4"])
    report(
        14,
        "experiment reruns are reproducible",
        rerun_byte_identical=first == second,
        four_workers_match_serial=first == threaded,
    )
