import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import symbol_contraction, unit_vector
from ncflow.car_fock import (
    CARMonomial,
    CARPolynomial,
    _gram_dets,
    _subset_dets,
    annihilation,
    check_symbol,
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
from ncflow.flows import average_series, geometric_checkpoints
from ncflow.linalg import haar_unitary, inner, op_norm
from ncflow.moebius import characters
from oracles import squarefree_count, values


def random_poly(rng, d, degree):
    poly = constant(complex(rng.standard_normal(), rng.standard_normal()))
    for _ in range(int(rng.integers(1, degree + 1))):
        factor = (
            creation(unit_vector(rng, d))
            if rng.integers(0, 2)
            else annihilation(unit_vector(rng, d))
        )
        poly = poly * factor
    return poly


def bogoliubov_apply(u, p, n):
    """The automorphism a(f) -> a(U^n f) applied to every factor of p, with
    U^n from np.linalg.matrix_power: the oracle for the pure-point flows."""
    w = np.linalg.matrix_power(u, n)
    return CARPolynomial(
        CARMonomial(scalar=m.scalar, factors=tuple((w @ v, star) for v, star in m.factors))
        for m in p.monomials
    )


def test_fock_space_shape():
    sp = fock_space(3)
    assert sp.dim == 8
    # vacuum first, then single modes, then pairs, then the top state
    sizes = [bin(m).count("1") for m in sp.basis]
    assert sizes == [0, 1, 1, 1, 2, 2, 2, 3]
    with pytest.raises(ValueError):
        fock_space(0)
    with pytest.raises(ValueError):
        fock_space(13)


def test_creation_matrix_single_mode():
    sp = fock_space(1)
    c = creation_matrix(sp, np.array([1.0 + 0j]))
    assert np.array_equal(c, np.array([[0, 0], [1, 0]], dtype=complex))


def test_creation_matrix_is_linear():
    sp = fock_space(3)
    rng = np.random.default_rng(0)
    f, g = unit_vector(rng, 3), unit_vector(rng, 3)
    z = 0.3 - 1.7j
    lhs = creation_matrix(sp, z * f + g)
    rhs = z * creation_matrix(sp, f) + creation_matrix(sp, g)
    assert op_norm(lhs - rhs) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_car_relations(seed):
    sp = fock_space(6)
    rng = np.random.default_rng(seed)
    f, g = unit_vector(rng, 6), unit_vector(rng, 6)
    af = creation_matrix(sp, f)
    ag = creation_matrix(sp, g)
    eye = np.eye(sp.dim)
    # {a(f), a(g)} = 0 and a(f)^2 = 0
    assert op_norm(af @ ag + ag @ af) < 1e-12
    assert op_norm(af @ af) < 1e-12
    # {a(f), a(g)*} = <f, g> 1
    assert op_norm(af @ ag.conj().T + ag.conj().T @ af - inner(f, g) * eye) < 1e-12


def test_gamma_functorial():
    sp = fock_space(3)
    rng = np.random.default_rng(1)
    u = haar_unitary(3, rng)
    v = haar_unitary(3, rng)
    gu, gv = gamma(sp, u), gamma(sp, v)
    assert op_norm(gamma(sp, np.eye(3)) - np.eye(8)) < 1e-12
    assert op_norm(gamma(sp, u @ v) - gu @ gv) < 1e-10
    assert op_norm(gu @ gu.conj().T - np.eye(8)) < 1e-10


def test_gamma_minors_oracle():
    # two-particle block entries are 2x2 determinants of U
    sp = fock_space(3)
    u = haar_unitary(3, 7)
    g = gamma(sp, u)
    basis_index = {m: i for i, m in enumerate(sp.basis)}
    i = basis_index[0b011]  # modes {0,1}
    j = basis_index[0b101]  # modes {0,2}
    minor = u[np.ix_((0, 1), (0, 2))]
    assert abs(g[i, j] - np.linalg.det(minor)) < 1e-12


def gamma_per_pair(space, u):
    """Oracle: one determinant per pair of equal-size subsets."""
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    subsets = [tuple(j for j in range(space.d) if m >> j & 1) for m in space.basis]
    for col, s_modes in enumerate(subsets):
        for row, t_modes in enumerate(subsets):
            if len(t_modes) == len(s_modes):
                out[row, col] = np.linalg.det(u[np.ix_(t_modes, s_modes)]) if s_modes else 1.0
    return out


@pytest.mark.parametrize("d", range(1, 9))
def test_gamma_is_bit_identical_to_per_pair_determinants(d):
    sp = fock_space(d)
    u = haar_unitary(d, d)
    assert np.array_equal(gamma(sp, u), gamma_per_pair(sp, u))


@pytest.mark.parametrize("d", [2, 4, 6])
def test_bogoliubov_covariance(d):
    sp = fock_space(d)
    for seed in range(7):
        rng = np.random.default_rng(seed)
        u = haar_unitary(d, rng)
        f = unit_vector(rng, d)
        gu = gamma(sp, u)
        lhs = gu @ creation_matrix(sp, f) @ gu.conj().T
        assert op_norm(lhs - creation_matrix(sp, u @ f)) < 1e-10


def test_bogoliubov_apply_matches_matrix_conjugation():
    d = 3
    sp = fock_space(d)
    rng = np.random.default_rng(3)
    u = haar_unitary(d, rng)
    p = random_poly(rng, d, 4)
    gu = gamma(sp, u)
    lhs = bogoliubov_apply(u, p, 2).to_matrix(sp)
    gu2 = gu @ gu
    rhs = gu2 @ p.to_matrix(sp) @ gu2.conj().T
    assert op_norm(lhs - rhs) < 1e-10


def test_polynomial_algebra_against_matrices():
    d = 3
    sp = fock_space(d)
    rng = np.random.default_rng(4)
    p = random_poly(rng, d, 3)
    q = random_poly(rng, d, 3)
    assert op_norm((p + q).to_matrix(sp) - (p.to_matrix(sp) + q.to_matrix(sp))) < 1e-12
    assert op_norm((p * q).to_matrix(sp) - p.to_matrix(sp) @ q.to_matrix(sp)) < 1e-12
    assert op_norm(p.adjoint().to_matrix(sp) - p.to_matrix(sp).conj().T) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_normal_order_preserves_matrix(seed):
    d = 3
    sp = fock_space(d)
    rng = np.random.default_rng(seed)
    p = random_poly(rng, d, 6)
    no = normal_order(p)
    assert op_norm(p.to_matrix(sp) - no.to_matrix(sp)) < 1e-10
    for m in no.monomials:
        assert "01" not in m.key()[0]  # no a(.) left of an a(.)*


def test_normal_order_is_idempotent():
    rng = np.random.default_rng(11)
    p = random_poly(rng, 3, 5)
    once = normal_order(p)
    twice = normal_order(once)
    sp = fock_space(3)
    assert op_norm(once.to_matrix(sp) - twice.to_matrix(sp)) < 1e-12


def test_check_symbol_rejects_bad_spectra():
    with pytest.raises(ValueError):
        check_symbol(np.diag([0.5, 1.5]))
    with pytest.raises(ValueError):
        check_symbol(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    check_symbol(np.diag([0.0, 1.0]))


def test_quasifree_density_matrix_single_mode():
    # symbol t = diag(lambda): mode occupied with probability 1 - lambda
    lam = 0.3
    sp = fock_space(1)
    rho = quasifree_density_matrix(np.array([[lam]]), sp)
    assert np.allclose(rho, np.diag([lam, 1 - lam]))


def test_quasifree_matches_density_matrix(table_10k):
    total = 0
    for d in (2, 3, 5):
        sp = fock_space(d)
        rng = np.random.default_rng(d)
        t = symbol_contraction(rng, d)
        rho = quasifree_density_matrix(t, sp)
        for _ in range(70):
            p = random_poly(rng, d, 6)
            lhs = quasifree_eval(t, p)
            rhs = complex(np.trace(rho @ p.to_matrix(sp)))
            assert abs(lhs - rhs) < 1e-10
            total += 1
    assert total >= 200


def test_quasifree_balanced_pair_is_symbol_element():
    # phi_T(a(g)* a(f)) = <Tf, g>
    d = 4
    rng = np.random.default_rng(9)
    t = symbol_contraction(rng, d)
    f, g = unit_vector(rng, d), unit_vector(rng, d)
    val = quasifree_eval(t, annihilation(g) * creation(f))
    assert abs(val - inner(t @ f, g)) < 1e-12


def test_quasifree_unbalanced_vanishes():
    d = 3
    rng = np.random.default_rng(10)
    t = symbol_contraction(rng, d)
    p = creation(unit_vector(rng, d)) * creation(unit_vector(rng, d)) * annihilation(
        unit_vector(rng, d)
    )
    assert abs(quasifree_eval(t, p)) < 1e-14


def test_quasifree_constant_and_empty_polynomials():
    t = symbol_contraction(np.random.default_rng(11), 3)
    assert quasifree_eval(t, constant(2.5 - 1j)) == 2.5 - 1j
    assert quasifree_eval(t, constant(1.0) + constant(0.5j)) == 1.0 + 0.5j
    assert quasifree_eval(t, CARPolynomial()) == 0j


def test_vectors_of_another_length_than_d_are_refused():
    # a length-1 vector would broadcast against the d phases of each row
    t = symbol_contraction(np.random.default_rng(13), 3)
    p = annihilation(np.array([1.0])) * creation(np.array([1.0]))
    with pytest.raises(ValueError, match="length d = 3"):
        quasifree_eval(t, p)
    with pytest.raises(ValueError, match="length d = 3"):
        pure_point_flow([0.1, 0.2, 0.3], p, t).values_at(np.arange(1, 3))


def _permanent_of_moduli(g) -> float:
    m = len(g)
    return sum(
        math.prod(abs(g[i, p[i]]) for i in range(m)) for p in itertools.permutations(range(m))
    )


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_subset_dets_match_linalg_det(m, seed):
    # a stack of m x m matrices with rows of unit norm: within the stated
    # first-order bound (m - 1)(sqrt(5) + m / 2) 2^-53 per|g| of the exact
    # determinant of the stored entries, and near LU's np.linalg.det
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((5, m, m)) + 1j * rng.standard_normal((5, m, m))
    if m:
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
    got = _subset_dets(g)
    assert got.shape == (5,) and got.dtype == np.complex128
    if m <= 1:
        want = np.ones(5) if m == 0 else g[:, 0, 0]
        assert np.array_equal(got, want)
        return
    bound = (m - 1) * (math.sqrt(5) + m / 2) * 2.0**-53 * (1 + 2.0**-20)
    with mpmath.workdps(40):
        for k in range(5):
            exact = mpmath.det(mpmath.matrix([[mpmath.mpc(x) for x in row] for row in g[k].tolist()]))
            err = float(abs(mpmath.mpc(complex(got[k])) - exact))
            assert err <= bound * _permanent_of_moduli(g[k]), (m, k)
    assert np.max(np.abs(got - np.linalg.det(g))) <= 4 * m * m * 2.0**-53


def gram_dets_per_entry(t, terms, z):
    """The former evaluator, kept as the oracle: one einsum per Gram entry
    and np.linalg.det on each term's stack."""
    out = np.full(len(z), sum((s for s, _, gs in terms if not gs), 0j), dtype=np.complex128)
    for scalar, plains, gs in terms:
        if not gs:
            continue
        tf = [(z * f) @ t.T for f in plains]
        wg = [np.conj(z) * np.conj(g) for g in gs]
        gram = np.empty((len(z), len(gs), len(gs)), dtype=np.complex128)
        for i, tf_i in enumerate(tf):
            for j, wg_j in enumerate(wg):
                gram[:, i, j] = np.einsum("nk,nk->n", tf_i, wg_j)
        out += scalar * np.linalg.det(gram)
    return out


@pytest.mark.parametrize("d", [1, 6, 32])
@pytest.mark.parametrize("seed", range(3))
def test_gram_dets_match_the_per_entry_oracle(d, seed):
    # random balanced terms of sizes 0..4 in random order, at the phases of
    # 300 n and at z = 1: every |entry| <= ||T|| <= 1, so each m x m
    # determinant is below m^(m/2); the two evaluators round each entry's
    # d-term sum differently, and over 20 seeds differed by at most
    # 0.26 d 2^-52 of that scale
    rng = np.random.default_rng(seed)
    t = symbol_contraction(rng, d)
    terms = []
    for m in rng.permutation([0, 1, 1, 2, 2, 3, 4, 0]):
        scalar = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(
            (scalar, [unit_vector(rng, d) for _ in range(m)], [unit_vector(rng, d) for _ in range(m)])
        )
    scale = sum(abs(s) * max(1, m) ** (m / 2) for s, _, gs in terms for m in [len(gs)])
    dets = _gram_dets(t, terms)
    for z in (characters(rng.random(d), rng.integers(0, 10**8, size=300)), np.ones((1, d))):
        got = dets(z)
        assert got.shape == (len(z),)
        assert np.max(np.abs(got - gram_dets_per_entry(t, terms, z))) <= 4 * d * 2.0**-52 * scale
    assert dets(np.ones((0, d))).shape == (0,)


def test_quasifree_positivity():
    d = 4
    rng = np.random.default_rng(12)
    t = symbol_contraction(rng, d)
    for _ in range(25):
        p = random_poly(rng, d, 3)
        val = quasifree_eval(t, p.adjoint() * p)
        assert val.real >= -1e-9
        assert abs(val.imag) < 1e-9


def test_counterexample_values_are_exact(table_10k):
    L = 500
    flows = counterexample_flow(L, table_10k)
    for n in range(1, L + 1):
        mu = int(table_10k.window(n, n + 1)[0])
        assert flows.bh_flow.at([n])[0] == complex(mu)
        assert flows.car_flow.at([n])[0] == complex((mu + 1) / 2)
    with pytest.raises(ValueError):
        flows.bh_flow.at([L + 1])[0]


def test_counterexample_series_has_no_decay(table_10k):
    L = 10**4
    flows = counterexample_flow(L, table_10k)
    series = average_series(flows.bh_flow, table_10k, geometric_checkpoints(L))
    expect = squarefree_count(table_10k, L) / L
    assert abs(series.values[-1]) == expect  # exact: the sum counts squarefree n
    assert abs(series.values[-1]) > 0.55


def test_counterexample_window_checks(table_10k):
    with pytest.raises(ValueError):
        counterexample_flow(0, table_10k)
    with pytest.raises(ValueError):
        counterexample_flow(10**5, table_10k)  # beyond the sieve range
    flows = counterexample_flow(100, table_10k)
    with pytest.raises(ValueError):
        average_series(flows.car_flow, table_10k, [101])


def test_counterexample_peaks_below_4_bytes_per_n_of_L(table_1m):
    # the flows hold mu(1..L) reversed as int8 and average_series holds one
    # run at a time: both series at L = 10^6 peak at 3.0 bytes per n of L,
    # the window's unpacking scratch included (19.0 with an int64 diagonal
    # of all 2L + 1 entries)
    L = 10**6

    def both_series():
        flows = counterexample_flow(L, table_1m)
        for flow in (flows.bh_flow, flows.car_flow):
            average_series(flow, table_1m, [L // 10, L])

    both_series()  # numpy's one-time imports stay out of the measure
    tracemalloc.start()
    try:
        both_series()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * L, peak / L


def test_pure_point_flow_matches_bogoliubov_oracle():
    d = 4
    rng = np.random.default_rng(20)
    angles = rng.random(d)
    t = symbol_contraction(rng, d)
    vs = [unit_vector(rng, d) for _ in range(6)]
    obs = (
        creation(vs[0]) * creation(vs[1]) * annihilation(vs[2]) * annihilation(vs[3])
        + creation(vs[4]) * annihilation(vs[5])
        + creation(vs[0]) * annihilation(vs[1]) * 0.3
    )
    flow = pure_point_flow(angles, obs, t)
    u = np.diag(np.exp(2j * np.pi * angles))
    for n in range(1, 15):
        direct = quasifree_eval(t, bogoliubov_apply(u, obs, n))
        assert abs(flow.at([n])[0] - direct) < 1e-10


def test_pure_point_flow_matches_dense_fock_oracle():
    # independent of the determinant kernel: trace against the density matrix
    d = 4
    sp = fock_space(d)
    rng = np.random.default_rng(23)
    angles = rng.random(d)
    t = symbol_contraction(rng, d)
    vs = [unit_vector(rng, d) for _ in range(6)]
    obs = (
        creation(vs[0]) * creation(vs[1]) * annihilation(vs[2]) * annihilation(vs[3])
        + creation(vs[4]) * annihilation(vs[5])
        + creation(vs[0]) * annihilation(vs[1]) * 0.3
        + constant(0.2 - 0.1j)
    )
    flow = pure_point_flow(angles, obs, t)
    rho = quasifree_density_matrix(t, sp)
    u = np.diag(np.exp(2j * np.pi * angles))
    ns = np.arange(0, 21)
    values = flow.values_at(ns)
    for n, value in zip(ns, values):
        dense = np.trace(rho @ bogoliubov_apply(u, obs, int(n)).to_matrix(sp))
        assert abs(value - dense) < 1e-10


def test_pure_point_flow_batch_matches_scalar():
    d = 3
    rng = np.random.default_rng(21)
    angles = rng.random(d)
    t = symbol_contraction(rng, d)
    obs = creation(unit_vector(rng, d)) * annihilation(unit_vector(rng, d))
    flow = pure_point_flow(angles, obs, t)
    ns = np.arange(1, 40)
    batch = flow.values_at(ns)
    scal = np.array([flow.at([int(n)])[0] for n in ns])
    assert np.max(np.abs(batch - scal)) < 1e-12


def test_pure_point_flow_respects_declared_bound():
    d = 5
    rng = np.random.default_rng(22)
    angles = rng.random(d)
    t = symbol_contraction(rng, d)
    obs = creation(unit_vector(rng, d)) * creation(unit_vector(rng, d)) * annihilation(
        unit_vector(rng, d)
    ) * annihilation(unit_vector(rng, d))
    flow = pure_point_flow(angles, obs, t)
    vals = values(flow, 0, 500)
    assert np.max(np.abs(vals)) <= flow.declared_bound
