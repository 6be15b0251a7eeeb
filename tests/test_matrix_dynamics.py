import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import hermitian_contraction, unit_vector
from ncflow import matrix_dynamics
from ncflow.flows import average_series, rotation_flow
from ncflow.linalg import (
    haar_unitary,
    op_norm,
    random_density,
    schur_unitary,
    unitary_power,
)
from ncflow.matrix_dynamics import (
    WALK_GRID,
    TraceProductSpec,
    ad_flow,
    finite_vn_average_bound,
    quantize_drift,
    quantize_unitary,
    trace_product_sum,
)
from ncflow.moebius import _ROW_TILE, _SUM_RUN, build_table, characters
from oracles import mu_array, tree_sum, values


def random_contraction(rng, k):
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return g / op_norm(g)


def make_spec(rng, k, d, degree=1, coeff_max=7):
    unitaries = tuple(haar_unitary(k, rng) for _ in range(d))
    contractions = tuple(random_contraction(rng, k) for _ in range(d))
    polys = tuple(
        (0,) + tuple(int(rng.integers(1, coeff_max + 1)) for _ in range(degree))
        for _ in range(d)
    )
    return TraceProductSpec(
        unitaries=unitaries, contractions=contractions, phase_polys=polys
    )


def test_ad_flow_diagonal_equals_rotation(table_10k):
    theta = 0.23
    u = np.diag([np.exp(2j * np.pi * theta), 1.0])
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    rho = np.full((2, 2), 0.5)
    fl = ad_flow(u, a, rho)
    rot = rotation_flow(theta)
    got = values(fl, 0, 64)
    want = 0.5 * values(rot, 0, 64)
    assert np.max(np.abs(got - want)) < 1e-12


def test_ad_flow_long_run_restarts_from_exact_powers():
    # one run of 30001 n is walked in tiles of at most WALK_GRID steps, each
    # from an exact binary power, so the walk error never builds up past one
    u = haar_unitary(8, 1)
    rng = np.random.default_rng(2)
    a = hermitian_contraction(rng, 8)
    rho = random_density(8, rng)
    vals = values(ad_flow(u, a, rho), 0, 30001)
    for n in (1, 4096, 4097, 9999, 30000, 30001):
        w = unitary_power(u, n)
        direct = np.trace(rho @ w @ a @ w.conj().T)
        assert abs(vals[n - 1] - direct) < 1e-10


def anchored_walk(u, ns):
    """W(n) for each n of an ascending run: matrix_power(u, a(n)) at each
    grid anchor a(n) = 1 + L floor((n - 1) / L), then w -> u @ w."""
    out = []
    for n in ns:
        anchor = 1 + WALK_GRID * ((n - 1) // WALK_GRID)
        if not out or n == anchor:
            w = np.linalg.matrix_power(u, anchor)
            for _ in range(n - anchor):
                w = u @ w
        else:
            w = u @ w
        out.append(w)
    return out


def test_ad_flow_block_is_the_plain_walk():
    # a 4096-point block that starts off the anchor grid: bit for bit the
    # walk w -> u @ w from matrix_power(u, a(n)), restarted at each anchor,
    # one fused trace sum_ab (rho w)_ab (conj(w) a^T)_ab per step
    u = haar_unitary(8, 5)
    rng = np.random.default_rng(6)
    a = hermitian_contraction(rng, 8)
    rho = random_density(8, rng)
    lo = 3 * 4096 + 700
    want = [
        np.einsum("ab,ab->", rho @ w, w.conj() @ a.T)
        for w in anchored_walk(u, range(lo + 1, lo + 4097))
    ]
    got = values(ad_flow(u, a, rho), lo, lo + 4096)
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 8, 13])
def test_ad_flow_is_within_1e_15_of_the_product_trace(dim):
    # the fused trace against trace(rho w a w^H) on the same anchored walk,
    # across the anchor at 4097
    u = haar_unitary(dim, dim)
    rng = np.random.default_rng(dim + 1)
    a = hermitian_contraction(rng, dim)
    rho = random_density(dim, rng)
    lo = 4096 - 50
    want = [
        np.trace(rho @ w @ a @ w.conj().T) for w in anchored_walk(u, range(lo + 1, lo + 101))
    ]
    got = values(ad_flow(u, a, rho), lo, lo + 100)
    assert np.max(np.abs(got - np.array(want))) <= 1e-15


@pytest.mark.parametrize("dim", [1, 2, 8, 13])
def test_ad_flow_stays_within_the_walk_bound_of_exact_powers(dim):
    # ad_flow's stated bound, 2 ||A|| (L - 1 + 2 log2 n) sqrt(2) (k + 2) k
    # 2^-53, at the last step of tiles near 10^3, 10^4 and 10^6, where the
    # walk is longest (2.7e-12 at k = 2, against the 1e-10 of the test above)
    u = haar_unitary(dim, dim + 20)
    rng = np.random.default_rng(dim + 21)
    a = hermitian_contraction(rng, dim)
    rho = random_density(dim, rng)
    ns = np.array([1, 2, WALK_GRID, WALK_GRID + 1, 17 * WALK_GRID, 977 * WALK_GRID, 10**6])
    got = ad_flow(u, a, rho).at(ns)
    want = [np.trace(rho @ w @ a @ w.conj().T) for w in unitary_power(u, ns)]
    steps = WALK_GRID - 1 + 2 * np.log2(ns)
    bound = 2 * op_norm(a) * steps * np.sqrt(2) * (dim + 2) * dim * 2.0**-53
    assert np.all(np.abs(got - np.array(want)) <= bound)


@pytest.mark.parametrize("seed", range(3))
def test_matrix_flows_match_binary_powers(seed):
    # independent oracle: U^n by binary powering, no eigendecomposition
    rng = np.random.default_rng(seed)
    dim = 6
    u = haar_unitary(dim, rng)
    a = hermitian_contraction(rng, dim)
    rho = random_density(dim, rng)
    xi, eta = unit_vector(rng, dim), unit_vector(rng, dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    aa = g @ g.conj().T
    ad = values(ad_flow(u, a, rho), 0, 1000)
    r1 = values(ad_flow(u, np.outer(eta, eta.conj()), np.outer(xi, xi.conj())), 0, 1000)
    state = values(matrix_dynamics._state_flow(u, a, g)[0], 0, 1000)
    for n in range(1, 1001):
        w = unitary_power(u, n)
        want_ad = np.trace(rho @ w @ a @ w.conj().T)
        want_r1 = abs(np.vdot(xi, w @ eta)) ** 2
        want_state = np.trace(w.conj().T @ a @ w @ aa) / np.trace(aa).real
        assert abs(ad[n - 1] - want_ad) < 1e-12
        assert abs(r1[n - 1] - want_r1) < 1e-12
        assert abs(state[n - 1] - want_state) < 1e-12


@pytest.mark.parametrize("spread", [0.0, 5e-10])
def test_spectral_flows_near_degenerate_spectrum(spread):
    # a cluster of eigenphases spread by 5e-10 turns would shift the value at
    # n = 1e5 by about 3e-4 if the cluster shared one mean angle
    v = haar_unitary(4, 8)
    phases = np.array([0.3, 0.3 + spread, 0.3 - spread, 0.7])
    u = v @ np.diag(np.exp(2j * np.pi * phases)) @ v.conj().T
    rng = np.random.default_rng(8)
    a = hermitian_contraction(rng, 4)
    xi, eta = unit_vector(rng, 4), unit_vector(rng, 4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    aa = g @ g.conj().T
    ns = np.array([1, 2, 17, 500, 30001, 99991, 100000])
    r1 = ad_flow(u, np.outer(eta, eta.conj()), np.outer(xi, xi.conj())).at(ns)
    state = matrix_dynamics._state_flow(u, a, g)[0].at(ns)
    for i, n in enumerate(ns):
        w = unitary_power(u, int(n))
        want_state = np.trace(w.conj().T @ a @ w @ aa) / np.trace(aa).real
        assert abs(r1[i] - abs(np.vdot(xi, w @ eta)) ** 2) < 1e-10
        assert abs(state[i] - want_state) < 1e-10


def test_ad_flow_block_matches_evaluator():
    u = haar_unitary(5, 3)
    rng = np.random.default_rng(4)
    a = hermitian_contraction(rng, 5)
    rho = random_density(5, rng)
    fl = ad_flow(u, a, rho)
    block = values(fl, 100, 140)
    scal = np.array([fl.at([n])[0] for n in range(101, 141)])
    assert np.max(np.abs(block - scal)) < 1e-12


def test_ad_flow_walks_each_run_of_consecutive_n():
    u = haar_unitary(5, 3)
    rng = np.random.default_rng(4)
    a = hermitian_contraction(rng, 5)
    rho = random_density(5, rng)
    fl = ad_flow(u, a, rho)
    ns = np.array([7, 8, 9, 40, 3, 4, 1000])
    want = np.array([fl.at([n])[0] for n in ns])
    assert np.max(np.abs(fl.at(ns) - want)) < 1e-12
    assert np.array_equal(fl.at(ns[:3]), values(fl, 6, 9))


def walked_traces(u, a, rho, ns):
    """The fused trace of anchored_walk's W(n) at each n of ns, in any order,
    each tile walked from its anchor up to the largest n asked of it."""
    want, asked = {}, set(ns)
    for anchor in sorted({1 + WALK_GRID * ((n - 1) // WALK_GRID) for n in asked}):
        top = max(n for n in asked if anchor <= n < anchor + WALK_GRID)
        for n, w in zip(range(anchor, top + 1), anchored_walk(u, range(anchor, top + 1))):
            if n in asked:
                want[n] = np.einsum("ab,ab->", rho @ w, w.conj() @ a.T)
    return np.array([want[n] for n in ns], dtype=np.complex128)


# 35 anchors: two full groups of _SUM_RUN / WALK_GRID = 16, then a group of
# three, whose chunks of 1024 // 3 = 341 steps do not divide a tile; the
# steps sit at chunk edges of each group size and at a tile's last step
SPREAD = [
    int(anchor + step)
    for anchor in 1 + WALK_GRID * np.arange(35)
    for step in (0, 1, 63, 64, 340, 341, 682, 700, 1023)
]


@pytest.mark.parametrize(
    "ns",
    [SPREAD, [1, 10**6], [5000, 3, 5000, 1025, 3, 2048, 1, 4096, 1025], [777]],
    ids=["35 anchors", "1 and 10^6", "repeated and unsorted", "one n"],
)
def test_ad_flow_is_the_anchored_walk_bit_for_bit(ns):
    # however the n fall on anchors, groups and chunks, each value has the
    # bits of its own anchored walk and fused trace
    rng = np.random.default_rng(11)
    u, a, rho = haar_unitary(8, rng), hermitian_contraction(rng, 8), random_density(8, rng)
    got = ad_flow(u, a, rho).values_at(np.array(ns, dtype=np.int64))
    assert got.tobytes() == walked_traces(u, a, rho, ns).tobytes()


def test_ad_flow_of_no_n_is_empty():
    rng = np.random.default_rng(12)
    flow = ad_flow(haar_unitary(4, rng), hermitian_contraction(rng, 4), random_density(4, rng))
    assert flow.values_at(np.array([], dtype=np.int64)).shape == (0,)


def traced_peak(call, ns):
    """tracemalloc's peak over one call(ns), after a warm-up call that
    takes numpy's one-time imports out of the measure."""
    call(ns[:2])
    tracemalloc.start()
    try:
        call(ns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ad_flow_peak_does_not_grow_with_the_groups_of_a_call():
    # a call holds one walk buffer of at most _ROW_TILE matrices for all its
    # groups of anchors, and traces each chunk's W as it is walked, so a call
    # over four runs of n peaks above a call over four row tiles only by its
    # per-n index and value arrays, far below one chunk's walked matrices
    # (1024 matrices of 8 x 8, 1 MiB)
    rng = np.random.default_rng(6)
    flow = ad_flow(haar_unitary(8, rng), hermitian_contraction(rng, 8), random_density(8, rng))
    sizes = (4 * _ROW_TILE, 4 * _SUM_RUN)
    peaks = [traced_peak(flow.values_at, np.arange(1, size + 1, dtype=np.int64)) for size in sizes]
    assert peaks[1] - peaks[0] <= 64 * (sizes[1] - sizes[0]), peaks


def test_ad_flow_call_over_one_run_of_n_peaks_below_5_5_mib():
    # 16384 consecutive n at k = 8: _ROW_TILE walked matrices (1 MiB), the
    # gathered W of one chunk and the trace's two products over them (3 MiB),
    # and the per-n arrays
    rng = np.random.default_rng(6)
    flow = ad_flow(haar_unitary(8, rng), hermitian_contraction(rng, 8), random_density(8, rng))
    peak = traced_peak(flow.values_at, np.arange(1, _SUM_RUN + 1, dtype=np.int64))
    assert peak < 5.5 * 2**20, peak


def test_ad_flow_holds_at_most_a_row_tile_of_walked_matrices():
    # the last step of 64 tiles: every tile is walked to its end, while the
    # 64 traces and their index arrays take a few KiB, so the peak is the
    # walk; a group's exact powers and a chunk's gathered W are under 128
    # matrices more
    rng = np.random.default_rng(13)
    flow = ad_flow(haar_unitary(8, rng), hermitian_contraction(rng, 8), random_density(8, rng))
    ns = WALK_GRID * np.arange(1, 65, dtype=np.int64)
    matrix = 8 * 8 * np.dtype(np.complex128).itemsize
    peak = traced_peak(flow.values_at, ns)
    assert peak <= (_ROW_TILE + 128) * matrix, peak / matrix


@pytest.mark.parametrize("seed", range(5))
def test_ad_flow_conjugation_invariance(seed):
    # the average only sees the pair (state, observable) up to a unitary change of frame
    rng = np.random.default_rng(seed)
    u = haar_unitary(6, rng)
    a = hermitian_contraction(rng, 6)
    rho = random_density(6, rng)
    v = haar_unitary(6, rng)
    base = ad_flow(u, a, rho)
    moved = ad_flow(v @ u @ v.conj().T, v @ a @ v.conj().T, v @ rho @ v.conj().T)
    ns = np.arange(1, 200)
    assert np.max(np.abs(values(base, 0, 199) - values(moved, 0, 199))) < 1e-12


def test_ad_flow_block_embedding_restriction():
    # direct sum with an untouched corner restricts to the small flow exactly
    rng = np.random.default_rng(7)
    u1 = haar_unitary(3, rng)
    u2 = haar_unitary(2, rng)
    a1 = hermitian_contraction(rng, 3)
    rho1 = random_density(3, rng)
    u = np.block(
        [[u1, np.zeros((3, 2))], [np.zeros((2, 3)), u2]]
    )
    a = np.block([[a1, np.zeros((3, 2))], [np.zeros((2, 3)), np.zeros((2, 2))]])
    rho = np.block(
        [[rho1, np.zeros((3, 2))], [np.zeros((2, 3)), np.zeros((2, 2))]]
    )
    small = ad_flow(u1, a1, rho1)
    big = ad_flow(u, a, rho)
    assert np.max(np.abs(values(small, 0, 100) - values(big, 0, 100))) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_rank_one_flow_tensor_identity(seed):
    # <U^n eta, xi><U*^n xi, eta> = <(U^n (x) U*^n) eta (x) xi, xi (x) eta>
    rng = np.random.default_rng(seed)
    u = haar_unitary(4, rng)
    xi = unit_vector(rng, 4)
    eta = unit_vector(rng, 4)
    fl = ad_flow(u, np.outer(eta, eta.conj()), np.outer(xi, xi.conj()))
    w = np.eye(4, dtype=complex)
    for n in range(1, 101):
        w = u @ w
        big = np.kron(w, w.conj().T)
        lhs = complex(np.vdot(np.kron(xi, eta), big @ np.kron(eta, xi)))
        assert abs(fl.at([n])[0] - lhs) < 1e-12


def test_rank_one_flow_values_are_nonnegative():
    rng = np.random.default_rng(3)
    u = haar_unitary(5, rng)
    xi, eta = unit_vector(rng, 5), unit_vector(rng, 5)
    fl = ad_flow(u, np.outer(eta, eta.conj()), np.outer(xi, xi.conj()))
    vals = values(fl, 0, 50)
    assert np.max(np.abs(vals.imag)) < 1e-14
    assert vals.real.min() > -1e-14


def test_trace_product_spec_validation():
    rng = np.random.default_rng(0)
    u = haar_unitary(3, rng)
    c = random_contraction(rng, 3)
    with pytest.raises(ValueError, match="equally many"):
        TraceProductSpec(unitaries=(u,), contractions=(c, c), phase_polys=((0, 1),))
    with pytest.raises(ValueError, match="integer"):
        TraceProductSpec(unitaries=(u,), contractions=(c,), phase_polys=((0, 1.5),))
    with pytest.raises(ValueError, match="contraction"):
        TraceProductSpec(unitaries=(u,), contractions=(2.0 * c,), phase_polys=((0, 1),))
    with pytest.raises(ValueError, match="share one dimension"):
        TraceProductSpec(
            unitaries=(u, haar_unitary(4, rng)),
            contractions=(c, random_contraction(rng, 4)),
            phase_polys=((0, 1), (0, 1)),
        )


@pytest.mark.parametrize("seed", range(8))
def test_trace_product_two_paths_agree(seed, table_10k):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 9))
    d = int(rng.integers(1, 4))
    spec = make_spec(rng, k, d)
    res = trace_product_sum(spec, table_10k, 1000)
    assert isinstance(res.discrepancy, float) and res.discrepancy < 1e-9
    assert abs(res.value - res.eigen_value) == res.discrepancy


def test_trace_product_quadratic_phase_two_paths(table_10k):
    rng = np.random.default_rng(123)
    spec = make_spec(rng, 4, 2, degree=2, coeff_max=3)
    res = trace_product_sum(spec, table_10k, 500)
    assert res.discrepancy < 1e-9


def test_trace_product_rejects_phases_past_int64(table_10k):
    # phi(n) = n^5 passes 2^63 before n = 10^4, where int64 would wrap
    base = make_spec(np.random.default_rng(8), 3, 1)
    spec = TraceProductSpec(
        unitaries=base.unitaries,
        contractions=base.contractions,
        phase_polys=((0, 0, 0, 0, 0, 1),),
    )
    with pytest.raises(ValueError, match=r"\(0, 0, 0, 0, 0, 1\).*2\^63 at N = 10000"):
        trace_product_sum(spec, table_10k, 10**4)
    # the bound is sum |c_i| N^i < 2^63: 2^62 n is accepted at N = 1 only;
    # diag(1, -1, 1) has exact powers on both paths, so they agree at 2^62
    spec = TraceProductSpec(
        unitaries=(np.diag([1.0, -1.0, 1.0]).astype(np.complex128),),
        contractions=base.contractions,
        phase_polys=((0, 2**62),),
    )
    assert trace_product_sum(spec, table_10k, 1).discrepancy == 0.0
    with pytest.raises(ValueError, match="2\\^63"):
        trace_product_sum(spec, table_10k, 2)


@pytest.mark.parametrize(
    "seed, d, coeff, gap",
    [(8, 1, 2**62, r"\d\.\d{3}e\+125"), (8, 1, 2**40, r"\d\.\d{3}e-05"), (1, 3, 2**62, "nan")],
)
def test_trace_product_refuses_paths_that_disagree(seed, d, coeff, gap, table_10k):
    # phases inside int64 can still be too large for binary powers of a Haar
    # unitary: at 2^62 n the direct path's |value| grows to about 1e125, or
    # overflows to NaN for three factors; at 2^40 n it is off by about 4e-5
    base = make_spec(np.random.default_rng(seed), 3, d)
    spec = dataclasses.replace(base, phase_polys=((0, coeff),) * d)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match=f"disagree by {gap} > 1e-09"):
            trace_product_sum(spec, table_10k, 1)


def per_n_direct_sum(spec, table, N):
    """The direct path as one matrix_power chain per squarefree n <= N,
    summed by tree_sum."""
    traces = np.zeros(N + 1, dtype=np.complex128)
    mu = mu_array(table)
    for n in range(1, N + 1):
        if mu[n]:
            m = np.eye(spec.k, dtype=np.complex128)
            for u, a, coeffs in zip(spec.unitaries, spec.contractions, spec.phase_polys):
                phi = sum(c * n**i for i, c in enumerate(coeffs))
                m = m @ np.linalg.matrix_power(u if phi >= 0 else u.conj().T, abs(phi))
                m = m @ a
            traces[n] = np.trace(m) / spec.k
    (total,) = tree_sum(mu, traces, [N])
    return complex(total) / N


@pytest.mark.parametrize("seed", range(4))
def test_trace_product_direct_path_is_the_per_n_loop(seed, table_10k):
    # the CLI's specs (k = 4, d = 2, five per seed): tiled batched powers give
    # the bits of one power chain per n
    rng = np.random.default_rng(seed)
    for spec in [make_spec(rng, 4, 2) for _ in range(5)]:
        for N in (1000, 3000):
            got = trace_product_sum(spec, table_10k, N).value
            assert complex(got) == per_n_direct_sum(spec, table_10k, N)


def test_trace_product_direct_path_negative_phase(table_10k):
    base = make_spec(np.random.default_rng(9), 3, 2, degree=2)
    spec = TraceProductSpec(
        unitaries=base.unitaries,
        contractions=base.contractions,
        phase_polys=((2, -5), (0, 3, -1)),
    )
    got = trace_product_sum(spec, table_10k, 2000).value
    assert complex(got) == per_n_direct_sum(spec, table_10k, 2000)


def test_trace_product_eigen_path_is_one_tree_sum():
    # the eigen path streams its terms run by run over n = 1..N; the sum
    # keeps the bits of tree_sum over the whole range
    N = 20000
    table = build_table(N)
    spec = make_spec(np.random.default_rng(11), 4, 3)
    ns = np.arange(1, N + 1)
    squarefree = table.window(1, N + 1) != 0
    ns = ns[squarefree]
    assert N > _SUM_RUN
    thetas, ws = zip(*(schur_unitary(u) for u in spec.unitaries))
    d = spec.d
    a_tilde = [
        ws[j].conj().T @ spec.contractions[j] @ ws[(j + 1) % d] for j in range(d)
    ]
    es = [characters(thetas[j], spec.phase_polys[j][1] * ns) for j in range(d)]
    chain = es[0][:, :, None] * a_tilde[0][None, :, :]
    for j in range(1, d):
        chain = np.einsum("nab,nb,bc->nac", chain, es[j], a_tilde[j], optimize=True)
    vals = np.einsum("naa->n", chain) / spec.k
    f = np.zeros(N + 1, dtype=np.complex128)
    f[ns] = vals
    (total,) = tree_sum(mu_array(table), f, [N])
    want = complex(total) / N
    got = trace_product_sum(spec, table, N).eigen_value
    assert got == want


def test_trace_product_paths_evaluate_squarefree_n_block_by_block(table_1m, monkeypatch):
    # with phi_j(n) = n the powers and the characters each path asks for are
    # its n: every call must stay within one run, a _SUM_RUN window of n, and
    # take at most _ROW_TILE + 1 of its n, and each factor's calls must cover
    # its squarefree n once
    base = make_spec(np.random.default_rng(2), 3, 2)
    spec = dataclasses.replace(base, phase_polys=((0, 1), (0, 1)))
    calls = {"unitary_power": [], "characters": []}
    for name, seen in calls.items():

        def recording(x, ns, original=getattr(matrix_dynamics, name), seen=seen):
            seen.append(np.array(ns))
            return original(x, ns)

        monkeypatch.setattr(matrix_dynamics, name, recording)
    N = _SUM_RUN + 4 * _ROW_TILE + 17  # two runs, the second of 4113 n
    trace_product_sum(spec, table_1m, N)
    every = np.arange(1, N + 1)
    squarefree = every[table_1m.window(1, N + 1) != 0]
    for name, seen in calls.items():
        windows = [np.unique((ns - 1) // _SUM_RUN) for ns in seen]
        assert all(w.size <= 1 for w in windows), (name, [w.tolist() for w in windows])
        assert max(ns.size for ns in seen) <= _ROW_TILE + 1, name
        for j in range(spec.d):
            got = np.concatenate(seen[j :: spec.d])
            assert np.array_equal(got, squarefree), (name, j)


def test_trace_product_memory_is_flat_in_n(table_1m):
    # both paths hold one run's terms at a time, so no array grows with N
    spec = make_spec(np.random.default_rng(3), 4, 2)
    peaks = []
    for N in (2 * 10**4, 4 * 10**5):
        tracemalloc.start()
        try:
            trace_product_sum(spec, table_1m, N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 2**19, peaks


def test_trace_product_d1_matches_direct_sum(table_10k):
    # single factor: (1/N) sum mu(n) tr(U^{c n} A)/k computed directly
    rng = np.random.default_rng(5)
    spec = make_spec(rng, 3, 1)
    c = spec.phase_polys[0][1]
    n_max = 500
    u, a = spec.unitaries[0], spec.contractions[0]
    acc = 0.0 + 0j
    mu = mu_array(table_10k)
    for n in range(1, n_max + 1):
        m = int(mu[n])
        if m:
            acc += m * np.trace(unitary_power(u, c * n) @ a) / 3
    res = trace_product_sum(spec, table_10k, n_max)
    assert abs(res.value - acc / n_max) < 1e-10


@pytest.mark.parametrize("epsilon", [0.1, 0.01])
def test_quantize_drift_within_epsilon(epsilon):
    u = haar_unitary(8, 17)
    q = quantize_unitary(u, epsilon, 100)
    for n in range(1, 101):
        drift = op_norm(unitary_power(u, n) - q.power(n))
        assert drift <= epsilon + 1e-12
    assert q.grid_size == int(np.ceil(2 * np.pi * 100 / epsilon))


def test_quantize_drift_is_the_per_n_norm():
    u = haar_unitary(6, 5)
    q = quantize_unitary(u, 0.1, 1000)
    ns = [1, 7, 500, 1000]
    want = [op_norm(np.linalg.matrix_power(u, n) - q.power(n)) for n in ns]
    assert quantize_drift(u, q, ns) == want


def test_quantize_on_grid_unitary_is_exact():
    # eigenphases already on the grid: V reproduces U to machine precision
    horizon, eps = 10, 0.1
    m = int(np.ceil(2 * np.pi * horizon / eps))
    angles = np.array([0, 10, 25]) / m
    u = np.diag(np.exp(2j * np.pi * angles))
    q = quantize_unitary(u, eps, horizon)
    assert op_norm(q.power(1) - u) < 1e-12


def test_quantize_near_degenerate_cluster():
    # a cluster spread by 5e-10 turns: merging it at its mean angle missed the
    # reconstruction tolerance and raised ArithmeticError
    v = haar_unitary(4, 8)
    phases = np.array([0.3, 0.3 + 5e-10, 0.7, 0.05])
    u = v @ np.diag(np.exp(2j * np.pi * phases)) @ v.conj().T
    q = quantize_unitary(u, 0.1, 100)
    for n in range(1, 101):
        assert op_norm(unitary_power(u, n) - q.power(n)) <= 0.1


def test_quantize_keeps_grid_collisions_separate(table_10k):
    # 0.2 and 0.2 + 1/(4m) round to one grid point: both columns keep their
    # own projection and get the same grid angle
    horizon, eps = 100, 0.1
    m = int(np.ceil(2 * np.pi * horizon / eps))
    phases = np.array([0.2, 0.2 + 0.25 / m, 0.6, 0.9])
    w = haar_unitary(4, 3)
    u = w @ np.diag(np.exp(2j * np.pi * phases)) @ w.conj().T
    q = quantize_unitary(u, eps, horizon)
    assert len(q.projections) == 4
    assert np.count_nonzero(q.angles == round(0.2 * m) / m) == 2
    assert op_norm(sum(q.projections) - np.eye(4)) < 1e-12
    grid = np.round(phases * m) / m
    want_v = w @ np.diag(np.exp(2j * np.pi * grid)) @ w.conj().T
    assert op_norm(q.power(1) - want_v) < 1e-12
    for n in range(1, horizon + 1):
        assert op_norm(unitary_power(u, n) - q.power(n)) <= eps
    rng = np.random.default_rng(3)
    t = hermitian_contraction(rng, 4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    fb = finite_vn_average_bound(u, q, t, a, table_10k, horizon)
    assert abs(fb.s_n - fb.s_n_quantized) <= fb.epsilon_term + 1e-9
    assert fb.dominates


@pytest.mark.parametrize("past, dominates", [(1e-10, False), (1e-13, True)])
def test_dominates_takes_rounding_and_refuses_1e_10_past_the_bound(past, dominates):
    # |s_N| and the bound may cross by ulps where they meet, not by 1e-10
    fb = matrix_dynamics.FiniteAverageBound(
        s_n=complex(0.5 + past), s_n_quantized=0.5, epsilon_term=0.1,
        exp_term=0.4, bound=0.5, max_exp_sum_abs=1.0,
    )
    assert fb.dominates is dominates


def test_quantize_refuses_oversized_grid():
    u = haar_unitary(3, 1)
    with pytest.raises(ValueError, match="grid size"):
        quantize_unitary(u, 1e-9, 100)


@pytest.mark.parametrize("seed", range(4))
def test_finite_average_bound_chain(seed, table_10k):
    rng = np.random.default_rng(seed)
    u = haar_unitary(6, rng)
    t = hermitian_contraction(rng, 6)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q = quantize_unitary(u, 0.05, 10**4)
    fb = finite_vn_average_bound(u, q, t, a, table_10k, 10**4)
    assert abs(fb.s_n - fb.s_n_quantized) <= fb.epsilon_term + 1e-9
    assert fb.bound == pytest.approx(fb.epsilon_term + fb.exp_term)
    assert fb.dominates
    assert fb.epsilon_term == pytest.approx(2 * 0.05 * op_norm(t))


def test_finite_average_bound_validates_inputs(table_10k):
    u = haar_unitary(4, 2)
    q = quantize_unitary(u, 0.1, 100)
    rng = np.random.default_rng(0)
    t = hermitian_contraction(rng, 4)
    a = np.eye(4)
    with pytest.raises(ValueError, match="horizon"):
        finite_vn_average_bound(u, q, t, a, table_10k, 101)
    with pytest.raises(ValueError, match=r"\|\|T\|\|"):
        finite_vn_average_bound(u, q, 3.0 * t, a, table_10k, 100)
