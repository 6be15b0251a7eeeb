import numpy as np
import pytest
import scipy.linalg

from conftest import hermitian_contraction, unit_vector
from ncflow.car_fock import check_symbol
from ncflow.linalg import (
    check_density,
    check_unitary,
    haar_unitary,
    hs_norm,
    inner,
    normalized_trace,
    op_norm,
    random_density,
    schur_unitary,
    unitary_power,
)
from ncflow.matrix_dynamics import TraceProductSpec


def test_inner_is_linear_in_first_argument():
    rng = np.random.default_rng(0)
    x, y = unit_vector(rng, 5), unit_vector(rng, 5)
    c = 0.7 - 1.3j
    assert inner(c * x, y) == pytest.approx(c * inner(x, y))
    assert inner(x, c * y) == pytest.approx(np.conj(c) * inner(x, y))
    assert inner(x, x) == pytest.approx(1.0)


def test_norms():
    a = np.diag([3.0, -4.0])
    assert op_norm(a) == pytest.approx(4.0)
    assert hs_norm(np.eye(7)) == pytest.approx(1.0)  # trace-normalized
    assert normalized_trace(np.diag([2.0, 4.0])) == pytest.approx(3.0)


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(6, 42)
    assert op_norm(u @ u.conj().T - np.eye(6)) < 1e-12
    assert np.array_equal(u, haar_unitary(6, 42))
    assert not np.array_equal(u, haar_unitary(6, 43))


def test_random_density_is_a_state():
    rho = random_density(5, 3)
    check_density(rho)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() > 0


def test_check_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        check_unitary(np.diag([1.0, 2.0]))


def _unitary_times(delta):
    check_unitary(haar_unitary(4, 5) * (1.0 + delta))


def _symbol_with_top_eigenvalue(delta):
    v = haar_unitary(4, 6)
    check_symbol((v * np.array([0.2, 0.5, 0.7, 1.0 + delta])) @ v.conj().T)


def _contraction_of_norm(delta):
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = g / op_norm(g) * (1.0 + delta)
    TraceProductSpec(unitaries=(haar_unitary(4, 8),), contractions=(c,), phase_polys=((0, 1),))


@pytest.mark.parametrize(
    "check, message",
    [
        (_unitary_times, "not unitary"),
        (_symbol_with_top_eigenvalue, "eigenvalues must lie in"),
        (_contraction_of_norm, "operator norm <= 1"),
    ],
    ids=["check_unitary", "check_symbol", "TraceProductSpec"],
)
def test_input_checks_take_rounding_and_refuse_1e_9_past_the_limit(check, message):
    # each tolerance is 1e-10: an input 1e-12 past its limit, as rounding
    # may leave it, passes, and one 1e-9 past it is refused
    check(1e-12)
    with pytest.raises(ValueError, match=message):
        check(1e-9)


def schur_projections(q):
    return [np.outer(q[:, j], q[:, j].conj()) for j in range(q.shape[1])]


@pytest.mark.parametrize("seed", range(5))
def test_eig_unitary_invariants(seed):
    # the rank-one projections onto the Schur columns resolve the identity
    # and reconstruct U; the angles are U's eigenphases, one per column
    u = haar_unitary(7, seed)
    angles, q = schur_unitary(u)
    projections = schur_projections(q)
    assert op_norm(sum(projections) - np.eye(7)) < 1e-10
    for p in projections:
        assert op_norm(p @ p - p) < 1e-10
        assert op_norm(p - p.conj().T) < 1e-10
    for i, p in enumerate(projections):
        for r in projections[i + 1 :]:
            assert op_norm(p @ r) < 1e-10
    v = sum(np.exp(2j * np.pi * a) * p for a, p in zip(angles, projections))
    assert op_norm(v - u) < 1e-9
    assert all(0.0 <= a < 1.0 for a in angles)
    want = np.sort(np.angle(np.linalg.eigvals(u)) / (2 * np.pi) % 1.0)
    assert np.max(np.abs(np.sort(angles) - want)) < 1e-12


def test_schur_unitary_angle_below_zero_wraps_to_zero():
    # -1e-18 turns is -1e-18 % 1.0 == 1.0 in floating point, outside [0, 1)
    u = np.diag(np.exp(-2j * np.pi * np.array([1e-18, 0.25])))
    angles, _ = schur_unitary(u)
    assert angles.tolist() == [0.0, 0.75]


@pytest.mark.parametrize("n", [0, 1, 2, 17, 123, -5])
def test_spectral_power_matches_binary_power(n):
    u = haar_unitary(5, 11)
    angles, q = schur_unitary(u)
    power = (q * np.exp(2j * np.pi * ((angles * n) % 1.0))) @ q.conj().T
    assert op_norm(power - unitary_power(u, n)) < 1e-9


def _rotate_first_two(w, v):
    # a 1e-3 rad rotation within the first two eigenvectors
    c, s = np.cos(1e-3), np.sin(1e-3)
    v = v.copy()
    v[:, 0], v[:, 1] = c * v[:, 0] + s * v[:, 1], c * v[:, 1] - s * v[:, 0]
    return w, v


@pytest.mark.parametrize(
    "target, corrupt, message",
    [
        ("svd", lambda w, s, zh: (1.01 * w, s, zh), "not orthonormal"),
        ("eig", _rotate_first_two, "reconstruction misses"),
    ],
    ids=["scaled-vectors", "rotated-eigenvectors"],
)
def test_schur_unitary_checks_every_decomposition(monkeypatch, target, corrupt, message):
    # the polar factor W Z* absorbs any column scaling of eig's vectors, so
    # the scaled vectors come from the SVD; rotated eigenvectors no longer
    # diagonalize U, and the Rayleigh phases cannot rebuild it
    original = getattr(np.linalg, target)
    monkeypatch.setattr(np.linalg, target, lambda *a, **k: corrupt(*original(*a, **k)))
    with pytest.raises(ArithmeticError, match=message):
        schur_unitary(haar_unitary(5, 2))


def _stress_unitaries():
    """Haar unitaries, eigenphase clusters of width 1e-12 and 1e-7, exact
    threefold degeneracy and diagonal unitaries for k in {2, 3, 5, 8, 16, 32},
    plus the identity, -I and the cyclic shift."""
    for k in (2, 3, 5, 8, 16, 32):
        for seed in range(15):
            rng = np.random.default_rng(1000 * k + seed)
            v = haar_unitary(k, rng)
            yield v
            for width in (1e-12, 1e-7, 0.0):
                phases = rng.random(k)
                phases[:3] = phases[0] + width * rng.random(min(k, 3))
                yield (v * np.exp(2j * np.pi * phases)) @ v.conj().T
            yield np.diag(np.exp(2j * np.pi * rng.random(k)))
        yield np.eye(k, dtype=np.complex128)
        yield -np.eye(k, dtype=np.complex128)
        yield np.roll(np.eye(k, dtype=np.complex128), 1, axis=0)


def _circular_sorted(angles, offset):
    return np.sort((angles - offset) % 1.0)


def test_schur_unitary_against_scipy_schur():
    # scipy is the independent oracle: residuals stay far inside the checks'
    # tolerances, and the eigenphases are scipy's up to the wrap at 0/1
    cases = 0
    for u in _stress_unitaries():
        k = u.shape[0]
        angles, q = schur_unitary(u)
        assert np.max(np.abs(q.conj().T @ q - np.eye(k))) <= 1e-12
        assert op_norm((q * np.exp(2j * np.pi * angles)) @ q.conj().T - u) <= 1e-12
        t = scipy.linalg.schur(u, output="complex")[0]
        want = np.angle(np.diagonal(t)) / (2 * np.pi) % 1.0
        # sort both from the middle of scipy's widest gap, away from any wrap
        ring = np.sort(want)
        gaps = np.diff(np.append(ring, ring[0] + 1.0))
        offset = ring[np.argmax(gaps)] + gaps.max() / 2
        got = _circular_sorted(angles, offset)
        assert np.max(np.abs(got - _circular_sorted(want, offset))) <= 1e-9
        cases += 1
    assert cases >= 400


def test_spectral_pythagoras_partitions_hs_norm():
    # sum_kl ||P_k T P_l||_2^2 recovers ||T||_2^2 for any spectral partition
    rng = np.random.default_rng(5)
    u = haar_unitary(6, rng)
    t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    projections = schur_projections(schur_unitary(u)[1])
    total = sum(hs_norm(p @ t @ q) ** 2 for p in projections for q in projections)
    assert total == pytest.approx(hs_norm(t) ** 2, rel=1e-10)


def test_unitary_power_negative_is_adjoint_power():
    u = haar_unitary(4, 9)
    assert op_norm(unitary_power(u, -7) - unitary_power(u, 7).conj().T) < 1e-12
    assert op_norm(unitary_power(u, 0) - np.eye(4)) < 1e-15


@pytest.mark.parametrize("k", [4, 8])
def test_unitary_power_batch_matches_matrix_power(k):
    # one batched call has, row by row, the bits of one matrix_power call per
    # n; negative n are the powers of the adjoint
    u = haar_unitary(k, k)
    rng = np.random.default_rng(k)
    ns = np.concatenate([np.arange(-50, 3001), rng.integers(-10**5, 10**5, 300)])
    got = unitary_power(u, ns)
    assert got.shape == (ns.size, k, k)
    for n, power in zip(ns.tolist(), got):
        base = u if n >= 0 else u.conj().T
        assert power.tobytes() == np.linalg.matrix_power(base, abs(n)).tobytes(), n
    for i in (0, 49, 50, 51, 53, ns.size - 1):  # n = -50, -1, 0, 1, 3 and a draw
        assert unitary_power(u, int(ns[i])).shape == (k, k)
        assert unitary_power(u, int(ns[i])).tobytes() == got[i].tobytes()
    assert unitary_power(u, 1) is not u  # a fresh array, as from a batch


def test_hermitian_contraction_helper():
    rng = np.random.default_rng(2)
    h = hermitian_contraction(rng, 6)
    assert op_norm(h - h.conj().T) < 1e-12
    assert op_norm(h) <= 1.0 + 1e-12
