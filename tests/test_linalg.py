import numpy as np
import pytest
import scipy.linalg

from conftest import hermitian_contraction, unit_vector
from ncflow.linalg import (
    check_density,
    check_unitary,
    direct_sum,
    haar_unitary,
    hs_norm,
    inner,
    normalized_trace,
    op_norm,
    polar_unitary_factor,
    random_density,
    schur_unitary,
    tensor,
    unitary_power,
)


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


def test_tensor_and_direct_sum():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert op_norm(tensor(a, b)) == pytest.approx(op_norm(a) * op_norm(b))
    s = direct_sum(a, b)
    assert s.shape == (7, 7)
    assert op_norm(s) == pytest.approx(max(op_norm(a), op_norm(b)))


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


@pytest.mark.parametrize("n", [0, 1, 2, 17, 123, -5])
def test_spectral_power_matches_binary_power(n):
    u = haar_unitary(5, 11)
    angles, q = schur_unitary(u)
    power = (q * np.exp(2j * np.pi * ((angles * n) % 1.0))) @ q.conj().T
    assert op_norm(power - unitary_power(u, n)) < 1e-9


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda t, q: (t, 1.01 * q), "not orthonormal"),
        (lambda t, q: (t * np.exp(2e-8j), q), "reconstruction misses"),
    ],
    ids=["scaled-vectors", "shifted-phases"],
)
def test_schur_unitary_checks_every_decomposition(monkeypatch, corrupt, message):
    schur = scipy.linalg.schur
    monkeypatch.setattr(scipy.linalg, "schur", lambda *a, **k: corrupt(*schur(*a, **k)))
    with pytest.raises(ArithmeticError, match=message):
        schur_unitary(haar_unitary(5, 2))


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


def test_polar_unitary_factor():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    w = polar_unitary_factor(g)
    assert op_norm(w @ w.conj().T - np.eye(5)) < 1e-12
    u = haar_unitary(5, 1)
    # a unitary is its own unitary polar factor
    assert op_norm(polar_unitary_factor(u) - u) < 1e-12


def test_hermitian_contraction_helper():
    rng = np.random.default_rng(2)
    h = hermitian_contraction(rng, 6)
    assert op_norm(h - h.conj().T) < 1e-12
    assert op_norm(h) <= 1.0 + 1e-12
