"""Complex matrix utilities: validated conventions, spectral data for unitaries,
Haar sampling.

Matrices are plain 2-D complex128 ndarrays, validated at API boundaries.  No
public path takes a bare vector: a rank-one state or observable enters as
its outer product, and is checked as a matrix.
Inner products are linear in the first argument: inner(x, y) = sum x_i conj(y_i).
Eigenphases of unitaries are reported in turns, i.e. angles in [0, 1) with
eigenvalue e(theta) = exp(2 pi i theta).  schur_unitary is the package's one
spectral decomposition, in numpy alone: np.linalg.eig, the unitary polar
factor of its eigenvector matrix from one SVD, and the eigenphases from
diag(q* U q).  It gives one eigenphase per column, never merged, with
orthonormality and the reconstruction checked on every call.  unitary_power
is the one exact power path, bit for bit np.linalg.matrix_power for each n
of an index array.
"""

import math

import numpy as np

ATOL_UNITARY = 1e-10
ATOL_STATE = 1e-10
RECONSTRUCT_TOL = 1e-9


def check_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def check_square(a) -> np.ndarray:
    a = check_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_unitary(u) -> np.ndarray:
    u = check_square(u)
    err = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if err > ATOL_UNITARY:
        raise ValueError(f"matrix is not unitary: max |UU* - I| = {err:.3e} > {ATOL_UNITARY:g}")
    return u


def check_density(rho) -> np.ndarray:
    rho = check_square(rho)
    if np.max(np.abs(rho - rho.conj().T)) > ATOL_STATE:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > ATOL_STATE:
        raise ValueError(f"density matrix has trace {np.trace(rho):.6g}, expected 1")
    if np.min(np.linalg.eigvalsh(rho)) < -ATOL_STATE:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def inner(x, y) -> complex:
    """<x, y> = sum_i x_i conj(y_i), linear in the first argument."""
    return complex(np.vdot(np.asarray(y), np.asarray(x)))


def normalized_trace(a) -> complex:
    a = check_square(a)
    return complex(np.trace(a)) / a.shape[0]


def op_norm(a) -> float:
    return float(np.linalg.norm(check_matrix(a), 2))


def hs_norm(a) -> float:
    """Tracial 2-norm sqrt(tr_k(A*A)) (normalized trace)."""
    a = check_square(a)
    return float(np.linalg.norm(a)) / math.sqrt(a.shape[0])


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary: QR of a seeded complex Gaussian, R-diagonal phases fixed."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, seed) -> np.ndarray:
    """Random full-rank density matrix (Wishart normalized to trace 1)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def schur_unitary(u):
    """Eigenphases in turns and orthonormal eigenvectors of a unitary.

    One angle per column, unmerged and unsorted: U = sum_j e(angles[j]) q_j q_j*,
    however close two eigenphases are.  q is the unitary polar factor W Z* of
    np.linalg.eig's eigenvector matrix W S Z* (Higham 1986).  It mixes only
    vectors whose eigenphases cluster, and U is nearly scalar on a cluster,
    so the mixing costs about machine epsilon.  The angles are the phases of
    diag(q* U q).  Every call checks that q is unitary within ATOL_UNITARY and
    that the sum reconstructs U within RECONSTRUCT_TOL in operator norm, and
    raises ArithmeticError otherwise.
    """
    u = check_unitary(u)
    w, _, zh = np.linalg.svd(np.linalg.eig(u)[1])
    q = w @ zh
    rayleigh = np.einsum("ij,ij->j", q.conj(), u @ q)
    angles = (np.angle(rayleigh) / (2.0 * np.pi)) % 1.0
    angles[angles == 1.0] = 0.0  # a tiny negative angle rounds up to 1.0
    if np.max(np.abs(q.conj().T @ q - np.eye(u.shape[0]))) > ATOL_UNITARY:
        raise ArithmeticError("eigenvectors are not orthonormal")
    if op_norm((q * np.exp(2j * np.pi * angles)) @ q.conj().T - u) > RECONSTRUCT_TOL:
        raise ArithmeticError("spectral reconstruction misses the unitary")
    return angles, q


def unitary_power(u: np.ndarray, n) -> np.ndarray:
    """U^n for an int n, or the stack of U^n for an int64 array of n.

    Each matrix has the bits np.linalg.matrix_power gives for its n alone:
    the base is squared once per bit for the whole batch, a row copies the
    power at its lowest set bit and multiplies in the later ones from the
    right, and n == 3 is (U U) U.  Negative n are powers of the adjoint.
    """
    u = np.asarray(u, dtype=np.complex128)
    ns = np.asarray(n, dtype=np.int64)
    out = np.empty(ns.shape + u.shape, dtype=np.complex128)
    out[...] = np.eye(u.shape[0])
    for a, e in ((u, np.maximum(ns, 0)), (u.conj().T, np.maximum(-ns, 0))):
        low = e & -e  # lowest set bit, 0 for e == 0
        z = a
        for b in range(int(e.max(initial=0)).bit_length()):
            if b:
                z = z @ z
            out[low == 1 << b] = z
            more = (low < 1 << b) & ((e >> b) & 1 == 1) & (e != 3)
            out[more] = out[more] @ z
        if (e == 3).any():
            out[e == 3] = (a @ a) @ a
    return out
