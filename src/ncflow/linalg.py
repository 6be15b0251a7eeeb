"""Complex matrix utilities: validated conventions, spectral data for unitaries,
Haar sampling.

Matrices are plain 2-D complex128 ndarrays, validated at API boundaries.
Inner products are linear in the first argument: inner(x, y) = sum x_i conj(y_i).
Tensor products follow np.kron index order ((i1, i2) row-major).
Eigenphases of unitaries are reported in turns, i.e. angles in [0, 1) with
eigenvalue e(theta) = exp(2 pi i theta).
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

ATOL_UNITARY = 1e-10
ATOL_STATE = 1e-10
MERGE_TOL_TURNS = 1e-9
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


def check_unitary(u, atol: float = ATOL_UNITARY) -> np.ndarray:
    u = check_square(u)
    err = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if err > atol:
        raise ValueError(f"matrix is not unitary: max |UU* - I| = {err:.3e} > {atol:g}")
    return u


def check_density(rho, atol: float = ATOL_STATE) -> np.ndarray:
    rho = check_square(rho)
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > atol:
        raise ValueError(f"density matrix has trace {np.trace(rho):.6g}, expected 1")
    if np.min(np.linalg.eigvalsh(rho)) < -atol:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def check_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ValueError("vector has non-finite entries")
    return x


def check_unit_vector(x, atol: float = ATOL_STATE) -> np.ndarray:
    x = check_vector(x)
    if abs(np.linalg.norm(x) - 1.0) > atol:
        raise ValueError("vector is not normalized")
    return x


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


def tensor(a, b) -> np.ndarray:
    return np.kron(check_matrix(a), check_matrix(b))


def direct_sum(a, b) -> np.ndarray:
    return scipy.linalg.block_diag(check_matrix(a), check_matrix(b)).astype(
        np.complex128
    )


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


@dataclass(frozen=True)
class SpectralDecomp:
    """Unitary spectral data: ascending angles in turns and orthogonal projections.

    sum_k P_k = I and sum_k e(angles[k]) P_k reconstructs the unitary.
    """

    angles: np.ndarray
    projections: tuple

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for theta, p in zip(self.angles, self.projections):
            out += np.exp(2j * np.pi * theta) * p
        return out

    def power(self, n: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for theta, p in zip(self.angles, self.projections):
            out += np.exp(2j * np.pi * ((theta * n) % 1.0)) * p
        return out


def _cluster_angles(angles: np.ndarray, tol: float):
    """Group sorted angles (turns) whose circular gap is <= tol."""
    order = np.argsort(angles, kind="stable")
    sorted_angles = angles[order]
    groups = [[0]]
    for i in range(1, len(sorted_angles)):
        if sorted_angles[i] - sorted_angles[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    # wrap-around: last cluster adjacent to first through 1.0
    if len(groups) > 1 and (sorted_angles[0] + 1.0 - sorted_angles[-1]) <= tol:
        last = groups.pop()
        groups[0] = last + groups[0]
    return order, sorted_angles, groups


def schur_unitary(u):
    """Eigenphases in turns and the orthonormal Schur vectors of a unitary.

    One angle per column, unmerged and unsorted: U = sum_j e(angles[j]) q_j q_j*
    up to rounding, however close two eigenphases are.
    """
    u = check_unitary(u)
    t, q = scipy.linalg.schur(u, output="complex")
    return (np.angle(np.diagonal(t)) / (2.0 * np.pi)) % 1.0, q


def eig_unitary(u, *, merge_tol_turns: float = MERGE_TOL_TURNS) -> SpectralDecomp:
    """Spectral decomposition of a unitary via complex Schur.

    Angles are in turns, ascending in [0, 1); eigenvalues closer than
    merge_tol_turns (circularly) share one projection.
    """
    u = check_unitary(u)
    angles, q = schur_unitary(u)
    order, sorted_angles, groups = _cluster_angles(angles, merge_tol_turns)
    rep_angles = []
    projections = []
    for grp in groups:
        cols = q[:, order[np.asarray(grp)]]
        projections.append(cols @ cols.conj().T)
        grp_angles = sorted_angles[np.asarray(grp)]
        if grp_angles.max() - grp_angles.min() > 0.5:  # wrapped cluster
            grp_angles = np.where(grp_angles > 0.5, grp_angles - 1.0, grp_angles)
        rep_angles.append(float(np.mean(grp_angles) % 1.0))
    idx = np.argsort(rep_angles)
    decomp = SpectralDecomp(
        angles=np.asarray(rep_angles)[idx],
        projections=tuple(projections[i] for i in idx),
    )
    _validate_decomp(decomp, u)
    return decomp


def _validate_decomp(decomp: SpectralDecomp, u: np.ndarray) -> None:
    dim = u.shape[0]
    total = sum(decomp.projections)
    if np.max(np.abs(total - np.eye(dim))) > ATOL_UNITARY:
        raise ArithmeticError("spectral projections do not resolve the identity")
    for i, p in enumerate(decomp.projections):
        if np.max(np.abs(p @ p - p)) > ATOL_UNITARY:
            raise ArithmeticError(f"projection {i} is not idempotent")
        if np.max(np.abs(p - p.conj().T)) > ATOL_UNITARY:
            raise ArithmeticError(f"projection {i} is not Hermitian")
        for pj in decomp.projections[i + 1 :]:
            if np.max(np.abs(p @ pj)) > ATOL_UNITARY:
                raise ArithmeticError("spectral projections are not orthogonal")
    if op_norm(decomp.reconstruct() - u) > RECONSTRUCT_TOL:
        raise ArithmeticError("spectral reconstruction misses the unitary")


def unitary_power(u: np.ndarray, n: int) -> np.ndarray:
    """U^n by binary powering; negative n through the adjoint."""
    u = np.asarray(u, dtype=np.complex128)
    if n < 0:
        return np.linalg.matrix_power(u.conj().T, -n)
    return np.linalg.matrix_power(u, n)


def polar_unitary_factor(a: np.ndarray) -> np.ndarray:
    """Nearest unitary (polar factor) of a nonsingular matrix."""
    w, _ = scipy.linalg.polar(a)
    return w
