"""Matrix flows and their Moebius averages: inner conjugation flows, trace
product sums with an eigenphase-expansion cross-check, rank-one compressions,
eigenphase quantization, and the finite-dimensional average bound chain.

rank_one_flow and the finite_vn state flow are spectral_flows: with
U = sum_j e(theta_j) q_j q_j* from the Schur vectors, each is the quadratic
form z(n)^T C conj(z(n)) in z_j(n) = e(theta_j n), with C built once, and
values at any n are computed directly.  ad_flow still walks powers
incrementally (one multiply per step) with a polar re-unitarization every
POLAR_INTERVAL steps, each run of consecutive n re-anchored with an exact
binary power, because the seed-0 matrix-flow reference in perfbench pins
its decay-fit constant to the walk's rounding.  quantize_unitary rounds the
eigenphase of each Schur column to its grid; columns that land on the same
grid point stay separate rank-one projections, and the bound chain sums
exponential sums against coefficients over all column pairs.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg, moebius
from .flows import Flow, average_series, spectral_flow
from .linalg import (
    check_density,
    check_matrix,
    check_square,
    check_unitary,
    check_unit_vector,
    hs_norm,
    normalized_trace,
    op_norm,
    schur_unitary,
    unitary_power,
)
from .moebius import MoebiusTable, characters, fold_pairwise


POLAR_INTERVAL = 10**4


def _power_walk(u: np.ndarray, lo: int, hi: int):
    """Yield U^n for n = lo+1 .. hi, re-unitarizing every POLAR_INTERVAL steps."""
    w = unitary_power(u, lo + 1)
    steps = 0
    for n in range(lo + 1, hi + 1):
        yield w
        w = u @ w
        steps += 1
        if steps % POLAR_INTERVAL == 0:
            w = linalg.polar_unitary_factor(w)


def _sandwich_coefficients(projections, a, rho) -> np.ndarray:
    """C_jk = tr(rho P_j A P_k), so tr(rho U^n A U*^n) = z(n)^T C conj(z(n))."""
    p = np.stack(projections)
    return np.einsum("jab,kba->jk", rho @ p, a @ p)


def _schur_projections(q: np.ndarray) -> np.ndarray:
    """Rank-one projections q_j q_j* onto the Schur columns, stacked."""
    return np.einsum("aj,bj->jab", q, q.conj())


def ad_flow(u, a, rho, *, label: Optional[str] = None) -> Flow:
    """Flow n -> trace(rho U^n A U*^n)."""
    u = check_unitary(u)
    a = check_matrix(a)
    rho = check_density(rho)

    def values_at(ns):
        # walk each run of consecutive n from an exact binary power at its start
        out = np.empty(ns.shape, dtype=np.complex128)
        starts = np.flatnonzero(np.diff(ns, prepend=ns[:1] - 2) != 1)
        for s, e in zip(starts, [*starts[1:], ns.size]):
            walk = _power_walk(u, int(ns[s]) - 1, int(ns[e - 1]))
            for i, w in enumerate(walk, start=s):
                out[i] = np.trace(rho @ w @ a @ w.conj().T)
        return out

    return Flow(
        values_at=values_at,
        declared_bound=op_norm(a) * (1.0 + 1e-9),
        label=label or f"ad_flow(dim={u.shape[0]})",
    )


def rank_one_flow(u, xi, eta, *, label: Optional[str] = None) -> Flow:
    """Flow n -> <U*^n P_xi U^n eta, eta> = |<U^n eta, xi>|^2."""
    u = check_unitary(u)
    xi = check_unit_vector(xi)
    eta = check_unit_vector(eta)
    angles, q = schur_unitary(u)
    # <U^n eta, xi> = sum_j e(theta_j n) <q_j q_j* eta, xi>
    b = (xi.conj() @ q) * (q.conj().T @ eta)
    return spectral_flow(
        angles,
        np.outer(b, np.conj(b)),
        declared_bound=1.0,
        label=label or f"rank_one_flow(dim={u.shape[0]})",
    )


# ---------------------------------------------------------------------------
# trace product sums


@dataclass(frozen=True)
class TraceProductSpec:
    """Data for (1/N) sum mu(n) tr_k(prod_j U_j^{phi_j(n)} A_j) over n = residue (mod modulus).

    phase_polys[j] are ascending integer coefficients of phi_j.
    Contractions A_j must satisfy ||A_j|| <= 1.
    """

    unitaries: tuple
    contractions: tuple
    phase_polys: tuple
    modulus: int = 1
    residue: int = 0

    def __post_init__(self):
        us = tuple(check_unitary(u) for u in self.unitaries)
        cs = tuple(check_matrix(a) for a in self.contractions)
        if not us or len(us) != len(cs) or len(us) != len(self.phase_polys):
            raise ValueError("need equally many unitaries, contractions, and phase polynomials")
        k = us[0].shape[0]
        if any(m.shape != (k, k) for m in us + cs):
            raise ValueError("all matrices must share one dimension k")
        for a in cs:
            if op_norm(a) > 1.0 + 1e-10:
                raise ValueError("contractions must have operator norm <= 1")
        polys = []
        for coeffs in self.phase_polys:
            if any(int(c) != c for c in coeffs):
                raise ValueError("phase coefficients must be integers")
            coeffs = tuple(int(c) for c in coeffs)
            if not coeffs:
                raise ValueError("phase polynomials need at least one coefficient")
            polys.append(coeffs)
        if self.modulus < 1 or not 0 <= self.residue < self.modulus:
            raise ValueError("bad congruence restriction")
        object.__setattr__(self, "unitaries", us)
        object.__setattr__(self, "contractions", cs)
        object.__setattr__(self, "phase_polys", tuple(polys))

    @property
    def k(self) -> int:
        return self.unitaries[0].shape[0]

    @property
    def d(self) -> int:
        return len(self.unitaries)


@dataclass(frozen=True)
class TraceProductResult:
    value: complex  # direct matrix-product path
    eigen_value: Optional[complex] = None
    discrepancy: Optional[float] = None


def _phi_values(coeffs: Sequence[int], ns: np.ndarray) -> np.ndarray:
    out = np.zeros(ns.shape, dtype=np.int64)
    for c in reversed(coeffs):
        out = out * ns + c
    return out


def trace_product_sum(
    spec: TraceProductSpec,
    table: MoebiusTable,
    N: int,
    *,
    two_path: bool = False,
    agree_tol: float = 1e-9,
) -> TraceProductResult:
    """Moebius-weighted trace product average, optionally cross-checked.

    The direct path multiplies binary powers of each U_j.  The eigen path
    diagonalizes each U_j once and sums scalar phase products against the
    transformed contractions; when two_path is set the two values must agree
    to agree_tol or an ArithmeticError is raised.
    """
    if not 1 <= N <= table.n_max:
        raise ValueError(f"N must lie in [1, {table.n_max}], got {N}")
    ns = np.asarray(
        moebius._restricted_range(N, spec.modulus, spec.residue), dtype=np.int64
    )
    ns = ns[table.mu[ns] != 0]
    k = spec.k
    if ns.size == 0:
        direct = 0j
    else:
        phis = [_phi_values(c, ns) for c in spec.phase_polys]
        parts = []
        for i, n in enumerate(ns):
            m = np.eye(k, dtype=np.complex128)
            for j in range(spec.d):
                m = m @ unitary_power(spec.unitaries[j], int(phis[j][i]))
                m = m @ spec.contractions[j]
            parts.append(int(table.mu[n]) * np.trace(m) / k)
        direct = complex(fold_pairwise(parts)) / N
    if not two_path:
        return TraceProductResult(value=direct)
    eigen = _eigen_expansion_sum(spec, table, N)
    gap = abs(direct - eigen)
    if gap > agree_tol:
        raise ArithmeticError(
            f"trace product paths disagree by {gap:.3e} > {agree_tol:g}"
        )
    return TraceProductResult(value=direct, eigen_value=eigen, discrepancy=gap)


def _eigen_expansion_sum(spec: TraceProductSpec, table: MoebiusTable, N: int) -> complex:
    """Eigen path: tr_k(prod U_j^{phi_j} A_j) expanded over joint eigenphases.

    With U_j = W_j D_j W_j*, the trace is the chain product of
    A~_j = W_j* A_j W_{j+1} against phase factors e(theta^{(j)}_t phi_j(n)),
    summed over one eigenindex per factor and divided by k.
    """
    ns = np.asarray(
        moebius._restricted_range(N, spec.modulus, spec.residue), dtype=np.int64
    )
    ns = ns[table.mu[ns] != 0]
    if ns.size == 0:
        return 0j
    k, d = spec.k, spec.d
    thetas, ws = zip(*(schur_unitary(u) for u in spec.unitaries))
    a_tilde = [
        ws[j].conj().T @ spec.contractions[j] @ ws[(j + 1) % d] for j in range(d)
    ]
    # E_j[n, t] = e(theta_t phi_j(n)) at the integer phi_j(n); an int64
    # wraparound of phi_j is a multiple of 2^64, which the exact 2^-64-grid
    # part of theta_t turns into whole turns
    es = [
        characters(thetas[j], _phi_values(spec.phase_polys[j], ns)) for j in range(d)
    ]
    chain = es[0][:, :, None] * a_tilde[0][None, :, :]
    for j in range(1, d):
        chain = np.einsum("nab,nb,bc->nac", chain, es[j], a_tilde[j], optimize=True)
    vals = np.einsum("naa->n", chain) / k
    w = table.mu[ns].astype(np.float64)
    return complex(moebius.tree_sum(vals * w)) / N


# ---------------------------------------------------------------------------
# eigenphase quantization


@dataclass(frozen=True)
class QuantizedUnitary:
    """V = sum_j e(angles[j]) P_j: U's rank-one Schur projections P_j with each
    eigenphase rounded to a uniform grid, ordered by grid point.  Columns that
    round to the same grid point stay separate projections.

    grid_size m = ceil(2 pi N / eps) guarantees ||U^n - V^n|| <= eps for
    n <= horizon by the telescoping estimate ||U^n - V^n|| <= n ||U - V||.
    """

    angles: np.ndarray
    projections: np.ndarray
    epsilon: float
    horizon: int
    grid_size: int

    @property
    def matrix(self) -> np.ndarray:
        return self.power(1)

    def power(self, n: int) -> np.ndarray:
        z = characters(self.angles, [n])[0]
        return np.einsum("j,jab->ab", z, self.projections)


def quantize_unitary(
    u, epsilon: float, horizon: int, *, grid_cap: int = 10**8
) -> QuantizedUnitary:
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    u = check_unitary(u)
    m = math.ceil(2.0 * math.pi * horizon / epsilon)
    if m > grid_cap:
        raise ValueError(
            f"epsilon = {epsilon:g} at horizon {horizon} needs grid size m = {m}"
            f" > cap {grid_cap}; refuse to quantize"
        )
    angles, q = schur_unitary(u)
    keys = np.round(angles * m) % m
    order = np.argsort(keys, kind="stable")
    quantized = QuantizedUnitary(
        angles=keys[order] / m,
        projections=_schur_projections(q[:, order]),
        epsilon=float(epsilon),
        horizon=int(horizon),
        grid_size=m,
    )
    for n in {1, max(1, horizon // 2), horizon}:
        if op_norm(unitary_power(u, n) - quantized.power(n)) > epsilon:
            raise ArithmeticError(
                f"quantized power drifted past epsilon at n = {n}"
            )
    return quantized


# ---------------------------------------------------------------------------
# finite-dimensional average bound chain


def _state_flow(u, t, a):
    """finite_vn_state_flow together with AA* and tr_k(AA*)."""
    u = check_unitary(u)
    t = check_square(t)
    a = check_square(a)
    aa = a @ a.conj().T
    denom = normalized_trace(aa).real
    if denom <= 0:
        raise ValueError("A A* has zero trace; state is undefined")
    angles, q = schur_unitary(u)
    # tr(X U*^n T U^n) pairs conj(z_j) with P_j on the left: the transpose of
    # the sandwich coefficients for (A, rho) = (T, X)
    coeffs = _sandwich_coefficients(
        _schur_projections(q), t, aa / (u.shape[0] * denom)
    )
    flow = spectral_flow(
        angles,
        coeffs.T,
        declared_bound=op_norm(t) * op_norm(aa) / denom + 1e-9,
        label="finite_vn_state_flow",
    )
    return flow, aa, denom


def finite_vn_state_flow(u, t, a) -> Flow:
    """Flow n -> rho(U*^n T U^n) for the state rho = tr_k(. AA*) / tr_k(AA*)."""
    return _state_flow(u, t, a)[0]


@dataclass(frozen=True)
class FiniteAverageBound:
    """s_N with its two-term majorant: a quantization term plus an
    exponential-sum-weighted Cauchy-Schwarz term."""

    s_n: complex
    s_n_quantized: complex
    epsilon_term: float
    exp_term: float
    bound: float
    max_exp_sum_abs: float

    @property
    def dominates(self) -> bool:
        return abs(self.s_n) <= self.bound + 1e-12


def finite_vn_average_bound(
    u,
    quantized: QuantizedUnitary,
    t,
    a,
    table: MoebiusTable,
    N: int,
) -> FiniteAverageBound:
    """Bound (1/N) sum mu(n) rho(U*^n T U^n) for the state rho = tr_k(. AA*)/tr_k(AA*).

    The chain replaces U by its quantized companion V (cost 2 eps ||T||) and
    expands the V-flow over V's rank-one projections, bounding it by
    max |exp_sum| * ||T||_2 ||AA*||_2 / tr_k(AA*).
    """
    u = check_unitary(u)
    t = check_square(t)
    a = check_square(a)
    if op_norm(t) > 1.0 + 1e-9:
        raise ValueError("finite_vn_average_bound requires ||T|| <= 1")
    if N > quantized.horizon:
        raise ValueError(
            f"N = {N} exceeds the quantization horizon {quantized.horizon}"
        )
    flow, aa, denom = _state_flow(u, t, a)
    s_n = complex(average_series(flow, table, [N]).values[0])

    angles = quantized.angles
    r = len(angles)
    s_mat = np.empty((r, r), dtype=np.complex128)
    for i in range(r):
        for j in range(r):
            theta = (angles[j] - angles[i]) % 1.0
            s_mat[i, j] = moebius.exp_sum(table, moebius.linear_phase(theta), N)
    # tr_k(P_i T P_j AA*) = tr(AA* P_i T P_j) / k
    coeffs = _sandwich_coefficients(quantized.projections, t, aa)
    s_v = (s_mat * coeffs).sum() / (u.shape[0] * denom)

    eps_term = 2.0 * quantized.epsilon * op_norm(t)
    max_exp = float(np.max(np.abs(s_mat)))
    exp_term = max_exp * hs_norm(t) * hs_norm(aa) / denom
    if abs(s_n - s_v) > eps_term + 1e-9:
        raise ArithmeticError(
            f"quantization gap |s_N - s_N(V)| = {abs(s_n - s_v):.3e} exceeds "
            f"2 eps ||T|| = {eps_term:.3e}"
        )
    return FiniteAverageBound(
        s_n=s_n,
        s_n_quantized=complex(s_v),
        epsilon_term=eps_term,
        exp_term=exp_term,
        bound=eps_term + exp_term,
        max_exp_sum_abs=max_exp,
    )
