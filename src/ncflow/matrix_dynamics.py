"""Matrix flows and their Moebius averages: inner conjugation flows, trace
product sums with an eigenphase-expansion cross-check, eigenphase
quantization, and the finite-dimensional average bound chain.

A rank-one matrix coefficient |<U^n eta, xi>|^2 is the conjugation flow
ad_flow(U, eta eta*, xi xi*).  The finite_vn state flow of the bound chain
is a spectral_flow: with U = sum_j e(theta_j) q_j q_j* from
linalg.schur_unitary (np.linalg.eig, then the unitary polar factor q of its
eigenvectors and the phases of diag(q* U q)), it is the quadratic form
z(n)^T C conj(z(n)) in z_j(n) = e(theta_j n), with C built once, and values
at any n are computed directly.  ad_flow splits n at the fixed anchors
a = 1 + WALK_GRID j into a step s < WALK_GRID, and takes tr(R_s B_a) from a
table of R_s = U*^s rho U^s, walked once from the identity when the flow is
built, and B_a = U^a A U*^a from the exact powers of a call's anchors, so
its value at n depends on n alone; the seed-0 matrix-flow reference in
perfbench pins its decay-fit constant to this walk's rounding, which a
spectral evaluation would move past the reference tolerance.  Exact powers
come in batches from unitary_power, here and in the trace-product direct
path, and both trace-product paths are pointwise traces in n, each averaged
by one moebius.weighted_average call that evaluates it per run at its
squarefree n, _ROW_TILE n per call.
quantize_unitary rounds the eigenphase of each eigenvector column to its
grid; columns that land on the same grid point stay separate rank-one
projections, and the bound chain sums exponential sums against coefficients
over all column pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import moebius
from .flows import BOUND_SLACK, Flow, average_series, spectral_flow
from .linalg import (
    check_density,
    check_matrix,
    check_square,
    check_unitary,
    hs_norm,
    normalized_trace,
    op_norm,
    schur_unitary,
    unitary_power,
)
from .moebius import MoebiusTable, characters

TRACE_AGREE_TOL = 1e-9  # the CLI's two-path gaps sit near 1e-14: past 1e-9 is a defect
QUANTIZE_GRID_CAP = 10**8  # keeps epsilon >= 2 pi N 1e-8, far above float power drift
# ad_flow's anchors 1 + WALK_GRID j and the length of its table of steps:
# the seed-0 matrix-flow reference pins the rounding of the walked steps, so
# the grid stays put whatever the summation runs
WALK_GRID = 1024
CONTRACTION_SLACK = 1e-10  # op_norm (an SVD) of an A_j scaled to norm 1 may pass 1 by ulps
DOMINATES_SLACK = 1e-12  # |s_N| and the bound are rounded: they may cross by ulps where they meet
T_NORM_SLACK = 1e-9  # likewise op_norm of a T scaled to norm 1 may pass 1 by ulps
QUANTIZE_GAP_SLACK = 1e-9  # s_N and s_N(V) are rounded sums: their gap carries rounding


def _sandwich_coefficients(projections, a, rho) -> np.ndarray:
    """C_jk = tr(rho P_j A P_k), so tr(rho U^n A U*^n) = z(n)^T C conj(z(n))."""
    p = np.stack(projections)
    return np.einsum("jab,kba->jk", rho @ p, a @ p)


def _schur_projections(q: np.ndarray) -> np.ndarray:
    """Rank-one projections q_j q_j* onto the Schur columns, stacked."""
    return np.einsum("aj,bj->jab", q, q.conj())


def ad_flow(u, a, rho) -> Flow:
    """Flow n -> trace(rho U^n A U*^n), a pointwise function of n.

    n splits at its anchor a(n) = 1 + L floor((n - 1) / L), L = WALK_GRID,
    into the step s = n - a < L, and U^n = U^s U^a, so the value is
    tr(R_s B_a) = sum_ij R_s[i, j] B_a[j, i], with R_s = T_s* rho T_s and
    B_a = E_a A E_a*.  T_s is U^s walked T <- U T from the identity, once,
    when the flow is built, and the flow holds the read-only table of the L
    matrices R_s.  E_a is the exact binary power U^a (unitary_power): a call
    takes those of its distinct anchors in one batch and then evaluates each
    row tile (moebius.by_row_tiles) as one row-wise contraction of the
    gathered R_s with the gathered B_a^T, k^2 products per n, so the bits of
    a value depend on its n alone.

    Each product adds at most sqrt(2) (k + 2) k 2^-53 in operator norm, and
    at most L - 1 walk steps and 2 log2 n binary-power products lie between
    W = T_s E_a and U^n, so the value is within
    2 ||A|| (L - 1 + 2 log2 n) sqrt(2) (k + 2) k 2^-53 of the exact trace,
    to first order, besides the rounding of the two sandwiches R_s, B_a and
    of the k^2-term sum, which does not grow with n: the tests hold the
    value within 1e-15 of tr(rho W A W*) at k <= 13.
    """
    u = check_unitary(u)
    a = check_matrix(a)
    rho = check_density(rho)
    walk = np.empty((WALK_GRID,) + u.shape, dtype=np.complex128)
    walk[0] = np.eye(u.shape[0])
    for s in range(1, WALK_GRID):
        np.matmul(u, walk[s - 1], out=walk[s])
    steps = np.conj(walk).transpose(0, 2, 1) @ rho @ walk  # R_s
    steps.flags.writeable = False

    def values_at(ns):
        anchors = np.unique((ns - 1) // WALK_GRID)
        powers = unitary_power(u, 1 + WALK_GRID * anchors)
        # B_a^T = conj(E_a) A^T E_a^T, contiguous like the gathered R_s
        sandwiches = np.conj(powers) @ a.T @ powers.transpose(0, 2, 1)

        def trace(tile):
            at = np.searchsorted(anchors, (tile - 1) // WALK_GRID)
            return np.einsum("nij,nij->n", steps[(tile - 1) % WALK_GRID], sandwiches[at])

        return moebius.by_row_tiles(trace, ns)

    return Flow(
        values_at=values_at,
        declared_bound=op_norm(a) * (1.0 + BOUND_SLACK),
        label=f"ad_flow(dim={u.shape[0]})",
    )


# ---------------------------------------------------------------------------
# trace product sums


@dataclass(frozen=True)
class TraceProductSpec:
    """Data for (1/N) sum_{n<=N} mu(n) tr_k(prod_j U_j^{phi_j(n)} A_j).

    phase_polys[j] are ascending integer coefficients of phi_j.
    Contractions A_j must satisfy ||A_j|| <= 1.
    """

    unitaries: tuple
    contractions: tuple
    phase_polys: tuple

    def __post_init__(self):
        us = tuple(check_unitary(u) for u in self.unitaries)
        cs = tuple(check_matrix(a) for a in self.contractions)
        if not us or len(us) != len(cs) or len(us) != len(self.phase_polys):
            raise ValueError("need equally many unitaries, contractions, and phase polynomials")
        k = us[0].shape[0]
        if any(m.shape != (k, k) for m in us + cs):
            raise ValueError("all matrices must share one dimension k")
        for a in cs:
            if op_norm(a) > 1.0 + CONTRACTION_SLACK:
                raise ValueError("contractions must have operator norm <= 1")
        polys = []
        for coeffs in self.phase_polys:
            if any(int(c) != c for c in coeffs):
                raise ValueError("phase coefficients must be integers")
            coeffs = tuple(int(c) for c in coeffs)
            if not coeffs:
                raise ValueError("phase polynomials need at least one coefficient")
            polys.append(coeffs)
        object.__setattr__(self, "unitaries", us)
        object.__setattr__(self, "contractions", cs)
        object.__setattr__(self, "phase_polys", tuple(polys))

    @property
    def k(self) -> int:
        return self.unitaries[0].shape[0]

    @property
    def d(self) -> int:
        return len(self.unitaries)

    def phases(self, ns) -> list:
        """[phi_j(ns) in int64 for each factor j]."""
        return [moebius._horner(np.array(c, dtype=np.int64), ns) for c in self.phase_polys]


@dataclass(frozen=True)
class TraceProductResult:
    value: complex  # direct matrix-product path
    eigen_value: complex  # eigenphase-expansion path
    discrepancy: float  # |value - eigen_value| <= TRACE_AGREE_TOL


def trace_product_sum(spec: TraceProductSpec, table: MoebiusTable, N: int) -> TraceProductResult:
    """Moebius-weighted trace product average, certified by two paths.

    Each path is a pointwise trace n -> tr_k(prod_j U_j^{phi_j(n)} A_j),
    averaged by one moebius.weighted_average call at the one checkpoint N,
    which evaluates it run by run at the squarefree n <= N and sums each
    run's terms in one reduction, _ROW_TILE n per evaluator call
    (moebius.by_row_tiles), so memory does not grow with N.  The direct
    path multiplies batched binary powers of each U_j; the eigen path
    multiplies scalar phase products into contractions transformed once by
    each U_j's eigenvectors.  The two values must agree to TRACE_AGREE_TOL
    or an ArithmeticError is raised: this cross-check certifies the result.
    Both paths take phi_j(n) in int64, so every phase polynomial must have
    sum_i |c_i| N^i < 2^63, or a ValueError is raised; that check only
    guards against int64 wraparound, not against powers that lose accuracy.
    """
    for coeffs in spec.phase_polys:
        reach = sum(abs(c) * N**i for i, c in enumerate(coeffs))
        if reach >= 2**63:
            raise ValueError(
                f"phase polynomial {coeffs} reaches sum |c_i| N^i = {reach}"
                f" >= 2^63 at N = {N}; its int64 values would wrap"
            )

    def direct_trace(ns):
        m = np.eye(spec.k, dtype=np.complex128)
        for u, a, phi in zip(spec.unitaries, spec.contractions, spec.phases(ns)):
            m = m @ unitary_power(u, phi) @ a
        return np.trace(m, axis1=1, axis2=2) / spec.k

    def average(trace):
        ((value, _),) = moebius.weighted_average(
            table, [N], lambda ns: moebius.by_row_tiles(trace, ns)
        )
        return value

    direct = average(direct_trace)
    eigen = average(_eigen_trace(spec))
    gap = abs(direct - eigen)
    if not gap <= TRACE_AGREE_TOL:  # a NaN gap fails too
        raise ArithmeticError(
            f"trace product paths disagree by {gap:.3e} > {TRACE_AGREE_TOL:g} for the"
            f" spec with k = {spec.k}, d = {spec.d} and phase polynomials {spec.phase_polys}"
        )
    return TraceProductResult(value=direct, eigen_value=eigen, discrepancy=gap)


def _eigen_trace(spec: TraceProductSpec):
    """Eigen path: the map ns -> tr_k(prod U_j^{phi_j(n)} A_j), expanded over
    joint eigenphases.

    With U_j = W_j D_j W_j*, the trace is the chain product of
    A~_j = W_j* A_j W_{j+1} against phase factors e(theta^{(j)}_t phi_j(n)),
    summed over one eigenindex per factor and divided by k.  The W_j, the
    eigenphases and the A~_j are computed once per spec.
    """
    k, d = spec.k, spec.d
    thetas, ws = zip(*(schur_unitary(u) for u in spec.unitaries))
    a_tilde = [
        ws[j].conj().T @ spec.contractions[j] @ ws[(j + 1) % d] for j in range(d)
    ]

    def trace_at(ns):
        es = [characters(theta, phi) for theta, phi in zip(thetas, spec.phases(ns))]
        chain = es[0][:, :, None] * a_tilde[0][None, :, :]
        for j in range(1, d):
            chain = np.einsum("nab,nb,bc->nac", chain, es[j], a_tilde[j], optimize=True)
        return np.einsum("naa->n", chain) / k

    return trace_at


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

    def power(self, n: int) -> np.ndarray:
        z = characters(self.angles, [n])[0]
        return np.einsum("j,jab->ab", z, self.projections)


def quantize_grid_size(epsilon: float, horizon: int) -> int:
    """Grid size m = ceil(2 pi horizon / epsilon); a ValueError when the
    arguments are out of range or m passes QUANTIZE_GRID_CAP."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    grid = 2.0 * math.pi * horizon / epsilon  # inf for a subnormal epsilon
    if grid > QUANTIZE_GRID_CAP:
        raise ValueError(
            f"epsilon = {epsilon:g} at horizon {horizon} needs grid size m = {grid:.6g}"
            f" > cap {QUANTIZE_GRID_CAP}; refuse to quantize"
        )
    return math.ceil(grid)


def quantize_unitary(u, epsilon: float, horizon: int) -> QuantizedUnitary:
    m = quantize_grid_size(epsilon, horizon)
    u = check_unitary(u)
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
    checks = sorted({1, max(1, horizon // 2), horizon})
    for n, drift in zip(checks, quantize_drift(u, quantized, checks)):
        if drift > epsilon:
            raise ArithmeticError(
                f"quantized power drifted by ||U^n - V^n|| = {drift:.3e} past"
                f" epsilon = {epsilon:g} at n = {n}"
            )
    return quantized


def quantize_drift(u, quantized: QuantizedUnitary, ns) -> list:
    """||U^n - V^n|| at each n of ns, with U^n from unitary_power."""
    return [op_norm(power - quantized.power(n)) for n, power in zip(ns, unitary_power(u, ns))]


# ---------------------------------------------------------------------------
# finite-dimensional average bound chain


def _state_flow(u, t, a):
    """The flow n -> rho(U*^n T U^n) for the state rho = tr_k(. AA*) / tr_k(AA*),
    labelled finite_vn_state_flow, together with AA* and tr_k(AA*)."""
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
        declared_bound=op_norm(t) * op_norm(aa) / denom + BOUND_SLACK,
        label="finite_vn_state_flow",
    )
    return flow, aa, denom


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
        return abs(self.s_n) <= self.bound + DOMINATES_SLACK


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
    if op_norm(t) > 1.0 + T_NORM_SLACK:
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
            s_mat[i, j] = moebius.exp_sum(table, (0.0, float(theta)), N)
    # tr_k(P_i T P_j AA*) = tr(AA* P_i T P_j) / k
    coeffs = _sandwich_coefficients(quantized.projections, t, aa)
    s_v = (s_mat * coeffs).sum() / (u.shape[0] * denom)

    eps_term = 2.0 * quantized.epsilon * op_norm(t)
    max_exp = float(np.max(np.abs(s_mat)))
    exp_term = max_exp * hs_norm(t) * hs_norm(aa) / denom
    if abs(s_n - s_v) > eps_term + QUANTIZE_GAP_SLACK:
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
