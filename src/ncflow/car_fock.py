"""Finite CAR algebra on fermionic Fock space: creation operators, second
quantization, symbolic normal ordering, quasi-free states, and the truncated
shift flows built from them.

Conventions
-----------
a(f) is the wedge-on-the-left (creation) operator, linear in f; a(f)* is its
adjoint.  The relations are a(f)a(g) + a(g)a(f) = 0 and
a(f)a(g)* + a(g)*a(f) = <f, g> 1 with <f, g> = sum f_i conj(g_i).
With this convention a(f)*a(f) = <f, f> - N_f, so the quasi-free symbol value
lambda_k = <T v_k, v_k> is the probability that mode v_k is EMPTY.

The Fock basis e_S runs over subsets S of {1..d} ordered by (|S|, lexicographic);
a(e_j) e_S = (-1)^{#{i in S : i < j}} e_{S union j} for j not in S.

Shift direction for the truncated counterexample: the one-sided symbol
T = sum_{k=1..L} mu(k) P_{-k} lives on negative indices, so the quasi-free
flow walks the vector with the adjoint shift (U*^n xi_0 = xi_{-n}), which is
what makes its value land on mu(n) exactly; the operator flow sandwiches the
other way and reads the same entry.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .flows import Flow
from .linalg import check_square, check_unitary, inner, unitary_power
from .moebius import MoebiusTable, characters

_SYMBOL_ATOL = 1e-10
MAX_MODES = 12  # the dense Fock oracle holds 2^d x 2^d matrices: 256 MiB each at d = 12


@dataclass(frozen=True)
class FockSpace:
    """Antisymmetric Fock space over C^d; dimension 2^d."""

    d: int
    basis: tuple  # occupation bitmasks, bit j-1 <=> mode j occupied
    index: dict

    @property
    def dim(self) -> int:
        return 1 << self.d

    @cached_property
    def creation_pattern(self) -> tuple:
        """(rows, cols, modes, signs): a(e_j) maps e_S at col to sign * e_{S+j}
        at row, one entry for each col and each mode j not in S."""
        masks = np.array(self.basis, dtype=np.int64)
        position = np.empty(self.dim, dtype=np.int64)
        position[masks] = np.arange(self.dim)
        popcount = sum(np.arange(self.dim) >> j & 1 for j in range(self.d))
        cols, modes = np.nonzero((masks[:, None] >> np.arange(self.d)) & 1 == 0)
        below = masks[cols] & ((1 << modes) - 1)
        signs = np.where(popcount[below] % 2 == 1, -1.0, 1.0)
        return position[masks[cols] | (1 << modes)], cols, modes, signs


def fock_space(d: int) -> FockSpace:
    if not 1 <= d <= MAX_MODES:
        raise ValueError(f"d must lie in [1, {MAX_MODES}], got {d}")
    masks = sorted(range(1 << d), key=lambda m: (bin(m).count("1"), _mask_tuple(m)))
    return FockSpace(d=d, basis=tuple(masks), index={m: i for i, m in enumerate(masks)})


def _mask_tuple(mask: int) -> tuple:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def creation_matrix(space: FockSpace, f) -> np.ndarray:
    """Matrix of a(f) = sum_j f_j a(e_j) on the ordered Fock basis."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (space.d,):
        raise ValueError(f"vector must have length d = {space.d}")
    rows, cols, modes, signs = space.creation_pattern
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    out[rows, cols] += signs * f[modes]  # each entry written once, onto a zero
    return out


def gamma(space: FockSpace, u) -> np.ndarray:
    """Second quantization: <e_T, Gamma(U) e_S> = det U[T, S] on equal-size subsets."""
    u = check_square(u)
    if u.shape != (space.d, space.d):
        raise ValueError(f"expected a {space.d} x {space.d} matrix")
    dim = space.dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    by_size = {}
    for i, mask in enumerate(space.basis):
        by_size.setdefault(bin(mask).count("1"), []).append((i, _mask_tuple(mask)))
    for size, entries in by_size.items():
        for col, s_rows in entries:
            for row, t_rows in entries:
                if size == 0:
                    out[row, col] = 1.0
                else:
                    out[row, col] = np.linalg.det(
                        u[np.ix_(t_rows, s_rows)]
                    )
    return out


# ---------------------------------------------------------------------------
# symbolic CAR polynomials


@dataclass(frozen=True)
class CARMonomial:
    """scalar * product of factors; factor (v, True) means a(v)*, (v, False) means a(v)."""

    scalar: complex
    factors: tuple

    @property
    def degree(self) -> int:
        return len(self.factors)

    @property
    def normal_ordered(self) -> bool:
        seen_plain = False
        for _, star in self.factors:
            if star and seen_plain:
                return False
            if not star:
                seen_plain = True
        return True

    @property
    def starred(self) -> tuple:
        """Vectors of the a(.)* factors, in written (left to right) order."""
        return tuple(v for v, star in self.factors if star)

    @property
    def plain(self) -> tuple:
        return tuple(v for v, star in self.factors if not star)

    def key(self):
        return tuple((star, v.tobytes()) for v, star in self.factors)


def _mono(scalar, factors) -> CARMonomial:
    factors = tuple(
        (np.ascontiguousarray(v, dtype=np.complex128), bool(star)) for v, star in factors
    )
    return CARMonomial(scalar=complex(scalar), factors=factors)


class CARPolynomial:
    """Finite linear combination of CAR monomials, kept in canonical merged form."""

    def __init__(self, monomials: Iterable[CARMonomial] = ()):
        terms = {}
        for m in monomials:
            if m.scalar == 0:
                continue
            k = m.key()
            if k in terms:
                s = terms[k].scalar + m.scalar
                if s == 0:
                    del terms[k]
                else:
                    terms[k] = CARMonomial(scalar=s, factors=terms[k].factors)
            else:
                terms[k] = m
        self._terms = terms

    @property
    def monomials(self) -> tuple:
        return tuple(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = constant(other)
        return CARPolynomial(self.monomials + other.monomials)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return CARPolynomial(
                CARMonomial(scalar=m.scalar * other, factors=m.factors)
                for m in self.monomials
            )
        out = []
        for m1 in self.monomials:
            for m2 in other.monomials:
                out.append(
                    CARMonomial(
                        scalar=m1.scalar * m2.scalar, factors=m1.factors + m2.factors
                    )
                )
        return CARPolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def adjoint(self) -> "CARPolynomial":
        out = []
        for m in self.monomials:
            factors = tuple((v, not star) for v, star in reversed(m.factors))
            out.append(CARMonomial(scalar=np.conj(m.scalar), factors=factors))
        return CARPolynomial(out)

    def map_vectors(self, fn: Callable[[np.ndarray], np.ndarray]) -> "CARPolynomial":
        return CARPolynomial(
            _mono(m.scalar, [(fn(v), star) for v, star in m.factors])
            for m in self.monomials
        )

    def to_matrix(self, space: FockSpace) -> np.ndarray:
        """Concrete Fock realization; the oracle for all symbolic identities."""
        dim = space.dim
        total = np.zeros((dim, dim), dtype=np.complex128)
        for m in self.monomials:
            acc = np.eye(dim, dtype=np.complex128) * m.scalar
            for v, star in m.factors:
                c = creation_matrix(space, v)
                acc = acc @ (c.conj().T if star else c)
            total += acc
        return total


def constant(value) -> CARPolynomial:
    return CARPolynomial([_mono(value, ())])


def creation(f) -> CARPolynomial:
    """The symbol a(f)."""
    return CARPolynomial([_mono(1.0, [(f, False)])])


def annihilation(f) -> CARPolynomial:
    """The symbol a(f)* (adjoint of creation; kills the vacuum)."""
    return CARPolynomial([_mono(1.0, [(f, True)])])


def normal_order(p: CARPolynomial) -> CARPolynomial:
    """Rewrite with all a(.)* factors left of all a(.) factors.

    Uses a(f) a(g)* = <f, g> 1 - a(g)* a(f) on the leftmost offending pair;
    each step drops the degree by two or removes one inversion, so the
    worklist terminates.
    """
    work = list(p.monomials)
    done = []
    while work:
        m = work.pop()
        idx = _first_inversion(m.factors)
        if idx is None:
            done.append(m)
            continue
        f, _ = m.factors[idx]
        g, _ = m.factors[idx + 1]
        head = m.factors[:idx]
        tail = m.factors[idx + 2 :]
        ip = inner(f, g)
        if ip != 0:
            work.append(CARMonomial(scalar=m.scalar * ip, factors=head + tail))
        work.append(
            CARMonomial(
                scalar=-m.scalar,
                factors=head + ((g, True), (f, False)) + tail,
            )
        )
    return CARPolynomial(done)


def _first_inversion(factors) -> Optional[int]:
    for i in range(len(factors) - 1):
        if not factors[i][1] and factors[i + 1][1]:
            return i
    return None


# ---------------------------------------------------------------------------
# quasi-free states


def check_symbol(t) -> np.ndarray:
    """A symbol is a matrix with 0 <= T <= 1."""
    t = check_square(t)
    if np.max(np.abs(t - t.conj().T)) > _SYMBOL_ATOL:
        raise ValueError("symbol must be Hermitian")
    eigs = np.linalg.eigvalsh(t)
    if eigs.min() < -_SYMBOL_ATOL or eigs.max() > 1.0 + _SYMBOL_ATOL:
        raise ValueError("symbol eigenvalues must lie in [0, 1]")
    return t


def _balanced_terms(p: CARPolynomial) -> list:
    """(scalar, [f_i], [g_j]) for each balanced monomial of normal_order(p),
    in its order, with g_1 the innermost (rightmost) starred vector; the
    constant is the term with no vectors.  Unbalanced monomials are dropped."""
    return [
        (m.scalar, m.plain, m.starred[::-1])
        for m in normal_order(p).monomials
        if len(m.starred) == len(m.plain)
    ]


def quasifree_eval(t, p: CARPolynomial) -> complex:
    """Quasi-free state with symbol T on a CAR polynomial.

    After normal ordering, a balanced monomial
    a(g_m)* ... a(g_1)* a(f_1) ... a(f_m) contributes det(<T f_i, g_j>)_{i,j};
    unbalanced monomials vanish.
    """
    t = check_symbol(t)
    total = 0j
    for scalar, plains, gs in _balanced_terms(p):
        if not gs:
            total += scalar
            continue
        n = len(gs)
        gram = np.empty((n, n), dtype=np.complex128)
        for i, f in enumerate(plains):
            tf = t @ f
            for j, g in enumerate(gs):
                gram[i, j] = inner(tf, g)
        total += scalar * np.linalg.det(gram)
    return complex(total)


def quasifree_density_matrix(t, space: FockSpace) -> np.ndarray:
    """Density matrix realizing the quasi-free state on the Fock basis.

    Diagonalize T = sum lambda_k |v_k><v_k|; the state is the mixture of
    occupation configurations S with weight
    prod_{k in S} (1 - lambda_k) * prod_{k not in S} lambda_k
    on the rotated basis Gamma(V) e_S (lambda_k = probability mode k is empty).
    """
    t = check_symbol(t)
    if t.shape != (space.d, space.d):
        raise ValueError(f"symbol must be {space.d} x {space.d}")
    lam, v = np.linalg.eigh(t)
    lam = np.clip(lam.real, 0.0, 1.0)
    weights = np.empty(space.dim, dtype=np.float64)
    for i, mask in enumerate(space.basis):
        w = 1.0
        for k in range(space.d):
            w *= (1.0 - lam[k]) if (mask >> k & 1) else lam[k]
        weights[i] = w
    g = gamma(space, v)
    rho = (g * weights) @ g.conj().T
    return rho


def bogoliubov_apply(u, p: CARPolynomial, n: int = 1) -> CARPolynomial:
    """Induced automorphism a(f) -> a(U^n f) applied to every factor."""
    u = check_unitary(u)
    w = unitary_power(u, n)
    return p.map_vectors(lambda v: w @ v)


# ---------------------------------------------------------------------------
# truncated shift flows


@dataclass(frozen=True)
class CounterexampleFlows:
    """Two flows over the one-sided Moebius symbol on the cyclic shift space.

    bh_flow(n) = mu(n) exactly for n <= L, so its Moebius average is
    (1/N) sum |mu(n)| (no decay).  car_flow(n) = (mu(n) + 1) / 2 is the same
    matrix element read through the quasi-free state with symbol (T + 1)/2.
    """

    bh_flow: Flow
    car_flow: Flow
    valid_n: int
    dim: int


def counterexample_flow(L: int, table: MoebiusTable) -> CounterexampleFlows:
    """Truncated shift on C^(2L+1) with symbol T = sum_{k<=L} mu(k) P_{-k}."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if L > table.n_max:
        raise ValueError(f"L = {L} exceeds the sieve range {table.n_max}")
    dim = 2 * L + 1
    # index of basis vector xi_k is k + L for k in [-L, L]
    tdiag = np.zeros(dim, dtype=np.int64)
    tdiag[:L] = table.mu[1 : L + 1][::-1]  # position L - k holds mu(k)

    bh = Flow(
        values_at=lambda ns: tdiag[np.mod(L - ns, dim)].astype(np.complex128),
        declared_bound=1.0,
        label=f"shift_symbol(L={L})",
        valid_n=L,
    )
    car = Flow(
        values_at=lambda ns: (tdiag[np.mod(L - ns, dim)] + 1).astype(np.complex128) / 2,
        declared_bound=1.0,
        label=f"shift_quasifree(L={L})",
        valid_n=L,
    )
    return CounterexampleFlows(bh_flow=bh, car_flow=car, valid_n=L, dim=dim)


# ---------------------------------------------------------------------------
# pure point spectrum flow


def pure_point_flow(angles, observable: CARPolynomial, symbol, *, label=None) -> Flow:
    """Quasi-free flow n -> phi_T(alpha_U^n(observable)) for U = diag(e(theta_k)).

    Normal-orders the observable once; each balanced monomial contributes a
    determinant whose entries are trigonometric sums over eigenphase pairs,
    so the cost per n is polynomial in the monomial degree and d (never 2^d).
    """
    theta = np.asarray(angles, dtype=np.float64)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("need a nonempty 1-D array of eigenphases")
    d = theta.size
    t = check_symbol(symbol)
    if t.shape != (d, d):
        raise ValueError(f"symbol must be {d} x {d}")
    terms = []  # the balanced terms other than the constant
    const = 0j
    bound = 0.0
    for scalar, plains, gs in _balanced_terms(observable):
        if not gs:
            const += scalar
            bound += abs(scalar)
            continue
        terms.append((scalar, plains, gs))
        g_sq = sum(float(np.linalg.norm(g)) ** 2 for g in gs)
        bound += abs(scalar) * math.prod(
            float(np.linalg.norm(f)) for f in plains
        ) * g_sq ** (len(gs) / 2.0)

    def batch(ns):
        ns = np.asarray(ns, dtype=np.int64)
        z = characters(theta, ns)
        out = np.full(ns.shape, const, dtype=np.complex128)
        for scalar, plains, gs in terms:
            n_deg = len(gs)
            tf = [(z * f[None, :]) @ t.T for f in plains]
            wg = [np.conj(z) * np.conj(g)[None, :] for g in gs]
            gram = np.empty((ns.size, n_deg, n_deg), dtype=np.complex128)
            for i in range(n_deg):
                for j in range(n_deg):
                    gram[:, i, j] = np.einsum("nk,nk->n", tf[i], wg[j])
            out += scalar * np.linalg.det(gram)
        return out

    return Flow(
        values_at=batch,
        declared_bound=bound + 1e-9,
        label=label or f"pure_point_flow(d={d})",
    )
