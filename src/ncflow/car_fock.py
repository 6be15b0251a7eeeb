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
from typing import Callable, Iterable

import numpy as np

from .flows import BOUND_SLACK, Flow
from .linalg import check_square, inner
from .moebius import MoebiusTable, by_row_tiles, characters

_SYMBOL_ATOL = 1e-10
# the dense Fock oracle holds 2^d x 2^d matrices, and car-demo's ten op_norm
# SVDs of such anticommutators take 80% of its time at d = 8 and 63% at
# d = 10, by cProfile.  car-demo in process, seed 0, 1 sample of degree 2:
# d = 8 took 1.2 s, d = 10 8.1 s and 156 MiB (24 s and 155 MiB at 50 samples
# of degree 4), d = 11 56 s and 457 MiB, and d = 12 did not finish in 600 s
MAX_MODES = 10


@dataclass(frozen=True)
class FockSpace:
    """Antisymmetric Fock space over C^d; dimension 2^d."""

    d: int
    basis: tuple  # occupation bitmasks, bit j-1 <=> mode j occupied

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
    return FockSpace(d=d, basis=tuple(masks))


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
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    start = 0
    for size in range(space.d + 1):
        masks = space.basis[start : start + math.comb(space.d, size)]
        sets = np.array([_mask_tuple(m) for m in masks], dtype=np.int64)
        block = slice(start, start + len(masks))
        out[block, block] = np.linalg.det(u[sets[:, None, :, None], sets[None, :, None, :]])
        start += len(masks)
    return out


# ---------------------------------------------------------------------------
# symbolic CAR polynomials


@dataclass(frozen=True)
class CARMonomial:
    """scalar * product of factors; factor (v, True) means a(v)*, (v, False) means a(v)."""

    scalar: complex
    factors: tuple

    @property
    def starred(self) -> tuple:
        """Vectors of the a(.)* factors, in written (left to right) order."""
        return tuple(v for v, star in self.factors if star)

    @property
    def plain(self) -> tuple:
        return tuple(v for v, star in self.factors if not star)

    def key(self):
        """(stars, vector bytes): "1" for each a(.)* factor and "0" for each
        a(.), and each factor's vector as bytes, in written order."""
        stars = "".join(["1" if star else "0" for _, star in self.factors])
        return stars, tuple([v.tobytes() for v, _ in self.factors])


def _mono(scalar, factors) -> CARMonomial:
    factors = tuple(
        (np.ascontiguousarray(v, dtype=np.complex128), bool(star)) for v, star in factors
    )
    return CARMonomial(scalar=complex(scalar), factors=factors)


class CARPolynomial:
    """Finite linear combination of CAR monomials, kept in canonical merged form."""

    def __init__(self, monomials: Iterable[CARMonomial] = ()):
        merged = _merged([(m.key(), m.scalar, m) for m in monomials])
        # a key that came once keeps its monomial object
        self._terms = {
            k: m if s is m.scalar else CARMonomial(scalar=s, factors=m.factors)
            for k, (s, m) in merged.items()
        }

    @property
    def monomials(self) -> tuple:
        return tuple(self._terms.values())

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = constant(other)
        return CARPolynomial(self.monomials + other.monomials)

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

    def adjoint(self) -> "CARPolynomial":
        out = []
        for m in self.monomials:
            factors = tuple((v, not star) for v, star in reversed(m.factors))
            out.append(CARMonomial(scalar=np.conj(m.scalar), factors=factors))
        return CARPolynomial(out)

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


def _merged(items) -> dict:
    """key -> (scalar, first) for (key, scalar, item) triples, in order of
    first appearance: the scalars of one key are added in sequence order,
    first is the key's first item, a zero scalar is skipped, and a key whose
    sum reaches zero is dropped (and starts over if it comes again)."""
    sums = {}
    for k, scalar, item in items:
        if scalar == 0:
            continue
        if k in sums:
            total = sums[k][0] + scalar
            if total == 0:
                del sums[k]
            else:
                sums[k] = (total, sums[k][1])
        else:
            sums[k] = (scalar, item)
    return sums


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
    worklist terminates.  The worklist carries monomials as their keys,
    a star string and the vectors' bytes, so no vector is keyed twice and
    the leftmost inversion is the first "01" of the star string; the pairs
    left of a rewritten one had no inversion, so the next search starts
    one factor left of it.  The finished monomials are merged once, in the
    order the worklist finishes them, and only the merged ones get factors.
    """
    vectors = {}
    work = []
    for m in p.monomials:
        stars, vecs = m.key()
        vectors.update(zip(vecs, (v for v, _ in m.factors)))
        work.append((m.scalar, stars, vecs, 0))
    inners = {}
    done = []
    while work:
        scalar, stars, vecs, start = work.pop()
        idx = stars.find("01", start)
        if idx < 0:
            done.append(((stars, vecs), scalar, None))
            continue
        f, g = vecs[idx], vecs[idx + 1]
        if (f, g) not in inners:
            inners[f, g] = inner(vectors[f], vectors[g])
        ip = inners[f, g]
        head, tail = vecs[:idx], vecs[idx + 2 :]
        start = max(idx - 1, 0)
        if ip != 0:
            work.append((scalar * ip, stars[:idx] + stars[idx + 2 :], head + tail, start))
        work.append((-scalar, stars[:idx] + "10" + stars[idx + 2 :], head + (g, f) + tail, start))

    out = CARPolynomial()
    out._terms = {
        (stars, vecs): CARMonomial(
            scalar=s, factors=tuple((vectors[v], star == "1") for star, v in zip(stars, vecs))
        )
        for (stars, vecs), (s, _) in _merged(done).items()
    }
    return out


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


def _subset_dets(g) -> np.ndarray:
    """Determinants of a stack g of m x m matrices, shape (n, ..., m, m), by
    Laplace expansion along rows 0, 1, ..., m - 1 over column subsets.

    After k rows, minors[S] holds det g[..., :k, S] for every set S of k
    columns (bit j of S for column j); each row extends them by one column,
    m 2^(m-1) vector products in all, with no pivoting and no division.
    m = 0 gives 1, and m = 1 the entry itself (times 1, exact).  Each
    complex product adds at most sqrt(5) 2^-53 of its modulus (Brent,
    Percival & Zimmermann 2007) and each sum of k + 1 terms at most
    k 2^-53 of their moduli, so by induction over the rows the result lies
    within (m - 1)(sqrt(5) + m / 2) 2^-53 per|g| of det g, to first order,
    where per|g| is the permanent of the entrywise moduli.
    """
    m = g.shape[-1]
    minors = {0: np.ones(g.shape[:-2], dtype=np.complex128)}
    for k in range(m):
        row = g[..., k, :]
        wider = {}
        for cols, minor in minors.items():
            for j in range(m):
                if cols >> j & 1:
                    continue
                term = row[..., j] * minor
                # (-1)^(k + position of j): the parity of the columns right of j
                odd = bin(cols >> j).count("1") % 2
                key = cols | 1 << j
                if key not in wider:
                    wider[key] = np.negative(term, out=term) if odd else term
                elif odd:
                    np.subtract(wider[key], term, out=wider[key])
                else:
                    np.add(wider[key], term, out=wider[key])
        minors = wider
    return minors[(1 << m) - 1]


def _gram_dets(t, terms) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluator z -> sum over the balanced terms of
    scalar * det(<T(z f_i), z g_j>)_{i,j}, for each row of an (n, d) array z
    of mode phases.

    Each Gram entry is a quadratic form in z:
    <T(z f), z g> = sum_kl f_k T_lk conj(g_l) z_k conj(z_l) = z^T C conj(z)
    with C = diag(f) T^T diag(conj g).  The C of all E entries of all terms
    are built here, once, side by side in one (d, E d) array, so a call
    takes every entry from one product z @ C and one row-wise contraction
    with conj(z), with O(n E d) temporaries.  The terms are grouped by size
    m, each group's determinants come from one stacked _subset_dets, and
    their scalar-weighted sum is added to the constant terms' sum.
    """
    d = len(t)
    if any(v.shape != (d,) for _, fs, gs in terms for v in fs + gs):
        raise ValueError(f"every vector must have length d = {d}")
    constant = sum((s for s, _, gs in terms if not gs), 0j)
    groups, rows, cols = [], [], []
    for m in sorted({len(gs) for _, _, gs in terms} - {0}):
        group = [(s, fs, gs) for s, fs, gs in terms if len(gs) == m]
        groups.append((m, np.array([s for s, _, _ in group], dtype=np.complex128)))
        for _, fs, gs in group:
            rows += [f for f in fs for _ in gs]
            cols += [g for _ in fs for g in gs]
    entries = len(rows)
    f = np.array(rows, dtype=np.complex128).reshape(entries, d)
    g = np.array(cols, dtype=np.complex128).reshape(entries, d)
    # coeffs[k, e, l] = f_k T_lk conj(g_l) for the e-th entry's (f, g)
    coeffs = (f.T[:, :, None] * t.T[:, None, :] * np.conj(g)).reshape(d, entries * d)

    def dets(z):
        z = np.asarray(z, dtype=np.complex128)  # a real z @ coeffs can take a slow mixed-type loop
        n = len(z)
        out = np.full(n, constant, dtype=np.complex128)
        gram = np.einsum("nek,nk->ne", (z @ coeffs).reshape(n, entries, d), np.conj(z))
        at = 0
        for m, scalars in groups:
            size = scalars.size * m * m
            block = gram[:, at : at + size].reshape(n, scalars.size, m, m)
            out += _subset_dets(block) @ scalars
            at += size
        return out

    return dets


def quasifree_eval(t, p: CARPolynomial) -> complex:
    """Quasi-free state with symbol T on a CAR polynomial.

    After normal ordering, a balanced monomial
    a(g_m)* ... a(g_1)* a(f_1) ... a(f_m) contributes det(<T f_i, g_j>)_{i,j};
    unbalanced monomials vanish.  This is _gram_dets at the phases z = 1.
    """
    t = check_symbol(t)
    return complex(_gram_dets(t, _balanced_terms(p))(np.ones((1, len(t))))[0])


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
    masks = np.array(space.basis, dtype=np.int64)
    weights = np.ones(space.dim, dtype=np.float64)
    for k in range(space.d):
        weights *= np.where(masks >> k & 1, 1.0 - lam[k], lam[k])
    g = gamma(space, v)
    return (g * weights) @ g.conj().T


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
    dim: int


def counterexample_flow(L: int, table: MoebiusTable) -> CounterexampleFlows:
    """Truncated shift on C^(2L+1) with symbol T = sum_{k<=L} mu(k) P_{-k}."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if L > table.n_max:
        raise ValueError(f"L = {L} exceeds the sieve range {table.n_max}")
    # T's diagonal entry at xi_{-n}, n <= L = valid_n, is its entry L - n of
    # 2L + 1, so only the first L are read: mu(L), ..., mu(1), as int8
    tdiag = table.window(1, L + 1)[::-1]

    bh = Flow(
        values_at=lambda ns: tdiag[L - ns].astype(np.complex128),
        declared_bound=1.0,
        label=f"shift_symbol(L={L})",
        valid_n=L,
    )
    car = Flow(
        values_at=lambda ns: (tdiag[L - ns] + 1).astype(np.complex128) / 2,
        declared_bound=1.0,
        label=f"shift_quasifree(L={L})",
        valid_n=L,
    )
    return CounterexampleFlows(bh_flow=bh, car_flow=car, dim=2 * L + 1)


# ---------------------------------------------------------------------------
# pure point spectrum flow


def pure_point_flow(angles, observable: CARPolynomial, symbol) -> Flow:
    """Quasi-free flow n -> phi_T(alpha_U^n(observable)) for U = diag(e(theta_k)).

    Normal-orders the observable and builds _gram_dets' coefficient matrices
    once; at each n it evaluates the balanced monomials at the mode phases
    z_k = e(theta_k n), since U^n f = z f.  Every Gram entry is then
    z^T C conj(z) for its C = diag(f_i) T^T diag(conj g_j), and each m x m
    determinant is a Laplace expansion over column subsets, within
    (m - 1)(sqrt(5) + m / 2) 2^-53 per|G| of the determinant of the computed
    entries (_subset_dets).  The cost per n is O(E d) for E Gram entries in
    all plus O(m 2^m) per term of size m (never 2^d); the n go through
    moebius.by_row_tiles, so the characters and _gram_dets' O(n E d)
    temporaries are held for at most _ROW_TILE n at a time.
    """
    theta = np.asarray(angles, dtype=np.float64)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("need a nonempty 1-D array of eigenphases")
    d = theta.size
    t = check_symbol(symbol)
    if t.shape != (d, d):
        raise ValueError(f"symbol must be {d} x {d}")
    terms = _balanced_terms(observable)
    bound = 0.0
    for scalar, plains, gs in terms:  # the constant is the empty product
        g_sq = sum(float(np.linalg.norm(g)) ** 2 for g in gs)
        bound += abs(scalar) * math.prod(
            float(np.linalg.norm(f)) for f in plains
        ) * g_sq ** (len(gs) / 2.0)

    dets = _gram_dets(t, terms)
    return Flow(
        values_at=lambda ns: by_row_tiles(lambda part: dets(characters(theta, part)), ns),
        declared_bound=bound + BOUND_SLACK,
        label=f"pure_point_flow(d={d})",
    )
