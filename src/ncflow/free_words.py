"""Reduced words over the free group on generators indexed by Z, word sums
with exact coefficients, the canonical trace, non-crossing partitions, free
moment-cumulant transforms, and block-sum norm estimates.

Words are stored run-length compressed as (generator index, signed power)
syllables with adjacent indices distinct; reduction is a stack pass.  The
canonical trace tau picks the coefficient of the empty word.  Everything here
is exact (ints / fractions) until a final float is requested.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .flows import Flow, constant_flow
from .moebius import MoebiusTable

NC_ORDER_CAP = 14


@dataclass(frozen=True)
class ReducedWord:
    """Freely reduced word; syllables are (index, power) with power != 0."""

    syllables: tuple = ()

    @staticmethod
    def from_syllables(pairs) -> "ReducedWord":
        stack = []
        for idx, power in pairs:
            idx = int(idx)
            power = int(power)
            if power == 0:
                continue
            if stack and stack[-1][0] == idx:
                merged = stack[-1][1] + power
                if merged == 0:
                    stack.pop()
                else:
                    stack[-1] = (idx, merged)
            else:
                stack.append((idx, power))
        return ReducedWord(tuple(stack))

    @staticmethod
    def generator(index: int, power: int = 1) -> "ReducedWord":
        return ReducedWord.from_syllables([(index, power)])

    @staticmethod
    def identity() -> "ReducedWord":
        return ReducedWord(())

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def length(self) -> int:
        return sum(abs(p) for _, p in self.syllables)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return ReducedWord.from_syllables(self.syllables + other.syllables)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(tuple((i, -p) for i, p in reversed(self.syllables)))

    def shift(self, n: int) -> "ReducedWord":
        return ReducedWord(tuple((i + n, p) for i, p in self.syllables))

    def spread(self) -> int:
        """max |generator index| appearing (0 for the identity)."""
        return max((abs(i) for i, _ in self.syllables), default=0)


class GroupElementSum:
    """Finite formal sum of reduced words with exact numeric coefficients."""

    def __init__(self, terms=None):
        merged = {}
        if terms:
            for w, c in (terms.items() if isinstance(terms, dict) else terms):
                if c == 0:
                    continue
                merged[w] = merged.get(w, 0) + c
                if merged[w] == 0:
                    del merged[w]
        self._terms = merged

    @staticmethod
    def from_word(w: ReducedWord, coeff=1) -> "GroupElementSum":
        return GroupElementSum({w: coeff})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "GroupElementSum") -> "GroupElementSum":
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return GroupElementSum(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "GroupElementSum":
        return GroupElementSum({w: c * v for w, v in self._terms.items()})

    def __mul__(self, other: "GroupElementSum") -> "GroupElementSum":
        out = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return GroupElementSum(out)

    def adjoint(self) -> "GroupElementSum":
        return GroupElementSum(
            {w.inverse(): _conj(c) for w, c in self._terms.items()}
        )

    def shift(self, n: int) -> "GroupElementSum":
        return GroupElementSum({w.shift(n): c for w, c in self._terms.items()})

    def trace(self):
        """Canonical trace: the coefficient of the empty word."""
        return self._terms.get(ReducedWord.identity(), 0)

    def power(self, k: int) -> "GroupElementSum":
        if k < 0:
            raise ValueError("negative powers are not defined for word sums")
        out = GroupElementSum({ReducedWord.identity(): 1})
        for _ in range(k):
            out = out * self
        return out


def _conj(c):
    return c.conjugate() if isinstance(c, complex) else c


def free_shift_flow(w: ReducedWord, state_word: ReducedWord, *, label=None) -> Flow:
    """Flow n -> tau(v^-1 alpha^n(w) v) for the index shift alpha and v = state_word.

    The shift is an injective homomorphism, so v^-1 alpha^n(w) v is the
    identity exactly when w is: the flow is the constant [w = e] for every n
    and every v.
    """
    return constant_flow(
        1.0 if w.is_identity else 0.0, label=label or "free_shift_flow"
    )


# ---------------------------------------------------------------------------
# non-crossing partitions and free cumulants


@dataclass(frozen=True)
class NonCrossingPartition:
    blocks: tuple  # tuple of ascending tuples, ordered by smallest element

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    def is_noncrossing(self) -> bool:
        for b1, b2 in itertools.combinations(self.blocks, 2):
            for x, z in itertools.combinations(b1, 2):
                if any(x < y < z for y in b2) and any(w < x or w > z for w in b2):
                    return False
        return True


def nc_partitions(n: int):
    """All non-crossing partitions of {1..n} in a fixed deterministic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > NC_ORDER_CAP:
        raise ValueError(f"n = {n} exceeds the enumeration cap {NC_ORDER_CAP}")
    return [
        NonCrossingPartition(blocks=p) for p in _nc_rec(tuple(range(1, n + 1)))
    ]


def _nc_rec(elems: tuple):
    """Choose the block containing the first element; the remaining elements
    split into gaps between consecutive block members, and non-crossing forces
    each gap to be partitioned independently."""
    if not elems:
        return [()]
    first, rest = elems[0], elems[1:]
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            block = (first,) + combo
            in_block = set(combo)
            segments, seg = [], []
            for x in rest:
                if x in in_block:
                    segments.append(tuple(seg))
                    seg = []
                else:
                    seg.append(x)
            segments.append(tuple(seg))
            for parts in itertools.product(*[_nc_rec(s) for s in segments]):
                out.append((block,) + tuple(itertools.chain.from_iterable(parts)))
    return out


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class CumulantTable:
    """Aligned free cumulants and moments, orders 1..n."""

    kappa: tuple
    moments: tuple

    @property
    def order(self) -> int:
        return len(self.kappa)


def cumulants_to_moments(kappa: Sequence) -> CumulantTable:
    """m_n = sum over pi in NC(n) of prod over blocks of kappa_{|V|}."""
    kappa = tuple(kappa)
    if not 1 <= len(kappa) <= NC_ORDER_CAP:
        raise ValueError(f"order must lie in [1, {NC_ORDER_CAP}]")
    moments = []
    for n in range(1, len(kappa) + 1):
        total = 0
        for pi in nc_partitions(n):
            prod = 1
            for block in pi.blocks:
                prod *= kappa[len(block) - 1]
            total += prod
        moments.append(total)
    return CumulantTable(kappa=kappa, moments=tuple(moments))


def moments_to_cumulants(moments: Sequence) -> CumulantTable:
    """Invert the moment formula order by order (the full block is kappa_n)."""
    moments = tuple(moments)
    if not 1 <= len(moments) <= NC_ORDER_CAP:
        raise ValueError(f"order must lie in [1, {NC_ORDER_CAP}]")
    kappa = []
    for n in range(1, len(moments) + 1):
        partial = 0
        for pi in nc_partitions(n):
            if len(pi.blocks) == 1:
                continue
            prod = 1
            for block in pi.blocks:
                prod *= kappa[len(block) - 1]
            partial += prod
        kappa.append(moments[n - 1] - partial)
    return CumulantTable(kappa=tuple(kappa), moments=moments)


# ---------------------------------------------------------------------------
# free central limit scaling


def arcsine_moments(p_max: int) -> tuple:
    """Moments of (u + u*)/2 for a Haar unitary: m_{2k} = C(2k, k) / 4^k, odd 0."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    return tuple(
        Fraction(math.comb(p, p // 2), 2**p) if p % 2 == 0 else Fraction(0)
        for p in range(1, p_max + 1)
    )


def semicircle_moments(p_max: int, variance=Fraction(1, 2)) -> tuple:
    """m_{2k} = Catalan_k * variance^k, odd moments 0."""
    variance = Fraction(variance)
    return tuple(
        catalan(p // 2) * variance ** (p // 2) if p % 2 == 0 else Fraction(0)
        for p in range(1, p_max + 1)
    )


def free_clt_moments(q: int, p_max: int) -> tuple:
    """Exact moments of s_q = (x_1 + ... + x_q)/sqrt(q) for free arcsine x_i.

    Free cumulants scale as kappa_n(s_q) = q^(1 - n/2) kappa_n(x); odd
    cumulants vanish, so everything stays rational.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    table = moments_to_cumulants(arcsine_moments(p_max))
    scaled = []
    for n, k in enumerate(table.kappa, start=1):
        if n % 2 == 1:
            if k != 0:
                raise ArithmeticError("odd arcsine cumulant should vanish")
            scaled.append(Fraction(0))
        else:
            scaled.append(k * Fraction(1, q ** (n // 2 - 1)))
    return cumulants_to_moments(scaled).moments


def arcsine_sum_moment_by_words(q: int, p: int) -> Fraction:
    """tau(s_q^p) by exact expansion over all (2q)^p letter strings.

    The q summands are (g_i + g_i^-1)/2 for distinct free generators; a string
    contributes iff its word reduces to the identity.
    """
    if q < 1 or p < 1:
        raise ValueError("need q >= 1 and p >= 1")
    if (2 * q) ** p > 4_000_000:
        raise ValueError(f"expansion of (2q)^p = {(2 * q) ** p} letters is over budget")
    if p % 2 == 1:
        return Fraction(0)
    letters = [(i, e) for i in range(q) for e in (1, -1)]
    count = 0
    for combo in itertools.product(letters, repeat=p):
        if ReducedWord.from_syllables(combo).is_identity:
            count += 1
    return Fraction(count, 2**p * q ** (p // 2))


# ---------------------------------------------------------------------------
# block sums of shifted generators


@dataclass(frozen=True)
class BlockSumReport:
    """Norm estimate for B/q with B = sum_j c_j alpha^{j step + offset}(w)."""

    estimate: float  # (tau((B*B / q^2)^{p/2}))^{1/p}
    raw_trace: Fraction  # tau((B*B)^{p/2}), exact
    normalized_moment: Fraction  # raw_trace / q^p
    q: int
    p: int
    step: int
    coefficients: tuple


def bkn_moment_norm(
    l: int,
    word: ReducedWord,
    q: int,
    p: int,
    *,
    table: Optional[MoebiusTable] = None,
    offset: int = 1,
    coeffs: Optional[Sequence[int]] = None,
    budget: int = 5_000_000,
) -> BlockSumReport:
    """Trace-moment estimate of ||B/q|| for the block sum of shifted words.

    B = sum_{j<q} c_j alpha^{j (2l+1) + offset}(word): translates by multiples
    of 2l+1 have disjoint generator windows when l >= word.spread(), which is
    the structural freeness this estimate relies on.  Coefficients default to
    mu(j (2l+1) + offset) read from the table.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be a positive even integer, got {p}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if l < word.spread():
        raise ValueError(
            f"block radius l = {l} must cover the word spread {word.spread()}"
        )
    est_cost = (q * q) ** (p // 2) * max(1, len(word.syllables))
    if est_cost > budget:
        raise ValueError(
            f"estimated expansion cost {est_cost} exceeds budget {budget}"
        )
    step = 2 * l + 1
    if coeffs is None:
        if table is None:
            raise ValueError("need either explicit coeffs or a Moebius table")
        top = (q - 1) * step + offset
        if top > table.n_max:
            raise ValueError(f"need mu up to {top} > table range {table.n_max}")
        coeffs = [int(table.mu[j * step + offset]) for j in range(q)]
    else:
        coeffs = [int(c) for c in coeffs]
        if len(coeffs) != q:
            raise ValueError("need exactly q coefficients")
    b = GroupElementSum(
        [(word.shift(j * step + offset), c) for j, c in enumerate(coeffs)]
    )
    s = b.adjoint() * b
    raw = Fraction(s.power(p // 2).trace())
    normalized = raw / q**p
    return BlockSumReport(
        estimate=float(normalized) ** (1.0 / p),
        raw_trace=raw,
        normalized_moment=normalized,
        q=q,
        p=p,
        step=step,
        coefficients=tuple(coeffs),
    )
