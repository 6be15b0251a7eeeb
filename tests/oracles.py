"""Independent oracles that the tests hold the library to; no ncflow module
imports them.

- Free group words: reduced words over generators indexed by Z, finite word
  sums with exact coefficients and the canonical trace, and the free central
  limit moments by enumerating letter strings.
- Non-crossing partitions of {1..n}, enumerated, against which the
  moment-cumulant recursion of ncflow.free_words is checked.
- Moebius sums: tree_sum, the summation layout that
  ncflow.moebius.weighted_average must keep bit for bit, restated piece by
  piece, with each checkpoint's piece sums folded by one complex128
  np.add.reduce; and the exact Mertens sum M(N) and squarefree count Q(N),
  one at a time, against ncflow.moebius.prefix_counts.
- Moebius tables as whole int8 arrays: mu_array(table) unpacks mu(0..n_max)
  through MoebiusTable.window, and table_of(mu) packs an array into a table
  through the sieve's own pack helper, for mu that no sieve made.
- values(flow, lo, hi): a flow's checked values at n = lo + 1..hi.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ncflow.free_words import NC_ORDER_CAP
from ncflow import moebius
from ncflow.moebius import _SUM_RUN, MoebiusTable

# ---------------------------------------------------------------------------
# reduced words and word sums


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

    def __add__(self, other: "GroupElementSum") -> "GroupElementSum":
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return GroupElementSum(out)

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
# non-crossing partitions


@dataclass(frozen=True)
class NonCrossingPartition:
    blocks: tuple  # tuple of ascending tuples, ordered by smallest element

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


# ---------------------------------------------------------------------------
# Moebius sums


def tree_sum(mu: np.ndarray, values: np.ndarray, checkpoints) -> list:
    """sum_{n<=N} mu(n) f(n) at each ascending checkpoint N, for mu and
    values = f indexed by n (entry 0 unused).  Over N, each sum has the
    bits that moebius.weighted_average must give at that checkpoint.

    n = 1..max(checkpoints) is taken piece by piece: a piece ends at the
    next multiple of _SUM_RUN or the next checkpoint, whichever comes first.
    A piece's sum is one np.add.reduce of mu(n) f(n) over its squarefree n
    in ascending order, with mu(n) as float64, and each checkpoint's sum is
    one np.add.reduce of the complex128 array of the piece sums up to it.
    numpy's complex pairwise sum interleaves the real and imaginary parts in
    its blocks, so even for real values the fold must reduce complex128.
    """
    cps = [int(N) for N in checkpoints]
    sums, out, lo = [], [], 0
    for N in cps:
        while lo < N:
            hi = min(N, (lo // _SUM_RUN + 1) * _SUM_RUN)
            ns = np.arange(lo + 1, hi + 1)
            ns = ns[mu[ns] != 0]
            sums.append(np.add.reduce(mu[ns].astype(np.float64) * values[ns]))
            lo = hi
        out.append(np.add.reduce(np.array(sums, dtype=np.complex128)))
    return out


def mu_array(table: MoebiusTable) -> np.ndarray:
    """mu(0..n_max) as one int8 array, with mu[0] = 0 unused."""
    return np.concatenate([np.zeros(1, np.int8), table.window(1, table.n_max + 1)])


def table_of(mu: np.ndarray) -> MoebiusTable:
    """The table of mu(n) = mu[n] for 1 <= n <= len(mu) - 1, any int8 values
    in {-1, 0, 1}, packed by moebius._pack_codes as build_table packs."""
    n_max = len(mu) - 1
    padded = np.full(-(-n_max // 4) * 4, -1, dtype=np.int8)  # -1: the padding code 0
    padded[:n_max] = mu[1:]
    codes = np.empty(padded.size // 4, dtype=np.uint8)
    moebius._pack_codes(padded, codes)
    codes.flags.writeable = False
    return MoebiusTable(n_max=n_max, codes=codes)


def _check_N(table: MoebiusTable, N: int) -> None:
    if not 1 <= N <= table.n_max:
        raise ValueError(f"N must lie in [1, {table.n_max}], got {N}")


def mertens(table: MoebiusTable, N: int) -> int:
    """M(N) = sum_{n<=N} mu(n), exact."""
    _check_N(table, N)
    return int(np.add.reduce(table.window(1, N + 1), dtype=np.int64))


def squarefree_count(table: MoebiusTable, N: int) -> int:
    """Q(N) = sum_{n<=N} |mu(n)|, exact."""
    _check_N(table, N)
    return int(np.count_nonzero(table.window(1, N + 1)))


# ---------------------------------------------------------------------------
# flows


def values(flow, lo: int, hi: int) -> np.ndarray:
    """flow's checked values for n in (lo, hi]."""
    return flow.at(np.arange(lo + 1, hi + 1, dtype=np.int64))
