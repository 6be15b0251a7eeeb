"""Moebius sieve, Mertens sums, and Moebius-twisted exponential sums.

Summation contract
------------------
Every average in this package is a fixed blocked pairwise sum: numpy's
(deterministic) pairwise reduction inside ``_SUM_BLOCK``-element blocks,
followed by a balanced binary fold over the block subtotals.  The tree shape
depends only on the index range, never on how the work was partitioned, so
serial and worker-parallel runs agree bit for bit.

Phase evaluation
----------------
Polynomial phases ``a_d n^d + ... + a_0`` are evaluated mod 1 with
double-double Horner steps (two_sum / two_prod compensation) and a mod-1
reduction after every step.  Coefficients are pre-reduced mod 1, which is
exact for integer arguments.  The residual error grows like
``2^-106 * n^(d-1)`` per step, well below 1e-12 for degree <= 4 at n <= 1e6.
"""

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_N_MAX = 10**6
N_MAX_CAP = 10**8

_SUM_BLOCK = 4096
_CHUNK = _SUM_BLOCK * 64  # streaming chunk; multiple of _SUM_BLOCK

_CACHE_MAGIC = b"NCF1"
CACHE_ENV_VAR = "NCFLOW_CACHE_DIR"


@dataclass(frozen=True)
class MoebiusTable:
    """mu(n) for 1 <= n <= n_max; the primes up to n_max are sieved on first access.

    mu is an int8 array of length n_max + 1 with mu[0] = 0 unused.
    """

    n_max: int
    mu: np.ndarray

    @cached_property
    def primes(self) -> np.ndarray:
        return primes_upto(self.n_max)


@dataclass(frozen=True)
class PolynomialPhase:
    """Real polynomial phase with a congruence restriction n = residue (mod modulus).

    coeffs are ascending: coeffs[i] is the coefficient of n^i.
    """

    coeffs: tuple
    modulus: int = 1
    residue: int = 0

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("phase needs at least the constant coefficient")
        if not all(math.isfinite(float(c)) for c in self.coeffs):
            raise ValueError("phase coefficients must be finite")
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue must lie in [0, {self.modulus}), got {self.residue}"
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def linear_phase(theta: float, modulus: int = 1, residue: int = 0) -> PolynomialPhase:
    return PolynomialPhase((0.0, float(theta)), modulus, residue)


def build_table(n_max: int = DEFAULT_N_MAX, *, hard_cap: int = N_MAX_CAP) -> MoebiusTable:
    """Sieve mu(1..n_max).

    Vectorized multiplicative sieve: mu picks up a sign per prime divisor and
    is zeroed on multiples of squares.  O(n_max) memory.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > hard_cap:
        raise ValueError(f"n_max = {n_max} exceeds hard cap {hard_cap}")
    primes = primes_upto(n_max)
    mu = np.ones(n_max + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes:
        mu[p::p] *= -1
    for p in primes[primes <= math.isqrt(n_max)]:
        mu[p * p :: p * p] = 0
    return MoebiusTable(n_max=n_max, mu=mu)


def primes_upto(n: int) -> np.ndarray:
    """Primes p <= n by the sieve of Eratosthenes, as int64."""
    flags = np.ones(max(n, 1) + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# deterministic blocked pairwise summation


def _block_sums(values: np.ndarray) -> list:
    """np.add.reduce over each consecutive _SUM_BLOCK-element block."""
    return [
        np.add.reduce(values[i : i + _SUM_BLOCK])
        for i in range(0, values.size, _SUM_BLOCK)
    ]


def _streamed_sum(idx: range, terms: Callable[[np.ndarray], np.ndarray]):
    """Blocked pairwise sum of terms(n) over n in idx, _CHUNK indices at a time.

    The blocks are consecutive _SUM_BLOCK-element runs of idx, exactly as if
    tree_sum saw the whole array.  0j when idx is empty.
    """
    parts = []
    for lo in range(0, len(idx), _CHUNK):
        r = idx[lo : lo + _CHUNK]
        parts += _block_sums(terms(np.arange(r.start, r.stop, r.step, dtype=np.int64)))
    return fold_pairwise(parts) if parts else 0j


def tree_sum(values: np.ndarray):
    """Sum a 1-D array with the fixed blocked pairwise scheme."""
    values = np.asarray(values)
    if values.size == 0:
        return values.dtype.type(0)
    return fold_pairwise(_block_sums(values))


def fold_pairwise(parts: Sequence):
    """Balanced binary fold, deterministic in the sequence order."""
    vals = list(parts)
    if not vals:
        raise ValueError("nothing to fold")
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


# ---------------------------------------------------------------------------
# double-double helpers (vectorized)

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _fast_two_sum(a, b):
    # requires |a| >= |b| elementwise
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def poly_phase_frac(coeffs: Sequence[float], n) -> np.ndarray:
    """Fractional part of sum_i coeffs[i] * n^i for integer n, vectorized.

    Coefficients are reduced mod 1 first (integer parts only add whole turns
    for integer n), then a compensated Horner loop reduces mod 1 per step.
    """
    n = np.asarray(n, dtype=np.float64)
    red = [float(c) - math.floor(float(c)) for c in coeffs]
    hi = np.full(n.shape, red[-1], dtype=np.float64)
    lo = np.zeros(n.shape, dtype=np.float64)
    for a in reversed(red[:-1]):
        ph, pl = _two_prod(hi, n)
        pl = pl + lo * n
        sh, se = _two_sum(ph, a)
        sl = se + pl
        hi, lo = _fast_two_sum(sh, sl)
        hi = hi - np.floor(hi)  # exact: hi < 2**53
    out = hi + lo
    out = out - np.floor(out)
    return out


def phase_values(coeffs: Sequence[float], n) -> np.ndarray:
    """e(phi(n)) = exp(2 pi i phi(n)) with phi evaluated mod 1."""
    return np.exp(2j * np.pi * poly_phase_frac(coeffs, n))


# ---------------------------------------------------------------------------
# Moebius-weighted sums


def _restricted_range(N: int, modulus: int, residue: int) -> range:
    start = residue if residue >= 1 else modulus
    return range(start, N + 1, modulus)


def exp_sum(table: MoebiusTable, phase: PolynomialPhase, N: int) -> complex:
    """(1/N) * sum over n <= N, n = residue (mod modulus), of mu(n) e(phi(n))."""
    if not 1 <= N <= table.n_max:
        raise ValueError(f"N must lie in [1, {table.n_max}], got {N}")
    total = _streamed_sum(
        _restricted_range(N, phase.modulus, phase.residue),
        lambda ns: table.mu[ns].astype(np.float64) * phase_values(phase.coeffs, ns),
    )
    return complex(total) / N


def weighted_average(table: MoebiusTable, f: Callable, N: int) -> complex:
    """(1/N) * sum_{n<=N} mu(n) f(n) for f vectorized over an int64 array."""
    if not 1 <= N <= table.n_max:
        raise ValueError(f"N must lie in [1, {table.n_max}], got {N}")
    total = _streamed_sum(
        range(1, N + 1),
        lambda ns: np.asarray(f(ns), dtype=np.complex128) * table.mu[ns],
    )
    return complex(total) / N


def mertens(table: MoebiusTable, N: int) -> int:
    """M(N) = sum_{n<=N} mu(n), exact."""
    if not 1 <= N <= table.n_max:
        raise ValueError(f"N must lie in [1, {table.n_max}], got {N}")
    return int(np.add.reduce(table.mu[1 : N + 1], dtype=np.int64))


def mertens_series(table: MoebiusTable, checkpoints: Iterable[int]):
    """[(N, M(N)/N)] at the given checkpoints; integer arithmetic before the division."""
    cps = checked_checkpoints(table.n_max, checkpoints)
    return [(N, mertens(table, N) / N) for N in cps]


def squarefree_density(table: MoebiusTable, N: int) -> float:
    """Fraction of n <= N with mu(n) != 0; exact count before the division."""
    if not 1 <= N <= table.n_max:
        raise ValueError(f"N must lie in [1, {table.n_max}], got {N}")
    return int(np.count_nonzero(table.mu[1 : N + 1])) / N


def squarefree_count(table: MoebiusTable, N: int) -> int:
    if not 1 <= N <= table.n_max:
        raise ValueError(f"N must lie in [1, {table.n_max}], got {N}")
    return int(np.count_nonzero(table.mu[1 : N + 1]))


def checked_checkpoints(n_max: int, checkpoints: Iterable[int]) -> list:
    """Checkpoints as ints; nonempty, strictly ascending and inside [1, n_max]."""
    cps = [int(N) for N in checkpoints]
    if not cps:
        raise ValueError("need at least one checkpoint")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    if cps[0] < 1 or cps[-1] > n_max:
        raise ValueError(f"checkpoints must lie in [1, {n_max}]")
    return cps


# ---------------------------------------------------------------------------
# sieve cache file: magic "NCF1", little-endian uint64 n_max, 2-bit codes
# (mu + 1) for n = 1..n_max packed four per byte, low bits first.


def save_table(table: MoebiusTable, path) -> None:
    codes = (table.mu[1:].astype(np.int16) + 1).astype(np.uint8)
    pad = (-codes.size) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    codes = codes.reshape(-1, 4)
    packed = codes[:, 0] | codes[:, 1] << 2 | codes[:, 2] << 4 | codes[:, 3] << 6
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<Q", table.n_max))
        fh.write(packed.tobytes())


def load_table(path) -> MoebiusTable:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CACHE_MAGIC:
            raise ValueError(f"bad sieve cache magic {magic!r} in {path}")
        (n_max,) = struct.unpack("<Q", fh.read(8))
        packed = np.frombuffer(fh.read(), dtype=np.uint8)
    expect = (n_max + 3) // 4
    if packed.size != expect:
        raise ValueError(
            f"sieve cache {path} truncated: {packed.size} payload bytes, expected {expect}"
        )
    codes = np.empty(expect * 4, dtype=np.uint8)
    codes[0::4] = packed & 3
    codes[1::4] = packed >> 2 & 3
    codes[2::4] = packed >> 4 & 3
    codes[3::4] = packed >> 6 & 3
    mu = np.zeros(n_max + 1, dtype=np.int8)
    mu[1:] = codes[:n_max].astype(np.int8) - 1
    table = MoebiusTable(n_max=int(n_max), mu=mu)
    _spot_check(table, path)
    return table


def _spot_check(table: MoebiusTable, path) -> None:
    known = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 30: -1}
    for n, v in known.items():
        if n <= table.n_max and table.mu[n] != v:
            raise ValueError(f"sieve cache {path} failed spot check at n = {n}")


def cache_path(cache_dir, n_max: int) -> str:
    return os.path.join(cache_dir, f"moebius_{n_max}.ncf")


def load_or_build_table(n_max: int = DEFAULT_N_MAX, cache_dir=None) -> MoebiusTable:
    """Build a table, going through the cache directory when one is given."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        return build_table(n_max)
    path = cache_path(cache_dir, n_max)
    if os.path.exists(path):
        return load_table(path)
    table = build_table(n_max)
    os.makedirs(cache_dir, exist_ok=True)
    save_table(table, path)
    return table
