"""Moebius sieve, Mertens sums, and Moebius-twisted exponential sums.

Sieve
-----
``build_table`` is a segmented sieve of Eratosthenes (Bays & Hudson 1977)
that uses only the primes up to ``sqrt(n_max)``.  Each segment of
``_SIEVE_SEGMENT`` integers multiplies the small prime factors of n into a
signed cofactor; the one prime factor above ``sqrt(n_max)`` that n can have
shows up as the cofactor falling short of n.  Memory is the ``n_max + 1``
byte table plus one segment's int32 scratch arrays.

Summation contract
------------------
Every average in this package is a fixed blocked pairwise sum: numpy's
(deterministic) pairwise reduction inside ``_SUM_BLOCK``-element blocks,
followed by a balanced binary fold over the block subtotals.  The tree shape
depends only on the index range, never on how the work was partitioned, so
serial and worker-parallel runs agree bit for bit.

Sums stream their index range ``_CHUNK`` (two blocks) at a time, so every
temporary stays in L2.

Phase evaluation
----------------
Polynomial phases ``a_d n^d + ... + a_0`` are evaluated mod 1 with
double-double Horner steps (two_sum / two_prod compensation) and a mod-1
reduction after every step.  Coefficients are pre-reduced mod 1, which is
exact for integer arguments.  One kernel does this in place, ``_PHASE_TILE``
elements at a time, in scratch arrays allocated once per call; phase_values
exponentiates each tile in place.  Coefficients on the 2^-53 grid (what
``random.random()`` draws) come out within 1e-12 for degree <= 4 at every
n up to ``N_MAX_CAP``.  For other coefficients the error grows like
``n^d * 2^-106``: below 1e-12 for degree <= 2 up to the cap, degree 3 up to
n = 1e6 and degree 4 up to n = 5e4, but about 1e-8 for degree 3 and no
correct digit for degree 4 at n = 1e8.  The tests check this against an
exact rational oracle.
"""

import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_N_MAX = 10**6
N_MAX_CAP = 10**8

_SUM_BLOCK = 4096
_CHUNK = _SUM_BLOCK * 2  # streaming chunk, a multiple of _SUM_BLOCK that stays in L2
_PHASE_TILE = 8192  # phase kernel tile: eight float64 scratch arrays of 64 KiB
_SIEVE_SEGMENT = 1 << 19

_CACHE_MAGIC = b"NCF2"
_CACHE_HEADER = struct.Struct("<4sQI")  # magic, n_max, crc32 of the payload
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


def build_table(n_max: int = DEFAULT_N_MAX) -> MoebiusTable:
    """Sieve mu(1..n_max) segment by segment with the primes up to sqrt(n_max).

    Each segment of _SIEVE_SEGMENT integers keeps an int32 cofactor array
    that every small prime p dividing n multiplies by -p, and that is zeroed
    on multiples of p^2.  Its sign is then mu of the small-prime part of n,
    and where its absolute value falls short of n the remaining cofactor is
    exactly one prime above sqrt(n_max), which flips the sign once more.
    Memory is the n_max + 1 byte table plus one segment.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > N_MAX_CAP:
        raise ValueError(f"n_max = {n_max} exceeds hard cap {N_MAX_CAP}")
    small = primes_upto(math.isqrt(n_max)).tolist()
    mu = np.zeros(n_max + 1, dtype=np.int8)
    # |cofactor| divides n <= N_MAX_CAP < 2^31, so int32 cannot overflow.
    cofactor = np.empty(min(_SIEVE_SEGMENT, n_max), dtype=np.int32)
    for lo in range(1, n_max + 1, _SIEVE_SEGMENT):
        hi = min(lo + _SIEVE_SEGMENT, n_max + 1)
        seg = mu[lo:hi]
        cof = cofactor[: hi - lo]
        cof.fill(1)
        for p in small:
            cof[-lo % p :: p] *= -p
            cof[-lo % (p * p) :: p * p] = 0
        np.sign(cof, out=seg, casting="unsafe")
        np.abs(cof, out=cof)
        np.negative(seg, out=seg, where=cof != np.arange(lo, hi, dtype=np.int32))
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
# polynomial phases: double-double Horner in cache-sized tiles

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split into two 26-bit halves
_TWO_PI = 2.0 * math.pi


def _phase_tiles(coeffs: Sequence[float], n: np.ndarray):
    """Yield (tile, frac): frac(phi(n)) for each _PHASE_TILE run of n.ravel().

    frac is a scratch view that the next tile overwrites.  Each Horner step
    is Dekker's two_prod(hi, n) with lo * n added to its error, Knuth's
    two_sum with the next coefficient, a fast_two_sum renormalization and
    hi mod 1 (exact: hi < 2**53), computed in place in eight scratch arrays;
    the Veltkamp split of n is the same in every step and is taken once.
    """
    red = [float(c) - math.floor(float(c)) for c in coeffs]
    flat = n.ravel()
    scratch = np.empty((8, min(flat.size, _PHASE_TILE)))
    for start in range(0, flat.size, _PHASE_TILE):
        x = flat[start : start + _PHASE_TILE]
        hi, lo, nh, nl, p, s, t, u = scratch[:, : x.size]
        np.multiply(x, _SPLITTER, out=nh)
        np.subtract(nh, x, out=t)
        np.subtract(nh, t, out=nh)
        np.subtract(x, nh, out=nl)
        hi.fill(red[-1])
        lo.fill(0.0)
        for a in reversed(red[:-1]):
            # two_prod: p + t = hi * n exactly (s, hi: the split of hi); t += lo * n
            np.multiply(hi, x, out=p)
            np.multiply(hi, _SPLITTER, out=s)
            np.subtract(s, hi, out=t)
            np.subtract(s, t, out=s)
            np.subtract(hi, s, out=hi)
            np.multiply(s, nh, out=t)
            np.subtract(t, p, out=t)
            np.multiply(s, nl, out=s)
            np.add(t, s, out=t)
            np.multiply(hi, nh, out=s)
            np.add(t, s, out=t)
            np.multiply(hi, nl, out=s)
            np.add(t, s, out=t)
            np.multiply(lo, x, out=lo)
            np.add(t, lo, out=t)
            # two_sum: s + hi = p + a exactly; then t = hi + t
            np.add(p, a, out=s)
            np.subtract(s, p, out=u)
            np.subtract(s, u, out=hi)
            np.subtract(p, hi, out=hi)
            np.subtract(a, u, out=u)
            np.add(hi, u, out=hi)
            np.add(hi, t, out=t)
            # fast_two_sum (|s| >= |t|), then hi mod 1
            np.add(s, t, out=hi)
            np.subtract(hi, s, out=u)
            np.subtract(t, u, out=lo)
            np.floor(hi, out=u)
            np.subtract(hi, u, out=hi)
        np.add(hi, lo, out=t)
        np.floor(t, out=u)
        np.subtract(t, u, out=t)
        yield slice(start, start + x.size), t


def poly_phase_frac(coeffs: Sequence[float], n) -> np.ndarray:
    """Fractional part of sum_i coeffs[i] * n^i for integer n, vectorized.

    Coefficients are reduced mod 1 first (integer parts only add whole turns
    for integer n), then a compensated Horner loop reduces mod 1 per step.
    """
    n = np.asarray(n, dtype=np.float64)
    out = np.empty(n.shape)
    flat = out.reshape(-1)
    for tile, frac in _phase_tiles(coeffs, n):
        flat[tile] = frac
    return out[()]  # a numpy scalar for 0-d n, as from a ufunc


def phase_values(coeffs: Sequence[float], n) -> np.ndarray:
    """e(phi(n)) = exp(2 pi i phi(n)) with phi evaluated mod 1.

    Each tile is written as 0 + 2 pi frac i and exponentiated in place, the
    same bits as np.exp(2j * np.pi * poly_phase_frac(coeffs, n)).
    """
    n = np.asarray(n, dtype=np.float64)
    out = np.empty(n.shape, dtype=np.complex128)
    flat = out.reshape(-1)
    for tile, frac in _phase_tiles(coeffs, n):
        z = flat[tile]
        z.real = 0.0
        np.multiply(frac, _TWO_PI, out=z.imag)
        np.exp(z, out=z)
    return out[()]


# ---------------------------------------------------------------------------
# Moebius-weighted sums


def _restricted_range(N: int, modulus: int, residue: int) -> range:
    start = residue if residue >= 1 else modulus
    return range(start, N + 1, modulus)


def _check_N(table: MoebiusTable, N: int) -> None:
    if not 1 <= N <= table.n_max:
        raise ValueError(f"N must lie in [1, {table.n_max}], got {N}")


def exp_sum(table: MoebiusTable, phase: PolynomialPhase, N: int) -> complex:
    """(1/N) * sum over n <= N, n = residue (mod modulus), of mu(n) e(phi(n))."""
    _check_N(table, N)
    total = _streamed_sum(
        _restricted_range(N, phase.modulus, phase.residue),
        lambda ns: table.mu[ns].astype(np.float64) * phase_values(phase.coeffs, ns),
    )
    return complex(total) / N


def weighted_average(table: MoebiusTable, f: Callable, N: int) -> complex:
    """(1/N) * sum_{n<=N} mu(n) f(n) for f vectorized over an int64 array."""
    _check_N(table, N)
    total = _streamed_sum(
        range(1, N + 1),
        lambda ns: np.asarray(f(ns), dtype=np.complex128) * table.mu[ns],
    )
    return complex(total) / N


def mertens(table: MoebiusTable, N: int) -> int:
    """M(N) = sum_{n<=N} mu(n), exact."""
    _check_N(table, N)
    return int(np.add.reduce(table.mu[1 : N + 1], dtype=np.int64))


def mertens_series(table: MoebiusTable, checkpoints: Iterable[int]):
    """[(N, M(N)/N)] at the given checkpoints; integer arithmetic before the division."""
    cps = checked_checkpoints(table.n_max, checkpoints)
    return [(N, mertens(table, N) / N) for N in cps]


def squarefree_density(table: MoebiusTable, N: int) -> float:
    """Fraction of n <= N with mu(n) != 0; exact count before the division."""
    return squarefree_count(table, N) / N


def squarefree_count(table: MoebiusTable, N: int) -> int:
    _check_N(table, N)
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
# sieve cache file: magic "NCF2", little-endian uint64 n_max, uint32
# zlib.crc32 of the payload, then the payload: 2-bit codes (mu + 1) for
# n = 1..n_max packed four per byte, low bits first.


def save_table(table: MoebiusTable, path) -> None:
    """Write the table to a temporary file beside path, then rename it over
    path, so path holds either its old content or the whole new file."""
    n_max = table.n_max
    codes = np.zeros(4 * ((n_max + 3) // 4), dtype=np.uint8)
    # mu + 1 in uint8 arithmetic: the int8 -1 reads as 255 and wraps to 0
    np.add(table.mu[1:].view(np.uint8), 1, out=codes[:n_max])
    payload = codes[0::4].copy()
    for k in (1, 2, 3):
        col = codes[k::4]
        np.left_shift(col, 2 * k, out=col)
        np.bitwise_or(payload, col, out=payload)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_HEADER.pack(_CACHE_MAGIC, n_max, zlib.crc32(payload)))
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_table(path) -> MoebiusTable:
    with open(path, "rb") as fh:
        header = fh.read(_CACHE_HEADER.size)
        payload = fh.read()
    if header[:4] == b"NCF1":
        raise ValueError(
            f"sieve cache {path} has the old format NCF1, which carries no"
            " checksum; delete it to rebuild"
        )
    if len(header) != _CACHE_HEADER.size or header[:4] != _CACHE_MAGIC:
        raise ValueError(f"bad sieve cache header {header[:4]!r} in {path}")
    _, n_max, crc = _CACHE_HEADER.unpack(header)
    expect = (n_max + 3) // 4
    if len(payload) != expect:
        raise ValueError(
            f"sieve cache {path} truncated: {len(payload)} payload bytes, expected {expect}"
        )
    if zlib.crc32(payload) != crc:
        raise ValueError(f"sieve cache {path} fails its payload checksum")
    packed = np.frombuffer(payload, dtype=np.uint8)
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
    """Build a table, going through the cache directory when one is given.

    A cache file that load_table rejects, or whose header holds another
    n_max than its name, is reported on stderr and rebuilt.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        return build_table(n_max)
    path = cache_path(cache_dir, n_max)
    if os.path.exists(path):
        try:
            table = load_table(path)
            if table.n_max != n_max:
                raise ValueError(
                    f"sieve cache {path} holds n_max = {table.n_max}, expected {n_max}"
                )
            return table
        except ValueError as exc:
            print(f"ncflow: rebuilding sieve cache {path}: {exc}", file=sys.stderr)
    table = build_table(n_max)
    os.makedirs(cache_dir, exist_ok=True)
    save_table(table, path)
    return table
