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
Polynomial phases ``a_d n^d + ... + a_0`` are evaluated mod 1 at integer n.
Each coefficient splits exactly into ``M 2^-64 + lo`` with
``M = floor(a 2^64) mod 2^64`` and ``0 <= lo < 2^-64``.  Horner's rule on
the M runs in wrapping uint64 arithmetic, exact mod 2^64 (one turn), and
one rounding converts the result to a float in [0, 1).  So coefficients on
the 2^-64 grid (every |a| >= 2^-12 of either sign, and everything
``random.random()`` draws) come out within 2^-54 at every n.  When some lo
is nonzero, a float Horner of the lo parts, reduced mod 1, is added to the
integer accumulator in units of 2^-64, and the error stays within
``2^-53 + 2^-50 * sum_i lo_i |n|^i``.  One kernel does this ``_PHASE_TILE``
elements at a time, and characters evaluates many linear phases
e(theta_k n) in one broadcast.  The tests check both bounds against an
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
_PHASE_TILE = 8192  # phase kernel tile: 64 KiB per uint64 or float64 temporary
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
# polynomial phases: exact Horner mod 2^64 in cache-sized tiles

_TWO_PI = 2.0 * math.pi


def _split(coeffs):
    """Exact split of each coefficient c = M 2^-64 + lo (mod 1).

    M = floor(c 2^64) mod 2^64 as uint64 and lo in [0, 2^-64) as float64,
    computed in Python ints from c.as_integer_ratio(), so lo is exact.
    """
    ms, los = [], []
    for c in np.asarray(coeffs, dtype=np.float64).ravel().tolist():
        num, den = c.as_integer_ratio()
        top, rest = divmod(num << 64, den)
        ms.append(top % (1 << 64))
        los.append(rest / (den << 64))
    return np.array(ms, dtype=np.uint64), np.array(los)


def _horner(coeffs, x) -> np.ndarray:
    """sum_i coeffs[i] x^i in the dtype of x; zero coefficients are not added."""
    out = np.empty(np.broadcast_shapes(x.shape, np.shape(coeffs[-1])), x.dtype)
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        np.multiply(out, x, out=out)
        if np.any(c):
            np.add(out, c, out=out)
    return out


def _phase_frac(ms, los, n) -> np.ndarray:
    """(sum_i (ms[i] 2^-64 + los[i]) n^i) mod 1, in [0, 1), for int64 n.

    The M Horner wraps mod 2^64, one turn, so it is exact; n is viewed as
    uint64 because uint64 * int64 would go to float64.  When some lo is
    nonzero, its float Horner reduced mod 1 is added in units of 2^-64.
    """
    acc = _horner(ms, n.view(np.uint64))
    if any(np.any(lo) for lo in los):
        low = _horner(los, n.astype(np.float64))
        low -= np.floor(low)
        acc += (low * 2.0**64).astype(np.uint64)
    frac = acc * 2.0**-64
    frac -= np.floor(frac)
    return frac


def _exp_turns(frac: np.ndarray) -> np.ndarray:
    """e(frac), written as 0 + 2 pi frac i and exponentiated in place."""
    z = np.zeros(frac.shape, dtype=np.complex128)
    np.multiply(frac, _TWO_PI, out=z.imag)
    return np.exp(z, out=z)


def poly_phase_frac(coeffs: Sequence[float], n) -> np.ndarray:
    """Fractional part of sum_i coeffs[i] * n^i for integer n, vectorized,
    _PHASE_TILE elements at a time."""
    ms, los = _split(coeffs)
    n = np.asarray(n, dtype=np.int64)
    out = np.empty(n.shape)
    flat, flat_n = out.reshape(-1), n.reshape(-1)
    for start in range(0, flat.size, _PHASE_TILE):
        tile = slice(start, start + _PHASE_TILE)
        flat[tile] = _phase_frac(ms, los, flat_n[tile])
    return out[()]  # a numpy scalar for 0-d n, as from a ufunc


def phase_values(coeffs: Sequence[float], n) -> np.ndarray:
    """e(phi(n)) = exp(2 pi i phi(n)) with phi evaluated mod 1.

    The same bits as np.exp(2j * np.pi * poly_phase_frac(coeffs, n)).
    """
    return _exp_turns(np.asarray(poly_phase_frac(coeffs, n)))[()]


def characters(angles, ns) -> np.ndarray:
    """The (len(ns), len(angles)) matrix e(angles[k] * ns[i]).

    Column k has the same bits as phase_values of the linear phase
    (0, angles[k]) at ns.
    """
    ms, los = _split(angles)
    ns = np.asarray(ns, dtype=np.int64)
    return _exp_turns(_phase_frac((0, ms), (0.0, los), ns[:, None]))


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
