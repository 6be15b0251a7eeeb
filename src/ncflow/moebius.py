"""Moebius sieve, Mertens sums, and Moebius-twisted exponential sums.

Sieve
-----
``build_table`` is a segmented sieve of Eratosthenes (Bays & Hudson 1977)
that uses only the primes up to ``sqrt(n_max)``.  Each segment of
``_SIEVE_SEGMENT`` integers multiplies the small prime factors of n into a
signed cofactor; the one prime factor above ``sqrt(n_max)`` that n can have
shows up as the cofactor falling short of n.  A segment starts from a copy of
a pre-sieved wheel: the cofactor pattern of the primes up to 7 (squares
included), one period of 2^2 3^2 5^2 7^2 = 44100 entries, built per call.
Each prime's pass multiplies its strided view in place, and a p^2 pass runs
only where a multiple of p^2 falls in the segment.  The large prime is at
least reach = isqrt(n_max) + 1, so on a stretch [a, b) with b <= a reach
the cofactor falls short of n exactly where it is below a in absolute
value: the sign flip is arithmetic, sign(cofactor) times
1 - 2 [|cofactor| < a] in int8, with no array of n and no masked ufunc.
Each segment starts at n = 1 mod 4 and is packed into the table's codes as
soon as it is sieved.  Memory is the ``(n_max + 3) // 4`` code bytes plus one
int32 and two int8 arrays of one segment and the pattern: 6 bytes per
segment entry and 172 KiB, inside the 7 ``_SIEVE_SEGMENT`` bytes the tests
hold it to.  ``prefix_counts`` reads M(N) and Q(N), the squarefree count, at
many N in one pass over the table for the sieve experiment, by popcounts of
whole 32-n code words; the averages take Q(N) from their own pass
(``weighted_average``).

Table and cache
---------------
A ``MoebiusTable`` holds mu(1..n_max) as ``codes``, the read-only 2-bit form
that the sieve cache file stores: the code mu(n) + 1 of n = 4k + 1 .. 4k + 4
in byte k, low bits first, with code 0 in the padding slots past n_max.  It
is a quarter of an int8 table: 24 MiB at the 10^8 cap.  No reader unpacks
the whole table: ``MoebiusTable.window(lo, hi)`` unpacks mu(lo..hi - 1) from
just the bytes that hold it, one ``np.take`` of a 256-entry table of four
int8 mu per byte, and never returns a padding slot.  ``weighted_average``
unpacks one run at a time, and ``prefix_counts`` only the last N mod 32 n
before each checkpoint N.  The cache file
is a 16-byte header (magic ``NCF2``, n_max, the crc32 of the payload) and
then ``codes`` byte for byte: ``save_table`` writes them, and ``load_table``
reads them into one read-only array, checks the checksum, refuses any code 3
(padding slots included) in one chunked pass, and spot-checks six known mu.

Summation contract
------------------
Every Moebius average is one ``weighted_average`` call: (1/N) sum_{n<=N}
mu(n) f(n) at each of its ascending checkpoints N, for a pointwise f.
``flows.average_series``, ``exp_sum`` and both trace-product paths are each
one call, and it is the one place that weights by mu.  n = 1..max(checkpoints)
is cut into runs at the multiples of ``_SUM_RUN`` and into pieces at each
checkpoint.  f is evaluated once per run, at its squarefree n only (mu(n) = 0
for about 39% of n), and each piece is one numpy pairwise reduction of its
slice of the run's mu-weighted values; each average is one more
``np.add.reduce``, of the complex128 array of piece sums up to its
checkpoint, so numpy's pairwise kernel is the only summation.  Each average
comes with Q(N), the summed lengths of the same pieces.  The layout depends
only on the checkpoints, never on the worker count: threads take whole
runs, so every evaluation covers the same n at any worker count, and memory
does not grow with N.  Evaluators whose per-n work is a matrix row
take their n ``_ROW_TILE`` at a time (``by_row_tiles``), so their scratch
does not grow with the run.

Phase evaluation
----------------
A polynomial phase ``a_d n^d + ... + a_0`` is its tuple of ascending
coefficients ``(a_0, ..., a_d)``, with no wrapper: ``phase_values``,
``poly_phase_frac``, ``exp_sum`` and ``characters`` (whose angles are the
tuple) all take it as it is.  Each evaluation goes through ``_split_tuple``,
cached by the tuple, which refuses an empty or non-finite tuple with
``ValueError``, so each distinct phase is checked once.  Phases are evaluated
mod 1 at integer n.
Each coefficient splits exactly into ``M 2^-64 + lo`` with
``M = floor(a 2^64) mod 2^64`` and ``0 <= lo < 2^-64``.  Horner's rule on
the M runs in wrapping uint64 arithmetic, exact mod 2^64 (one turn).  When
some lo is nonzero, a float Horner of the lo parts, reduced mod 1, is added
to this accumulator r in units of 2^-64.  So the phase r 2^-64 is exact for
coefficients on the 2^-64 grid (every |a| >= 2^-12 of either sign, and
everything ``random.random()`` draws), and otherwise within
``2^-53 + 2^-50 * sum_i lo_i |n|^i``.  ``poly_phase_frac`` rounds it once to
a float in [0, 1), within 2^-54 on the grid.

``phase_values`` takes e(r 2^-64) from r itself (Tang 1989): three
4096-entry tables on bits 52-63, 40-51 and 28-39, each part of each entry
within an ulp, times 1 + 2 pi i t for the low 28 bits t 2^-64 < 2^-36.  Three
complex products and the tables' rounding keep it within
``TURNS_ERR = 11 * 2^-53`` of e(r 2^-64); quarter turns are exact.  The
tables are built on the first evaluation, not at import.  One kernel does
this for a whole call at once, since every caller bounds its input (a run, a
row tile, bsz_check's M), and ``characters`` evaluates many linear
phases e(theta_k n) in one broadcast.  The tests check the phase bounds
against an exact rational oracle and the values against 40-digit mpmath.
"""

import functools
import itertools
import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

N_MAX_CAP = 10**8

_SUM_RUN = 16384  # n per values_at call and per summation window: bounds a run's scratch
_ROW_TILE = 1024  # rows per matrix-row evaluator call: bounds its scratch, as ad_flow's gathered steps
_SIEVE_SEGMENT = 1 << 19
_COUNT_WORDS = 1 << 13  # code words of 32 n per prefix_counts popcount: bounds its scratch
_LOW_BITS = np.uint64(0x5555555555555555)  # the low bit of each 2-bit code in a word
# cache bytes per pass of load_table's code-3 check.  Under glibc, freeing
# this mapped scratch also raises malloc's mmap and trim thresholds to 1 and
# 2 MiB, so the few hundred KiB of per-run scratch that the sums after a load
# allocate are reused from the heap, not mapped and faulted in again on every
# run: bsz-check at 10^7 from the cache took 34,600 minor page faults with
# 64 KiB chunks and 6,700 with 1 MiB (8,400 when it unpacked an int8 table)
_CHECK_CHUNK = 1 << 20
_WHEEL_PRIME_MAX = 7  # 2, 3, 5, 7: a cofactor pattern of period 44100, 172 KiB of int32

_CACHE_MAGIC = b"NCF2"
_CACHE_HEADER = struct.Struct("<4sQI")  # magic, n_max, crc32 of the payload
CACHE_ENV_VAR = "NCFLOW_CACHE_DIR"


# _UNPACK[b] holds in its four bytes the int8 mu = code - 1 of the four codes
# of byte b, low bits first, so np.take of code bytes viewed as int8 is their mu
_UNPACK = (
    ((np.arange(256)[:, None] >> np.arange(0, 8, 2)) & 3) - 1
).astype(np.int8).view(np.uint32).ravel()
_UNPACK.flags.writeable = False
# the byte of c0 + 4 c1 + 16 c2 + 64 c3 lands in bits 24-31 when the four
# codes c_j < 4, one per byte of a little-endian uint32, are multiplied by it;
# the cross terms either wrap past bit 31 or stay below 2^24
_PACK_SPREAD = (1 << 24) + (1 << 18) + (1 << 12) + (1 << 6)


@dataclass(frozen=True)
class MoebiusTable:
    """mu(n) for 1 <= n <= n_max, in the 2-bit form of the sieve cache.

    codes is the read-only uint8 cache payload: the code mu(n) + 1 of
    n = 4k + 1 .. 4k + 4 in byte k, low bits first.  The slots past n_max
    in the last byte are padding with code 0, which window never returns.
    """

    n_max: int
    codes: np.ndarray

    def window(self, lo: int, hi: int) -> np.ndarray:
        """mu(n) for lo <= n < hi as a new int8 array, unpacked from only the
        code bytes that hold those n.  Scratch is np.take's intp copy of
        those bytes: 2 bytes per n besides the 1 returned."""
        if not 1 <= lo <= hi <= self.n_max + 1:
            raise ValueError(f"window [{lo}, {hi}) is not inside [1, {self.n_max + 1})")
        first = (lo - 1) // 4
        mu = np.take(_UNPACK, self.codes[first : (hi + 2) // 4], mode="clip").view(np.int8)
        skip = lo - 1 - 4 * first
        return mu[skip : skip + hi - lo]


def _pack_codes(mu: np.ndarray, out: np.ndarray) -> None:
    """Pack the int8 mu(n) of 4 len(out) consecutive n, the first n = 1 mod 4,
    into out as code bytes; mu is overwritten.  Slots past n_max take
    mu = -1, the padding code 0."""
    np.add(mu, 1, out=mu)
    words = mu.view("<u4")
    np.multiply(words, _PACK_SPREAD, out=words)
    np.right_shift(words, 24, out=words)
    np.copyto(out, words, casting="unsafe")


def build_table(n_max: int) -> MoebiusTable:
    """Sieve mu(1..n_max) segment by segment with the primes up to sqrt(n_max).

    Each segment of _SIEVE_SEGMENT integers, rounded up to a multiple of 4
    so that it starts at n = 1 mod 4, keeps an int32 cofactor array
    that every small prime p dividing n multiplies by -p, and that is zeroed
    on multiples of p^2.  The small primes up to _WHEEL_PRIME_MAX are applied
    once, to a pattern of one period prod p^2 indexed by n mod the period,
    which each segment copies in; the other small primes are sieved per
    segment, each multiply in place on its strided view, and each p^2 pass
    only where a multiple of p^2 falls in the segment.  The cofactor's sign
    is then mu of the small-prime part of n, and where its absolute value
    falls short of n the remaining cofactor is exactly one prime of at least
    reach = isqrt(n_max) + 1, which flips the sign once more.  So on a
    stretch [a, b) with b <= a reach, n has that prime exactly where
    |cofactor| < a (a zero cofactor has mu 0 either way): every later
    segment is one such stretch and the first at most two, and mu =
    sign(cofactor) (1 - 2 [|cofactor| < a]) in int8, with no array of n.
    Each segment's mu is packed into its whole code bytes of the table as
    it is done.  Scratch is the cofactor array, two int8 segments and the
    pattern, so memory is the (n_max + 3) // 4 code bytes plus 6 bytes per
    segment entry and 172 KiB.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > N_MAX_CAP:
        raise ValueError(f"n_max = {n_max} exceeds hard cap {N_MAX_CAP}")
    root = math.isqrt(n_max)
    reach = root + 1  # every prime factor the small primes miss is at least this
    small = primes_upto(root).tolist()
    wheel = [p for p in small if p <= _WHEEL_PRIME_MAX]
    # the cofactor pattern of the wheel primes, indexed by n mod its period
    period = math.prod(p * p for p in wheel)
    pattern = np.ones(period, dtype=np.int32)
    for p in wheel:
        pattern[::p] *= -p
        pattern[:: p * p] = 0
    # each segment starts at n = 1 mod 4, so it packs into whole code bytes
    step = -(-_SIEVE_SEGMENT // 4) * 4
    size = min(step, -(-n_max // 4) * 4)
    codes = np.empty((n_max + 3) // 4, dtype=np.uint8)
    mu = np.empty(size, dtype=np.int8)
    # |cofactor| divides n <= N_MAX_CAP < 2^31, so int32 cannot overflow.
    cofactor = np.empty(size, dtype=np.int32)
    flip = np.empty(size, dtype=np.int8)
    for lo in range(1, n_max + 1, step):
        hi = min(lo + step, n_max + 1)
        seg, cof = mu[: hi - lo], cofactor[: hi - lo]
        at, start = 0, lo % period
        while at < cof.size:
            part = pattern[start : start + cof.size - at]
            cof[at : at + part.size] = part
            at, start = at + part.size, 0
        for p in small[len(wheel) :]:
            v = cof[-lo % p :: p]
            np.multiply(v, -p, out=v)
            first = -lo % (p * p)
            if first < cof.size:
                cof[first :: p * p] = 0
        np.sign(cof, out=seg, casting="unsafe")
        np.abs(cof, out=cof)
        a = lo
        while a < hi:
            b = min(hi, a * reach)
            # mu = sign(cofactor) * (1 - 2 [|cofactor| < a]), all in int8
            f = flip[a - lo : b - lo]
            np.less(cof[a - lo : b - lo], a, out=f.view(bool))
            np.multiply(f, -2, out=f)
            np.add(f, 1, out=f)
            a = b
        np.multiply(seg, flip[: seg.size], out=seg)
        whole = -(-seg.size // 4) * 4
        mu[seg.size : whole] = -1  # the padding slots past n_max
        _pack_codes(mu[:whole], codes[(lo - 1) // 4 : (lo - 1 + whole) // 4])
    codes.flags.writeable = False
    return MoebiusTable(n_max=n_max, codes=codes)


def primes_upto(n: int) -> np.ndarray:
    """Primes p <= n by the sieve of Eratosthenes, as int64."""
    flags = np.ones(max(n, 1) + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# polynomial phases: exact Horner mod 2^64


@functools.lru_cache(maxsize=256)
def _split_tuple(coeffs: tuple):
    if not coeffs:
        raise ValueError("phase needs at least the constant coefficient")
    if not all(map(math.isfinite, coeffs)):
        raise ValueError("phase coefficients must be finite")
    ms, los = [], []
    for c in coeffs:
        num, den = c.as_integer_ratio()
        top, rest = divmod(num << 64, den)
        ms.append(top % (1 << 64))
        los.append(rest / (den << 64))
    ms = np.array(ms, dtype=np.uint64)
    los = np.array(los) if any(los) else None
    for part in (ms, los):
        if part is not None:
            part.flags.writeable = False  # shared by every call with these coefficients
    return ms, los


def _split(coeffs):
    """Exact split of each coefficient c = M 2^-64 + lo (mod 1).

    M = floor(c 2^64) mod 2^64 as uint64 and lo in [0, 2^-64) as float64,
    computed in Python ints from c.as_integer_ratio(), so lo is exact.  The
    lo come back as None when all of them are zero (the 2^-64 grid).  Both
    arrays are read-only and cached by the coefficient tuple, so a series
    that evaluates one phase run by run splits and checks it once.  Raises
    ValueError for no coefficients or a non-finite one.
    """
    return _split_tuple(tuple(np.asarray(coeffs, dtype=np.float64).ravel().tolist()))


def _horner(coeffs, x) -> np.ndarray:
    """sum_i coeffs[i] x^i in the dtype of x; zero coefficients are not added."""
    out = np.empty(np.broadcast_shapes(x.shape, np.shape(coeffs[-1])), x.dtype)
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        np.multiply(out, x, out=out)
        if np.count_nonzero(c):
            np.add(out, c, out=out)
    return out


def _phase_acc(ms, los, n) -> np.ndarray:
    """The uint64 r with (sum_i (ms[i] 2^-64 + los[i]) n^i) mod 1 = r 2^-64,
    for int64 n.

    The M Horner wraps mod 2^64, one turn, so it is exact; n is viewed as
    uint64 because uint64 * int64 would go to float64.  Unless los is None,
    their float Horner reduced mod 1 is added in units of 2^-64.  A tiny
    negative Horner (negative n) reduces to 1.0 in rounding, and 2^64 is
    0 mod 2^64, so it adds 0: a move below 2^-53 turns.
    """
    acc = _horner(ms, n.view(np.uint64))
    if los is not None:
        low = _horner(los, n.astype(np.float64))
        low -= np.floor(low)
        low[low == 1.0] = 0.0
        acc += (low * 2.0**64).astype(np.uint64)
    return acc


# e(r 2^-64) for the uint64 accumulator r: three tables on its top 36 bits and
# a first-order term on the rest.

_TABLE_BITS = 12
_TABLE_MASK = (1 << _TABLE_BITS) - 1
_LINEAR_MASK = (1 << (64 - 3 * _TABLE_BITS)) - 1  # the low 28 bits: under 2^-36 turns
_LINEAR_SCALE = 2.0 * math.pi * 2.0**-64
_FIX = 128  # fraction bits of the fixed-point top table
_PI_FIX = 0x3243F6A8885A308D313198A2E03707344  # floor(pi 2^128)
_PI_LO = (_PI_FIX - (int(math.pi * 2**51) << 77)) / (1 << _FIX)  # pi - math.pi
# |_turns - e(r 2^-64)| < 3 sqrt(2) + 3 sqrt(5) + 2^-14 ulps of 1, see _turns
TURNS_ERR = 11 * 2.0**-53


def _angle(k, shift):
    """2 pi k 2^-shift for an int array k below 2^13, as xh + dx.

    xh = fl(k h) with h = math.pi 2^(1 - shift).  k times the 26-bit head of
    h's Veltkamp split is exact, so Dekker's product gives k h - xh exactly,
    and k (pi - math.pi) 2^(1 - shift) adds the rest of the angle.
    """
    k = np.asarray(k, dtype=np.float64)
    h = math.ldexp(math.pi, 1 - shift)
    big = 134217729.0 * h
    head = big - (big - h)
    xh = k * h
    dx = ((k * head - xh) + k * (h - head)) + k * math.ldexp(_PI_LO, 1 - shift)
    return xh, dx


def _top_table() -> np.ndarray:
    """e(k / 4096) for k < 4096, each part correctly rounded.

    The first octant in 128-bit fixed point: e(1/4096) from its Taylor
    series, then its powers, each step truncated, so after 512 steps the
    error is below 2^-118 and Python's int division rounds each part once.
    The other seven octants follow by exact swaps and sign changes, so e(k/8)
    has equal parts up to sign and quarter turns are exactly 1, i, -1 and -i.
    """
    one = 1 << _FIX
    x = _PI_FIX >> (_TABLE_BITS - 1)  # 2 pi / 4096
    c, s, term, j = one, 0, one, 0
    while term:
        j += 1
        term = term * x // j >> _FIX  # x^j / j!
        if j % 2:
            s += term if j % 4 == 1 else -term
        else:
            c += term if j % 4 == 0 else -term
    cos, sin = [1.0], [0.0]
    ck, sk = one, 0
    for _ in range((1 << _TABLE_BITS) // 8):
        ck, sk = (ck * c - sk * s) >> _FIX, (sk * c + ck * s) >> _FIX
        cos.append(ck / one)
        sin.append(sk / one)
    # the second octant: e(1/4 - a) = sin(2 pi a) + i cos(2 pi a)
    quarter = np.array(cos + sin[-2:0:-1]) + 1j * np.array(sin + cos[-2:0:-1])
    table = np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])
    table.flags.writeable = False
    return table


def _small_table(shift: int) -> np.ndarray:
    """e(k 2^-shift) for k < 4096, shift >= 24, so every angle x < 2^-9.

    The Taylor terms of cos and sin up to x^7 (the next is below 2^-87),
    summed first and added to 1 and to xh last: each part is one rounding
    from the exact value, up to terms far below an ulp.
    """
    xh, dx = _angle(np.arange(1 << _TABLE_BITS), shift)
    x2 = xh * xh
    re = 1.0 + (x2 * (-0.5 + x2 * (1 / 24 - x2 / 720)) - xh * dx)
    im = xh + (dx + xh * x2 * (-1 / 6 + x2 * (1 / 120 - x2 / 5040)))
    table = re + 1j * im
    table.flags.writeable = False
    return table


@functools.cache
def _tables():
    """(T1, ((shift, T2), (shift, T3))): the top table, indexed by bits 52-63
    of r, and (shift of r, table) for bits 40-51 and 28-39.  Built on first
    use, so a process that evaluates no phase never builds them; threads
    that race here build the same read-only bits, and one result is kept.
    """
    small = tuple((64 - k * _TABLE_BITS, _small_table(k * _TABLE_BITS)) for k in (2, 3))
    return _top_table(), small


def _turns(r) -> np.ndarray:
    """e(r 2^-64) for a 1-D uint64 r, as a new complex array.

    The product T1[r >> 52] T2[r >> 40 & 4095] T3[r >> 28 & 4095] (1 + i x),
    with x = 2 pi 2^-64 (r & (2^28 - 1)) < 2^-33, gathered into per-call
    scratch: indices, a gathered factor, which last holds the linear factor,
    and a partial product.  Each table part is within an ulp, so each entry
    within sqrt(2) 2^-53; each complex product adds below sqrt(5) 2^-53
    (Brent, Percival & Zimmermann 2007); and e(x / 2 pi) - (1 + i x) is below
    x^2 / 2 < 2^-67.  Hence the result is within TURNS_ERR of e(r 2^-64).
    The scratch is as long as r: callers bound r (a run, a row tile,
    bsz_check's M), and concurrent callers share no buffer.

    No product is written over one of its factors: numpy takes an in-place
    product of one element for a reduction and runs its scalar loop, which
    rounds otherwise than the vector loop where that fuses multiply-adds,
    so a value would depend on the length of the array it came in.
    """
    idx = np.empty(r.size, dtype=np.uint64)
    gathered = np.empty(r.size, dtype=np.complex128)
    product = np.empty(r.size, dtype=np.complex128)
    out = np.empty(r.size, dtype=np.complex128)
    at = idx.view(np.intp)
    top, small = _tables()
    np.right_shift(r, 64 - _TABLE_BITS, out=idx)
    np.take(top, at, out=product, mode="clip")
    spare = out
    for shift, table in small:
        np.right_shift(r, shift, out=idx)
        np.bitwise_and(idx, _TABLE_MASK, out=idx)
        np.take(table, at, out=gathered, mode="clip")
        np.multiply(product, gathered, out=spare)
        product, spare = spare, product
    linear = gathered  # its last table factor is in product now
    linear.real = 1.0
    np.bitwise_and(r, _LINEAR_MASK, out=idx)
    # below 2^28, so as intp the same value, which converts to float faster
    np.multiply(at, _LINEAR_SCALE, out=linear.imag)
    np.multiply(product, linear, out=out)  # two swaps left product in the scratch
    return out


def poly_phase_frac(coeffs: Sequence[float], n) -> np.ndarray:
    """Fractional part of sum_i coeffs[i] * n^i for integer n, vectorized
    over the flattened n in one pass."""
    ms, los = _split(coeffs)
    n = np.asarray(n, dtype=np.int64)
    frac = _phase_acc(ms, los, n.reshape(-1)) * 2.0**-64
    frac -= np.floor(frac)
    return frac.reshape(n.shape)[()]  # a numpy scalar for 0-d n, as from a ufunc


def phase_values(coeffs: Sequence[float], n) -> np.ndarray:
    """e(phi(n)) = exp(2 pi i phi(n)) with phi evaluated mod 1.

    e(r 2^-64) of the exact accumulator r, over the flattened n in one
    pass: within TURNS_ERR of e(phi(n)) on the 2^-64 grid, and otherwise
    within TURNS_ERR + 2 pi (2^-53 + 2^-50 sum_i lo_i |n|^i).
    """
    ms, los = _split(coeffs)
    n = np.asarray(n, dtype=np.int64)
    return _turns(_phase_acc(ms, los, n.reshape(-1))).reshape(n.shape)[()]


def characters(angles, ns) -> np.ndarray:
    """The (len(ns), len(angles)) matrix e(angles[k] * ns[i]), in one pass
    over its entries.

    Column k has the same bits as phase_values of the linear phase
    (0, angles[k]) at ns.  The angles are checked as a phase tuple, so
    none, or a non-finite one, raises ValueError.
    """
    ms, los = _split(angles)
    ns = np.asarray(ns, dtype=np.int64)
    low = None if los is None else (0.0, los)
    acc = _phase_acc((0, ms), low, ns[:, None])
    return _turns(acc.reshape(-1)).reshape(acc.shape)


# ---------------------------------------------------------------------------
# Moebius-weighted sums


def by_row_tiles(values_at: Callable, rows: np.ndarray) -> np.ndarray:
    """values_at(rows) as one complex array, for a values_at that maps an
    array to one value per entry along its first axis, evaluated
    _ROW_TILE entries at a time.  An evaluator whose per-entry work is a
    matrix row so holds the scratch of at most one tile, however long the
    run that asks.  values_at never gets a single entry: numpy
    takes a one-row matrix product through gemv or dot, which round
    otherwise than gemm, so a lone entry is evaluated as a pair and a last
    tile of one entry joins the tile before.
    """
    if len(rows) == 1:
        return by_row_tiles(values_at, np.repeat(rows, 2, axis=0))[:1]
    out = np.empty(len(rows), dtype=np.complex128)
    start = 0
    while True:
        stop = start + _ROW_TILE
        if len(rows) - stop < 2:
            stop = len(rows)
        out[start:stop] = values_at(rows[start:stop])
        if stop == len(rows):
            return out
        start = stop


def weighted_average(
    table: MoebiusTable, checkpoints: Iterable[int], values_at: Callable, *, workers: int = 1
) -> list:
    """[((1/N) sum_{n<=N} mu(n) f(n), Q(N))] at each checkpoint N, where
    values_at(ns) is f at an int64 array ns, pointwise, and Q(N) is the
    squarefree count sum_{n<=N} |mu(n)|, exact.

    n = 1..max(checkpoints) is cut at the multiples of _SUM_RUN into runs
    and at each checkpoint into pieces.  values_at is called once per run,
    at its squarefree n only; each piece's sum is one np.add.reduce of its
    slice of the run's mu-weighted values, cut where np.searchsorted puts
    the checkpoints among the squarefree n, and its length counts its
    squarefree n.  Each average is one np.add.reduce of the complex128
    array of piece sums up to its checkpoint, over N, and Q(N) the sum of
    those pieces' lengths.  With workers > 1 threads take whole runs, so
    every values_at call covers the same n at any worker count.
    """
    cps = checked_checkpoints(table.n_max, checkpoints)
    edges = sorted({*range(0, cps[-1], _SUM_RUN), *cps})
    pieces = list(zip(edges, edges[1:]))
    runs = [list(g) for _, g in itertools.groupby(pieces, key=lambda p: p[0] // _SUM_RUN)]

    def run(group):
        start = group[0][0]  # the run is n = start + 1 .. its last edge
        mu = table.window(start + 1, group[-1][1] + 1)
        # from the bool mask, which np.flatnonzero reads faster than the int8 mu
        at = np.flatnonzero(mu != 0)
        vals = values_at(at + (start + 1))  # before the weights: a lower peak
        terms = mu[at].astype(np.float64) * vals  # out of place: values_at may keep vals
        cuts = np.searchsorted(at, [hi - start for _, hi in group[:-1]])
        return [(np.add.reduce(part), part.size) for part in np.split(terms, cuts)]

    workers = min(workers, len(runs), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so a one-worker process never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = [s for part in pool.map(run, runs) for s in part]
    else:
        sums = [s for group in runs for s in run(group)]
    sums, sizes = zip(*sums)
    sums = np.array(sums, dtype=np.complex128)
    counts = list(itertools.accumulate(sizes))
    ends = {hi: k + 1 for k, (_, hi) in enumerate(pieces)}
    return [(complex(np.add.reduce(sums[: ends[N]])) / N, counts[ends[N] - 1]) for N in cps]


def exp_sum(table: MoebiusTable, coeffs: Sequence[float], N: int) -> complex:
    """(1/N) sum_{n<=N} mu(n) e(phi(n)) for the phase phi with ascending
    coefficients coeffs, as one weighted_average of phase_values at N."""
    ((value, _),) = weighted_average(table, [N], lambda ns: phase_values(coeffs, ns))
    return value


def prefix_counts(table: MoebiusTable, checkpoints: Iterable[int]) -> list:
    """[(M(N), Q(N))] at ascending checkpoints, exact: the Mertens sum and
    the squarefree count sum_{n<=N} |mu(n)|.  One pass over the whole
    uint64 words of the codes, 32 n each, up to each N: in each 2-bit slot
    the low bit marks mu = 0 and the high bit mu = 1 (code 3 never occurs,
    and a whole word below N holds no padding), so np.bitwise_count of a
    word and of its low bits counts its mu >= 0 and its mu = 0.  The words
    are counted _COUNT_WORDS at a time and added to running totals, so
    nothing is recounted from n = 1, and only the last N mod 32 n before
    each N are unpacked."""
    cps = checked_checkpoints(table.n_max, checkpoints)
    words = table.codes[: cps[-1] // 32 * 8].view(np.uint64)
    out, marked, zeros, done = [], 0, 0, 0  # over the words before done
    for N in cps:
        whole = N // 32
        for lo in range(done, whole, _COUNT_WORDS):
            part = words[lo : min(lo + _COUNT_WORDS, whole)]
            marked += int(np.add.reduce(np.bitwise_count(part), dtype=np.int64))
            low = np.bitwise_and(part, _LOW_BITS)
            zeros += int(np.add.reduce(np.bitwise_count(low), dtype=np.int64))
        done = whole
        tail = table.window(32 * whole + 1, N + 1)
        # n <= 32 whole hold marked - zeros mu = 1 and 32 whole - marked mu = -1
        m = 2 * marked - zeros - 32 * whole + int(np.add.reduce(tail, dtype=np.int64))
        out.append((m, 32 * whole - zeros + int(np.count_nonzero(tail))))
    return out


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
# n = 1..n_max packed four per byte, low bits first; code 3 never occurs.
# The payload is MoebiusTable.codes byte for byte.


def save_table(table: MoebiusTable, path) -> None:
    """Write the header and the table's codes to a temporary file beside
    path, then rename it over path, so path holds either its old content or
    the whole new file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_HEADER.pack(_CACHE_MAGIC, table.n_max, zlib.crc32(table.codes)))
            fh.write(table.codes)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_table(path) -> MoebiusTable:
    """The table a cache file holds, its payload as the table's codes.

    Refuses, with ValueError naming path, a bad header, a payload of the
    wrong length or checksum, any code 3 (padding slots included), and a
    table that fails the spot check.
    """
    # unbuffered, so the payload is read into one bytes object, not read
    # whole and then joined to what the header read left in the buffer
    with open(path, "rb", buffering=0) as fh:
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
    codes = np.frombuffer(payload, dtype=np.uint8)  # read-only, as the bytes are
    # bit 2k of p & (p >> 1) & 0x55 is set where code k of byte p is 3
    scratch = np.empty(min(_CHECK_CHUNK, codes.size), dtype=np.uint8)
    for at in range(0, codes.size, _CHECK_CHUNK):
        part = codes[at : at + _CHECK_CHUNK]
        both = scratch[: part.size]
        np.right_shift(part, 1, out=both)
        np.bitwise_and(both, part, out=both)
        np.bitwise_and(both, 0x55, out=both)
        if both.any():
            raise ValueError(f"sieve cache {path} holds the unused code 3")
    table = MoebiusTable(n_max=int(n_max), codes=codes)
    _spot_check(table, path)
    return table


def _spot_check(table: MoebiusTable, path) -> None:
    known = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 30: -1}
    mu = table.window(1, min(max(known), table.n_max) + 1)
    for n, v in known.items():
        if n <= table.n_max and mu[n - 1] != v:
            raise ValueError(f"sieve cache {path} failed spot check at n = {n}")


def cache_path(cache_dir, n_max: int) -> str:
    return os.path.join(cache_dir, f"moebius_{n_max}.ncf")


def load_or_build_table(n_max: int) -> MoebiusTable:
    """Build a table, going through the cache directory NCFLOW_CACHE_DIR names, if set.

    A cache file that load_table rejects, or whose header holds another
    n_max than its name, is reported on stderr and rebuilt.
    """
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
