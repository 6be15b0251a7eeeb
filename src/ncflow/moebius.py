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
Every Moebius average, both trace-product paths included, sums through
``blocked_sums``: numpy's pairwise reduction inside blocks of at most
``_SUM_BLOCK`` consecutive indices, also cut at each stop, then a balanced
binary fold of the block sums up to each stop.  The layout depends only on
the index range and the stops, never on the worker count, and the terms
are evaluated one block at a time, so every temporary stays in L2.  Terms
with mu(n) = 0 are exact zeros: ``exp_sum`` and ``flows.average_series``
never evaluate them (about 39% of n; ``at_nonzero``), and since numpy's
add.reduce of a block starts from +0, a zero of either sign leaves every
block sum's bits unchanged.

Phase evaluation
----------------
Polynomial phases ``a_d n^d + ... + a_0`` are evaluated mod 1 at integer n.
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
tables are built on the first evaluation, not at import.  One
kernel does this ``_PHASE_TILE`` elements at a time, and ``characters``
evaluates many linear phases e(theta_k n) in one broadcast.  The tests check
the phase bounds against an exact rational oracle and the values against
40-digit mpmath.
"""

import functools
import math
import os
import struct
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

N_MAX_CAP = 10**8

_SUM_BLOCK = 4096
_PHASE_TILE = 8192  # phase kernel tile: 64 KiB per uint64 or float64 temporary
_SIEVE_SEGMENT = 1 << 19

_CACHE_MAGIC = b"NCF2"
_CACHE_HEADER = struct.Struct("<4sQI")  # magic, n_max, crc32 of the payload
CACHE_ENV_VAR = "NCFLOW_CACHE_DIR"


@dataclass(frozen=True)
class MoebiusTable:
    """mu(n) for 1 <= n <= n_max.

    mu is an int8 array of length n_max + 1 with mu[0] = 0 unused.
    """

    n_max: int
    mu: np.ndarray


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


def linear_phase(theta: float) -> PolynomialPhase:
    return PolynomialPhase((0.0, float(theta)))


def build_table(n_max: int) -> MoebiusTable:
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


def blocked_sums(
    idx: range, terms: Callable, stops: Sequence[int] = (), *, workers: int = 1
) -> list:
    """Blocked pairwise sums of terms over idx, up to each stop and to the end.

    The positions of idx are cut into consecutive _SUM_BLOCK runs and at each
    stop (a count of leading positions).  terms(r) maps each block, a
    sub-range r of idx, to a 1-D contiguous array.  Returns fold_pairwise of
    the block sums up to each stop and then up to len(idx), 0j for none.
    With workers > 1 each thread sums one contiguous run of blocks.
    """
    size = len(idx)
    if any(not 0 <= s <= size for s in stops):
        raise ValueError(f"stops must lie in [0, {size}]")
    edges = sorted({*range(0, size, _SUM_BLOCK), *stops, size})
    blocks = list(zip(edges, edges[1:]))

    def run(part):
        return [np.add.reduce(terms(idx[lo:hi])) for lo, hi in part]

    workers = min(workers, len(blocks), os.cpu_count() or 1)
    if workers > 1:
        cuts = [len(blocks) * i // workers for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(run, [blocks[a:b] for a, b in zip(cuts, cuts[1:])])
            sums = [s for part in parts for s in part]
    else:
        sums = run(blocks)
    ends = {0: 0, **{hi: k + 1 for k, (_, hi) in enumerate(blocks)}}
    counts = [ends[s] for s in (*stops, size)]
    folds = {k: fold_pairwise(sums[:k]) if k else 0j for k in set(counts)}
    return [folds[k] for k in counts]


def tree_sum(values: np.ndarray):
    """Sum a whole 1-D array with the fixed blocked pairwise scheme; the
    oracle that the tests hold blocked_sums to."""
    values = np.asarray(values)
    if values.size == 0:
        return values.dtype.type(0)
    return fold_pairwise(
        [np.add.reduce(values[i : i + _SUM_BLOCK]) for i in range(0, values.size, _SUM_BLOCK)]
    )


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


@functools.lru_cache(maxsize=256)
def _split_tuple(coeffs: tuple):
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
    that evaluates one phase block by block splits it once.
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


def _scratch(size: int):
    """Per-call scratch for _turns: indices, a gathered factor, a partial
    product, and the linear factor, whose real part stays 1."""
    return (
        np.empty(size, dtype=np.uint64),
        np.empty(size, dtype=np.complex128),
        np.empty(size, dtype=np.complex128),
        np.ones(size, dtype=np.complex128),
    )


def _turns(r, out, scratch) -> None:
    """out[...] = e(r 2^-64) for a 1-D uint64 r no longer than the scratch.

    The product T1[r >> 52] T2[r >> 40 & 4095] T3[r >> 28 & 4095] (1 + i x),
    with x = 2 pi 2^-64 (r & (2^28 - 1)) < 2^-33, gathered into the scratch.
    Each table part is within an ulp, so each entry within sqrt(2) 2^-53;
    each complex product adds below sqrt(5) 2^-53 (Brent, Percival &
    Zimmermann 2007); and e(x / 2 pi) - (1 + i x) is below x^2 / 2 < 2^-67.
    Hence |out - e(r 2^-64)| < TURNS_ERR.

    No product is written over one of its factors: numpy takes an in-place
    product of one element for a reduction and runs its scalar loop, which
    rounds otherwise than the vector loop where that fuses multiply-adds,
    so a value would depend on the length of the array it came in.
    """
    idx, gathered, product, linear = (a[: r.size] for a in scratch)
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
    np.bitwise_and(r, _LINEAR_MASK, out=idx)
    np.multiply(idx, _LINEAR_SCALE, out=linear.imag)
    np.multiply(product, linear, out=out)  # two swaps left product in the scratch


def _tiled_turns(shape, acc_of) -> np.ndarray:
    """A new complex array of the given shape holding e(r 2^-64), filled
    _PHASE_TILE elements at a time; acc_of(tile) is the uint64 accumulator r
    of the flat slice tile.  The scratch is allocated per call, so
    concurrent callers share no buffer."""
    out = np.empty(shape, dtype=np.complex128)
    flat = out.reshape(-1)
    scratch = _scratch(min(flat.size, _PHASE_TILE))
    for start in range(0, flat.size, _PHASE_TILE):
        tile = slice(start, start + _PHASE_TILE)
        _turns(acc_of(tile), flat[tile], scratch)
    return out


def poly_phase_frac(coeffs: Sequence[float], n) -> np.ndarray:
    """Fractional part of sum_i coeffs[i] * n^i for integer n, vectorized,
    _PHASE_TILE elements at a time."""
    ms, los = _split(coeffs)
    n = np.asarray(n, dtype=np.int64)
    out = np.empty(n.shape)
    flat, flat_n = out.reshape(-1), n.reshape(-1)
    for start in range(0, flat.size, _PHASE_TILE):
        tile = slice(start, start + _PHASE_TILE)
        frac = _phase_acc(ms, los, flat_n[tile]) * 2.0**-64
        frac -= np.floor(frac)
        flat[tile] = frac
    return out[()]  # a numpy scalar for 0-d n, as from a ufunc


def phase_values(coeffs: Sequence[float], n) -> np.ndarray:
    """e(phi(n)) = exp(2 pi i phi(n)) with phi evaluated mod 1.

    e(r 2^-64) of the exact accumulator r, _PHASE_TILE elements at a time:
    within TURNS_ERR of e(phi(n)) on the 2^-64 grid, and otherwise within
    TURNS_ERR + 2 pi (2^-53 + 2^-50 sum_i lo_i |n|^i).
    """
    ms, los = _split(coeffs)
    n = np.asarray(n, dtype=np.int64)
    flat_n = n.reshape(-1)
    return _tiled_turns(n.shape, lambda tile: _phase_acc(ms, los, flat_n[tile]))[()]


def characters(angles, ns) -> np.ndarray:
    """The (len(ns), len(angles)) matrix e(angles[k] * ns[i]).

    Column k has the same bits as phase_values of the linear phase
    (0, angles[k]) at ns.
    """
    ms, los = _split(angles)
    ns = np.asarray(ns, dtype=np.int64)
    low = None if los is None else (0.0, los)
    acc = _phase_acc((0, ms), low, ns[:, None])
    flat_acc = acc.reshape(-1)
    return _tiled_turns(acc.shape, lambda tile: flat_acc[tile])


# ---------------------------------------------------------------------------
# Moebius-weighted sums


def _restricted_range(N: int, modulus: int, residue: int) -> range:
    start = residue if residue >= 1 else modulus
    return range(start, N + 1, modulus)


def _check_N(table: MoebiusTable, N: int) -> None:
    if not 1 <= N <= table.n_max:
        raise ValueError(f"N must lie in [1, {table.n_max}], got {N}")


def at_nonzero(weights: np.ndarray, values_at: Callable) -> np.ndarray:
    """A complex array shaped like weights: values_at(at) at the positions
    at = np.flatnonzero(weights), exact zeros elsewhere.

    With the Moebius values of a block as weights, its terms are evaluated
    only at the squarefree n, and np.add.reduce sees the same nonzero terms
    at the same positions as for the full term array.
    """
    at = np.flatnonzero(weights)
    out = np.zeros(weights.shape, dtype=np.complex128)
    out[at] = values_at(at)
    return out


def exp_sum(table: MoebiusTable, phase: PolynomialPhase, N: int) -> complex:
    """(1/N) * sum over n <= N, n = residue (mod modulus), of mu(n) e(phi(n)).

    Each block evaluates phases only at its squarefree n (at_nonzero) and
    leaves the mu(n) = 0 terms as zeros in place.
    """
    _check_N(table, N)

    def terms(r):
        mu = table.mu[r.start : r.stop : r.step]
        return at_nonzero(
            mu,
            lambda at: mu[at].astype(np.float64)
            * phase_values(phase.coeffs, at * r.step + r.start),
        )

    idx = _restricted_range(N, phase.modulus, phase.residue)
    return complex(blocked_sums(idx, terms)[0]) / N


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
# n = 1..n_max packed four per byte, low bits first; code 3 never occurs.


def save_table(table: MoebiusTable, path) -> None:
    """Write the table to a temporary file beside path, then rename it over
    path, so path holds either its old content or the whole new file."""
    n_max = table.n_max
    payload = np.zeros((n_max + 3) // 4, dtype=np.uint8)
    lane = np.empty_like(payload)
    for k in range(4):
        # mu + 1 in uint8 arithmetic: the int8 -1 reads as 255 and wraps to 0
        col = table.mu.view(np.uint8)[1 + k :: 4]
        part = lane[: col.size]
        np.add(col, 1, out=part)
        np.left_shift(part, 2 * k, out=part)
        payload[: col.size] |= part
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
    lane = np.empty_like(packed)
    mu = np.zeros(n_max + 1, dtype=np.int8)
    for k in range(4):
        np.right_shift(packed, 2 * k, out=lane)
        np.bitwise_and(lane, 3, out=lane)
        if lane.max(initial=0) == 3:
            raise ValueError(f"sieve cache {path} holds the unused code 3")
        # code - 1 in uint8 arithmetic: code 0 wraps to 255, the int8 -1
        dest = mu.view(np.uint8)[1 + k :: 4]
        np.subtract(lane[: dest.size], 1, out=dest)
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
