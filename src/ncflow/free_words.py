"""Free moment-cumulant transforms and the free central limit moments.

The moment-cumulant transforms use the recursion that groups NC(n) by the
block of 1, one power series convolution per block size, so their cost is
polynomial in the order; the tests check it against an enumeration of
NC(n).  Everything here is exact (ints / fractions).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

NC_ORDER_CAP = 14  # bounds the transforms' order, which can come from the CLI


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class CumulantTable:
    """Aligned free cumulants and moments, orders 1..n."""

    kappa: tuple
    moments: tuple


def _multi_block_sum(kappa: Sequence, moments: Sequence, n: int):
    """Sum over pi in NC(n) with at least two blocks of prod_V kappa_{|V|}.

    Let V be the block of 1 and s = |V|.  The other n - s points fall into
    the s gaps that follow the elements of V, and a non-crossing pi splits
    into one partition per gap, so the gaps contribute m_{i_1}...m_{i_s}
    summed over i_1 + ... + i_s = n - s.  That is [z^{n-s}] M(z)^s with
    M(z) = 1 + sum_i m_i z^i (Nica & Speicher, Lectures on the Combinatorics
    of Free Probability, 2006), and s = n is the one-block partition left
    out.  Only kappa_1..kappa_{n-1} and m_1..m_{n-1} are read.
    """
    series = (1, *moments[: n - 1])
    power = [1] + [0] * (n - 1)  # M(z)^0, truncated at z^(n-1)
    total = 0
    for s in range(1, n):
        power = [
            sum(power[j] * series[i - j] for j in range(i + 1))
            for i in range(n - s + 1)
        ]
        total += kappa[s - 1] * power[n - s]
    return total


def cumulants_to_moments(kappa: Sequence) -> CumulantTable:
    """m_n = sum over pi in NC(n) of prod over blocks of kappa_{|V|}, order by
    order: kappa_n for the one-block partition plus _multi_block_sum."""
    kappa = tuple(kappa)
    if not 1 <= len(kappa) <= NC_ORDER_CAP:
        raise ValueError(f"order must lie in [1, {NC_ORDER_CAP}]")
    moments = []
    for n in range(1, len(kappa) + 1):
        moments.append(kappa[n - 1] + _multi_block_sum(kappa, moments, n))
    return CumulantTable(kappa=kappa, moments=tuple(moments))


def moments_to_cumulants(moments: Sequence) -> CumulantTable:
    """Invert the moment formula order by order: kappa_n is m_n less the
    partitions with at least two blocks."""
    moments = tuple(moments)
    if not 1 <= len(moments) <= NC_ORDER_CAP:
        raise ValueError(f"order must lie in [1, {NC_ORDER_CAP}]")
    kappa = []
    for n in range(1, len(moments) + 1):
        kappa.append(moments[n - 1] - _multi_block_sum(kappa, moments, n))
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


def semicircle_moments(p_max: int) -> tuple:
    """Semicircle moments at variance 1/2: m_{2k} = Catalan_k / 2^k, odd moments 0."""
    return tuple(
        catalan(p // 2) * Fraction(1, 2) ** (p // 2) if p % 2 == 0 else Fraction(0)
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
