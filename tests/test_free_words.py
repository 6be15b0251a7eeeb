from fractions import Fraction

import numpy as np
import pytest

from ncflow.flows import average_series, geometric_checkpoints
from ncflow.free_words import (
    GroupElementSum,
    NonCrossingPartition,
    ReducedWord,
    arcsine_moments,
    arcsine_sum_moment_by_words,
    bkn_moment_norm,
    catalan,
    cumulants_to_moments,
    free_clt_moments,
    free_shift_flow,
    moments_to_cumulants,
    nc_partitions,
    semicircle_moments,
)
from ncflow.moebius import build_table, mertens


def random_word(rng, n_gens=3, n_syllables=6):
    pairs = [
        (int(rng.integers(0, n_gens)), int(rng.integers(-3, 4)))
        for _ in range(n_syllables)
    ]
    return ReducedWord.from_syllables(pairs)


def random_sum(rng, n_terms=4):
    total = GroupElementSum()
    for _ in range(n_terms):
        coeff = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        total = total + GroupElementSum.from_word(random_word(rng), coeff)
    return total


def test_word_construction_and_reduction():
    e = ReducedWord.identity()
    assert e.is_identity and e.length == 0
    a = ReducedWord.generator(0)
    assert a.syllables == ((0, 1),)
    assert ReducedWord.from_syllables([(0, 1), (0, -1)]).is_identity
    assert ReducedWord.from_syllables([(0, 2), (0, -1)]).syllables == ((0, 1),)
    assert ReducedWord.from_syllables([(1, 0), (2, 3)]).syllables == ((2, 3),)
    # cascading cancellation across several syllables
    w = ReducedWord.from_syllables([(0, 1), (1, 2), (1, -2), (0, -1), (2, 1)])
    assert w.syllables == ((2, 1),)


@pytest.mark.parametrize("seed", range(12))
def test_reduction_is_confluent(seed):
    rng = np.random.default_rng(seed)
    pairs = [(int(rng.integers(0, 3)), int(rng.integers(-2, 3))) for _ in range(10)]
    direct = ReducedWord.from_syllables(pairs)
    left = ReducedWord.identity()
    for idx, power in pairs:
        left = left * ReducedWord.from_syllables([(idx, power)])
    right = ReducedWord.identity()
    for idx, power in reversed(pairs):
        right = ReducedWord.from_syllables([(idx, power)]) * right
    assert direct == left == right


def test_inverse_is_an_antihomomorphism():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w, v = random_word(rng), random_word(rng)
        assert (w * v).inverse() == v.inverse() * w.inverse()
        assert (w * w.inverse()).is_identity
        assert w.inverse().inverse() == w


def test_shift_and_spread():
    w = ReducedWord.from_syllables([(0, 1), (3, -2)])
    assert w.spread() == 3
    shifted = w.shift(5)
    assert shifted.syllables == ((5, 1), (8, -2))
    # spread measures the largest |index| used, so shifting widens it
    assert shifted.spread() == 8
    assert ReducedWord.from_syllables([(-2, 1), (1, 1)]).spread() == 2
    assert ReducedWord.generator(0, 7).spread() == 0
    assert ReducedWord.identity().shift(2).is_identity


def test_trace_picks_out_identity():
    a = GroupElementSum.from_word(ReducedWord.generator(0), Fraction(3, 2))
    assert a.trace() == 0
    e = GroupElementSum.from_word(ReducedWord.identity(), Fraction(3, 2))
    assert e.trace() == Fraction(3, 2)
    assert (a + e).trace() == Fraction(3, 2)


@pytest.mark.parametrize("seed", range(8))
def test_trace_is_tracial(seed):
    rng = np.random.default_rng(seed)
    x, y = random_sum(rng), random_sum(rng)
    assert (x * y).trace() == (y * x).trace()


def test_adjoint_positivity_is_exact():
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = random_sum(rng)
        val = (x.adjoint() * x).trace()
        assert isinstance(val, Fraction) or isinstance(val, int)
        assert val >= 0
    # the trace of x*x is the sum of squared coefficients after reduction
    gen = GroupElementSum.from_word(ReducedWord.generator(1), Fraction(2, 3))
    assert (gen.adjoint() * gen).trace() == Fraction(4, 9)


def test_power_matches_repeated_product():
    rng = np.random.default_rng(23)
    x = random_sum(rng)
    assert x.power(3).trace() == (x * x * x).trace()
    assert x.power(0).trace() == 1
    assert x.power(1).trace() == x.trace()


def test_haar_generator_moments_are_central_binomials():
    # u + u^-1 has trace moments C(2k, k): 2, 6, 20 for 2k = 2, 4, 6
    u = ReducedWord.generator(0)
    x = GroupElementSum.from_word(u) + GroupElementSum.from_word(u.inverse())
    assert x.power(2).trace() == 2
    assert x.power(4).trace() == 6
    assert x.power(6).trace() == 20
    assert x.power(5).trace() == 0


def test_group_sum_shift_preserves_trace():
    rng = np.random.default_rng(31)
    x = random_sum(rng)
    assert x.shift(4).trace() == x.trace()
    assert (x.shift(4) * x.shift(4)).trace() == (x * x).trace()


@pytest.mark.parametrize("n", range(1, 11))
def test_noncrossing_counts_are_catalan(n):
    parts = list(nc_partitions(n))
    assert len(parts) == catalan(n)
    assert all(p.is_noncrossing() for p in parts)
    covered = [sorted(i for block in p.blocks for i in block) for p in parts]
    assert all(c == list(range(1, n + 1)) for c in covered)


def test_noncrossing_enumeration_guards():
    assert not NonCrossingPartition(((1, 3), (2, 4))).is_noncrossing()
    with pytest.raises(ValueError, match="cap"):
        nc_partitions(15)


def test_cumulant_round_trip_exact():
    moments = arcsine_moments(6)
    table = moments_to_cumulants(moments)
    assert table.kappa[:4] == (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(-1, 8))
    assert cumulants_to_moments(table.kappa).moments == moments
    rng = np.random.default_rng(2)
    raw = tuple(Fraction(int(rng.integers(-9, 10)), 4) for _ in range(8))
    assert moments_to_cumulants(cumulants_to_moments(raw).moments).kappa == raw


def test_cumulant_round_trip_floats():
    table = moments_to_cumulants([0.0, 0.5, 0.0, 0.375])
    assert np.allclose(table.kappa, [0.0, 0.5, 0.0, -0.125], atol=1e-12)
    back = cumulants_to_moments(table.kappa).moments
    assert np.allclose(back, [0.0, 0.5, 0.0, 0.375], atol=1e-12)


def test_semicircle_is_free_cumulant_delta():
    # variance v semicircle law: only the second free cumulant survives
    moments = semicircle_moments(8, Fraction(1, 2))
    kappa = moments_to_cumulants(moments).kappa
    assert kappa == (0, Fraction(1, 2), 0, 0, 0, 0, 0, 0)
    assert moments[3] == 2 * Fraction(1, 2) ** 2  # catalan(2) * v^2


def test_arcsine_moment_values():
    assert arcsine_moments(6) == (
        Fraction(0),
        Fraction(1, 2),
        Fraction(0),
        Fraction(3, 8),
        Fraction(0),
        Fraction(5, 16),
    )


@pytest.mark.parametrize("q", [2, 10, 100])
def test_clt_fourth_moment_formula(q):
    moments = free_clt_moments(q, 4)
    assert moments[1] == Fraction(1, 2)
    assert moments[3] == Fraction(4 * q - 1, 8 * q)
    assert moments[0] == 0 and moments[2] == 0


def test_clt_interpolates_arcsine_to_semicircle():
    assert free_clt_moments(1, 8) == arcsine_moments(8)
    semi = semicircle_moments(8, Fraction(1, 2))
    prev_gap = None
    for q in (2, 4, 8, 16):
        gap = semi[3] - free_clt_moments(q, 4)[3]
        assert gap > 0
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap


@pytest.mark.parametrize("p", [2, 4, 6])
def test_word_enumeration_oracle_matches_cumulants(p):
    # two independent routes to the same moment of a sum of two generators
    assert arcsine_sum_moment_by_words(2, p) == free_clt_moments(2, p)[p - 1]


def test_word_enumeration_oracle_value():
    assert arcsine_sum_moment_by_words(2, 4) == Fraction(7, 16)


def test_block_sum_report_hand_value():
    report = bkn_moment_norm(2, ReducedWord.generator(0), 2, 4, coeffs=[1, -1])
    assert report.raw_trace == 6
    assert report.normalized_moment == Fraction(3, 8)
    assert report.step == 5  # blocks spaced 2l + 1 apart stay disjoint
    assert report.coefficients == (1, -1)
    assert report.estimate == pytest.approx(float(Fraction(3, 8)) ** 0.25)


def test_block_sum_trivial_case():
    report = bkn_moment_norm(1, ReducedWord.generator(0), 1, 4, coeffs=[1])
    assert report.raw_trace == 1
    assert report.estimate == 1.0


def test_block_sum_estimate_decays_with_block_count(table_10k):
    estimates = [
        bkn_moment_norm(1, ReducedWord.generator(0), q, 4, table=table_10k).estimate
        for q in (2, 4, 8)
    ]
    assert estimates[0] > estimates[1] > estimates[2]


def test_block_sum_validation(table_10k):
    wide = ReducedWord.from_syllables([(0, 1), (3, 1)])
    with pytest.raises(ValueError, match="spread"):
        bkn_moment_norm(2, wide, 2, 4, coeffs=[1, -1])
    with pytest.raises(ValueError, match="even"):
        bkn_moment_norm(3, ReducedWord.generator(0), 2, 3, table=table_10k)
    with pytest.raises(ValueError, match="budget"):
        bkn_moment_norm(1, ReducedWord.generator(0), 2, 12, budget=10, table=table_10k)
    with pytest.raises(ValueError, match="coeffs or a Moebius table"):
        bkn_moment_norm(1, ReducedWord.generator(0), 2, 4)


def test_free_shift_flow_vanishes_identically(table_10k):
    flow = free_shift_flow(ReducedWord.generator(0, 2), ReducedWord.generator(1))
    assert all(flow.evaluator(n) == 0j for n in range(1, 30))
    series = average_series(flow, table_10k, geometric_checkpoints(10**4))
    assert all(v == 0 for v in series.values)


@pytest.mark.parametrize(
    "w, v",
    [
        (ReducedWord.identity(), ReducedWord.generator(1)),
        (ReducedWord.generator(0, 2), ReducedWord.generator(1)),
        (
            ReducedWord.from_syllables([(-1, 1), (0, -2), (3, 1)]),
            ReducedWord.from_syllables([(3, -1), (0, 2)]),
        ),
    ],
)
def test_free_shift_flow_closed_form_matches_word_reduction(w, v):
    # oracle: reduce v^-1 alpha^n(w) v as a word and read off the trace
    flow = free_shift_flow(w, v)
    got = flow.values(0, 50)
    for n in range(1, 51):
        g = GroupElementSum.from_word(v.inverse() * w.shift(n) * v)
        assert got[n - 1] == g.trace()


def test_free_shift_flow_identity_word_recovers_mertens(table_10k):
    flow = free_shift_flow(ReducedWord.identity(), ReducedWord.generator(1))
    series = average_series(flow, table_10k, [10, 1000])
    assert series.values[0] == mertens(table_10k, 10) / 10
    assert series.values[1] == pytest.approx(mertens(table_10k, 1000) / 1000)
