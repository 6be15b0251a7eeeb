import math
import os
import subprocess
import sys
import tracemalloc
import zlib
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncflow import moebius
from ncflow.flows import Flow, average_series
from ncflow.moebius import (
    N_MAX_CAP,
    PolynomialPhase,
    blocked_sums,
    build_table,
    cache_path,
    characters,
    exp_sum,
    fold_pairwise,
    linear_phase,
    load_or_build_table,
    load_table,
    mertens,
    mertens_series,
    phase_values,
    poly_phase_frac,
    save_table,
    squarefree_count,
    squarefree_density,
    tree_sum,
)


def mu_trial(n: int) -> int:
    """Trial-division oracle, independent of the sieve."""
    if n == 1:
        return 1
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        else:
            d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def test_sieve_matches_trial_division(table_1m):
    for n in range(1, 3000):
        assert int(table_1m.mu[n]) == mu_trial(n), n


def test_sieve_matches_trial_division_on_random_sample(table_1m):
    rng = np.random.default_rng(11)
    for n in rng.integers(1, table_1m.n_max + 1, size=2000).tolist():
        assert int(table_1m.mu[n]) == mu_trial(n), n


def test_sieve_matches_trial_division_at_segment_boundaries(table_1m):
    seg = moebius._SIEVE_SEGMENT
    boundaries = list(range(1 + seg, table_1m.n_max + 1, seg)) + [table_1m.n_max]
    assert len(boundaries) >= 2
    for b in boundaries:
        for n in range(max(1, b - 50), min(table_1m.n_max, b + 50) + 1):
            assert int(table_1m.mu[n]) == mu_trial(n), n


def test_sieve_with_short_segments_matches_trial_division(monkeypatch):
    # segments of 97 put primes, prime squares and products p * q with
    # q > sqrt(n_max) on both sides of many segment boundaries
    monkeypatch.setattr(moebius, "_SIEVE_SEGMENT", 97)
    for n_max in range(1, 301):
        mu = build_table(n_max).mu
        assert mu[0] == 0
        assert mu[1:].tolist() == [mu_trial(n) for n in range(1, n_max + 1)], n_max


def test_sieve_memory_is_the_table_plus_one_segment():
    n_max = 8 * 10**6
    tracemalloc.start()
    try:
        build_table(n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n_max + 1 + 12 * moebius._SIEVE_SEGMENT, peak


def test_sieve_multiplicative_on_coprime_pairs(table_1m):
    rng = np.random.default_rng(1)
    a = rng.integers(1, 1000, size=5000)
    b = rng.integers(1, 1000, size=5000)
    keep = np.gcd(a, b) == 1
    a, b = a[keep], b[keep]
    mu = table_1m.mu
    assert np.array_equal(mu[a * b], mu[a] * mu[b])


def test_sieve_known_prefix(table_1m):
    # mu(1..10) = 1,-1,-1,0,-1,1,-1,0,0,1
    assert list(table_1m.mu[1:11]) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert table_1m.mu[0] == 0
    primes = moebius.primes_upto(table_1m.n_max)
    assert primes[0] == 2 and primes[-1] <= 10**6


def test_build_table_validates_range():
    with pytest.raises(ValueError):
        build_table(0)
    with pytest.raises(ValueError):
        build_table(10**9)


def test_mertens_values(table_1m):
    assert mertens(table_1m, 1) == 1
    assert mertens(table_1m, 10) == -1
    assert mertens(table_1m, 10**6) == 212
    series = mertens_series(table_1m, [10, 100, 10**6])
    assert series[0] == (10, -0.1)
    assert series[-1] == (10**6, 212 / 10**6)


def test_squarefree_counts(table_1m):
    assert squarefree_count(table_1m, 10) == 7  # 1,2,3,5,6,7,10
    assert squarefree_count(table_1m, 10**6) == 607926
    assert abs(squarefree_density(table_1m, 10**6) - 6 / math.pi**2) < 5e-4


def test_polynomial_phase_validation():
    with pytest.raises(ValueError):
        PolynomialPhase(())
    with pytest.raises(ValueError):
        PolynomialPhase((0.0, 1.0), modulus=0)
    with pytest.raises(ValueError):
        PolynomialPhase((0.0, 1.0), modulus=3, residue=3)
    assert linear_phase(0.25).degree == 1


def _frac_error(coeffs, n, got) -> float:
    """Distance mod 1 between got and the exact rational phase at n."""
    exact = sum(Fraction(c) * n**k for k, c in enumerate(coeffs)) % 1
    err = abs(Fraction(float(got)) - exact)
    return float(min(err, 1 - err))


def test_poly_phase_frac_matches_fraction_oracle():
    # coefficients on the 2^-53 grid, as random.random() draws them, are
    # evaluated within 1e-12 at every n up to the cap
    rng = np.random.default_rng(0)
    for deg in range(1, 5):
        for _ in range(10):
            coeffs = [float(rng.random()) for _ in range(deg + 1)]
            ns = [1, N_MAX_CAP] + [int(10 ** rng.uniform(k, k + 1)) for k in range(8)]
            got = poly_phase_frac(coeffs, np.array(ns))
            for n, g in zip(ns, got):
                assert _frac_error(coeffs, n, g) < 1e-12, (deg, coeffs, n)


def _off_grid_bound(coeffs, n) -> float:
    """0 when every coefficient lies on the 2^-64 grid, else
    2^-53 + 2^-50 sum_i lo_i |n|^i with lo_i = c_i mod 2^-64."""
    los = [Fraction(c) % Fraction(1, 2**64) for c in coeffs]
    if not any(los):
        return 0.0
    off_grid = sum(lo * abs(n) ** i for i, lo in enumerate(los))
    return 2.0**-53 + 2.0**-50 * float(off_grid)


def _model_bound(coeffs, n) -> float:
    """The documented error bound of poly_phase_frac: 2^-54 on the grid."""
    return _off_grid_bound(coeffs, n) or 2.0**-54


def _value_error(coeffs, n, got) -> float:
    """|got - e(phi(n))| for the exact rational phase, in 40-digit mpmath."""
    frac = sum(Fraction(c) * n**k for k, c in enumerate(coeffs)) % 1
    with mpmath.workdps(40):
        turns = mpmath.mpf(frac.numerator) / frac.denominator
        exact = mpmath.mpc(mpmath.cospi(2 * turns), mpmath.sinpi(2 * turns))
        return float(abs(mpmath.mpc(complex(got)) - exact))


def _value_bound(coeffs, n) -> float:
    """The documented bound of phase_values: TURNS_ERR on the 2^-64 grid,
    plus 2 pi times the off-grid phase bound."""
    return moebius.TURNS_ERR + 2 * math.pi * _off_grid_bound(coeffs, n)


def test_poly_phase_frac_error_model_for_general_coefficients():
    # signs +-, scales 2^-0 .. 2^-39, degrees 1 - 4 and |n| up to the cap:
    # both branches of the documented model hold against the exact oracle
    rng = np.random.default_rng(1)
    on_grid = off_grid = 0
    for deg in range(1, 5):
        for _ in range(25):
            scales = 2.0 ** -rng.integers(0, 40, size=deg + 1)
            signs = rng.choice([-1.0, 1.0], size=deg + 1)
            coeffs = [float(c) for c in rng.random(deg + 1) * scales * signs]
            ns = [1, N_MAX_CAP, -N_MAX_CAP] + [
                int(10 ** rng.uniform(k, k + 1)) for k in range(8)
            ]
            got = poly_phase_frac(coeffs, np.array(ns))
            for n, g in zip(ns, got):
                bound = _model_bound(coeffs, n)
                assert 0.0 <= g < 1.0
                assert _frac_error(coeffs, n, g) <= bound, (deg, coeffs, n)
                on_grid += bound == 2.0**-54
                off_grid += bound != 2.0**-54
    assert on_grid and off_grid


@pytest.mark.parametrize(
    "coeffs, n",
    [((0.0, -0.3), 99_999_989), ((0.0, 0.0, -1e-7), 10**8), ((0.0, 1.0 / 3.0), 3)],
)
def test_poly_phase_frac_reduces_negative_and_rounding_coefficients_exactly(coeffs, n):
    got = poly_phase_frac(coeffs, n)
    assert 0.0 <= got < 1.0
    assert _frac_error(coeffs, n, got) <= _model_bound(coeffs, n)


def test_poly_phase_frac_vectorized_agrees_with_scalar():
    coeffs = (0.1, 0.37, 0.0051)
    ns = np.arange(1, 200)
    vec = poly_phase_frac(coeffs, ns)
    scal = np.array([float(poly_phase_frac(coeffs, int(n))) for n in ns])
    assert np.array_equal(vec, scal)


def test_phase_values_unit_modulus():
    vals = phase_values((0.0, 0.31), np.arange(1, 50))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-15


# The phase kernel as whole-array expressions, the form it had before it was
# tiled and run in place; the kernel must reproduce it bit for bit.
_SPLITTER = 134217729.0


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _fast_two_sum(a, b):
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
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def expression_phase_frac(coeffs, n):
    n = np.asarray(n, dtype=np.float64)
    red = [float(c) - math.floor(float(c)) for c in coeffs]
    hi = np.full(n.shape, red[-1], dtype=np.float64)
    lo = np.zeros(n.shape, dtype=np.float64)
    for a in reversed(red[:-1]):
        ph, pl = _two_prod(hi, n)
        pl = pl + lo * n
        sh, se = _two_sum(ph, a)
        hi, lo = _fast_two_sum(sh, se + pl)
        hi = hi - np.floor(hi)
    out = hi + lo
    return out - np.floor(out)


def _same_bits(got, want):
    return (
        type(got) is type(want)
        and np.shape(got) == np.shape(want)
        and np.array_equal(
            np.atleast_1d(got).view(np.uint64), np.atleast_1d(want).view(np.uint64)
        )
    )


@pytest.mark.parametrize("degree", range(6))
def test_phase_kernel_is_bit_identical_to_the_expression_form(degree):
    rng = np.random.default_rng(degree)
    coeffs = [float(c) for c in rng.random(degree + 1) * 7.0 - 3.0]
    tile = moebius._PHASE_TILE
    inputs = [np.array(987654), 987654, np.arange(1, 61).reshape(6, 10)]
    inputs += [np.arange(0), np.zeros((3, 0))]
    for m in (tile - 1, tile, tile + 1, 3 * tile + 7):
        inputs.append(rng.integers(1, N_MAX_CAP + 1, size=m))
    for n in inputs:
        want = expression_phase_frac(coeffs, n)
        assert _same_bits(poly_phase_frac(coeffs, n), want), np.shape(n)
        _assert_values_within_bound(coeffs, n, phase_values(coeffs, n))


_TILE = moebius._PHASE_TILE


def _assert_values_within_bound(coeffs, n, got):
    """got has phase_values' type and shape for n, and lies within the
    documented bound of the exact e(phi(n)) at every n of a small input, and
    at both ends, both sides of each tile edge and a sample of a large one."""
    want_type = np.complex128 if np.ndim(n) == 0 else np.ndarray
    assert type(got) is want_type and np.shape(got) == np.shape(n)
    flat_n, flat = np.reshape(n, -1), np.reshape(got, -1)
    if flat.size <= 64:
        at = range(flat.size)
    else:
        edges = range(_TILE, flat.size, _TILE)
        sample = np.random.default_rng(flat.size).integers(0, flat.size, 32).tolist()
        at = {0, flat.size - 1, *edges, *(e - 1 for e in edges), *sample}
    for i in at:
        m = int(flat_n[i])
        assert _value_error(coeffs, m, flat[i]) <= _value_bound(coeffs, m), (coeffs, m)


_GRID_COEFFS = st.lists(
    st.integers(-(2**66), 2**66).map(lambda k: k * 2.0**-64), min_size=1, max_size=5
)
_ANY_COEFFS = st.lists(
    st.floats(-4.0, 4.0) | st.floats(-(2.0**-30), 2.0**-30), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=_GRID_COEFFS | _ANY_COEFFS,
    shape=st.sampled_from(
        [(), (0,), (2, 0), (1,), (7,), (3, 4), (_TILE - 1,), (_TILE,), (_TILE + 1,),
         (2, _TILE + 5)]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_values_are_within_the_bound_of_mpmath(coeffs, shape, seed):
    # grid coefficients of any size and general ones, down to 2^-30, at n
    # from 0 to the cap: the documented bound against the exact phase
    n = np.random.default_rng(seed).integers(0, N_MAX_CAP + 1, size=shape)
    n.reshape(-1)[:2] = [0, N_MAX_CAP][: n.size]
    _assert_values_within_bound(coeffs, n, phase_values(coeffs, n))


def test_a_tiny_negative_off_grid_phase_wraps_to_zero():
    # -1e-30 mod 1 rounds to 1.0 in the lo Horner: 2^64 is 0 mod 2^64, not
    # an invalid uint64 cast (a RuntimeWarning, which the test settings make an error)
    assert poly_phase_frac((0.0, 1e-30), -1) == 0.0
    assert phase_values((0.0, 1e-30), -1) == 1.0
    got = phase_values((0.0, 1e-30), np.array([-1, 0, 1]))
    assert np.array_equal(got, np.ones(3))


@settings(max_examples=60, deadline=None)
@given(coeffs=_GRID_COEFFS | _ANY_COEFFS, seed=st.integers(0, 2**32 - 1))
def test_phase_at_negative_n_is_within_the_bound_of_the_exact_phase(coeffs, seed):
    # n from -cap to -1: poly_phase_frac in [0, 1) within the documented
    # model of the exact Fraction phase, and phase_values within its bound
    n = -np.random.default_rng(seed).integers(1, N_MAX_CAP + 1, size=12)
    n[:2] = [-1, -N_MAX_CAP]
    frac = poly_phase_frac(coeffs, n)
    for m, g in zip(n.tolist(), frac):
        assert 0.0 <= g < 1.0
        assert _frac_error(coeffs, m, g) <= _model_bound(coeffs, m), (coeffs, m)
    _assert_values_within_bound(coeffs, n, phase_values(coeffs, n))


def test_turn_tables_are_built_on_first_use():
    # importing moebius, or building a sieve, builds no phase table
    code = (
        "from ncflow import moebius\n"
        "moebius.build_table(1000)\n"
        "before = moebius._tables.cache_info().currsize\n"
        "moebius.phase_values((0.0, 0.3), 5)\n"
        "print(before, moebius._tables.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(moebius.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]


def test_phase_values_depend_on_each_n_alone():
    # the same bits for n alone, as a 0-d input, and anywhere in an array of
    # any length: a one-element in-place product once rounded otherwise
    rng = np.random.default_rng(3)
    for coeffs in [(0.15769492702791824,), (0.0, 0.37, 0.123, 0.0071), (0.0, 1e-30, 0.3)]:
        ns = rng.integers(1, N_MAX_CAP + 1, size=200)
        full = phase_values(coeffs, ns)
        for i in range(ns.size):
            assert _same_bits(phase_values(coeffs, ns[i]), full[i])
            for length in (1, 2, 5):
                got = phase_values(coeffs, ns[i : i + length])
                assert np.array_equal(got.view(np.uint64), full[i : i + length].view(np.uint64))


def test_phase_values_at_quarter_and_eighth_turns_are_exact():
    # the parent's np.exp gave e(1/2) = -1 + 1.2e-16i
    ns = np.arange(-9, 10)
    quarter = [1, 1j, -1, -1j]
    assert np.array_equal(phase_values((0.0, 0.25), ns), [quarter[n % 4] for n in ns])
    assert np.array_equal(phase_values((0.5,), ns), np.full(ns.size, -1.0))
    eighths = characters([0.125, 0.375, -0.125], ns)
    odd = ns % 2 == 1
    assert np.all(np.abs(eighths[odd].real) == math.sqrt(0.5))
    assert np.all(np.abs(eighths[odd].imag) == math.sqrt(0.5))
    assert np.array_equal(eighths[~odd, 0], [quarter[n // 2 % 4] for n in ns[~odd]])


def test_turn_tables_are_within_an_ulp_of_mpmath():
    # every part of every entry of the three tables: the table bound that
    # TURNS_ERR rests on
    top, small = moebius._tables()
    tables = [(top, moebius._TABLE_BITS)]
    tables += [(table, 64 - shift) for shift, table in small]
    assert [bits for _, bits in tables] == [12, 24, 36]
    with mpmath.workdps(40):
        for table, bits in tables:
            assert table.shape == (4096,)
            for k, z in enumerate(table.tolist()):
                turns = mpmath.mpf(k) / 2 ** (bits - 1)
                for got, exact in ((z.real, mpmath.cospi(turns)), (z.imag, mpmath.sinpi(turns))):
                    err = abs(mpmath.mpf(got) - exact)
                    assert err <= math.ulp(abs(float(exact))), (bits, k)


def test_characters_match_stacked_phase_values():
    rng = np.random.default_rng(7)
    angles = np.concatenate([rng.random(5), [0.0, 1e-9, -3e-7, 2.5, -0.75]])
    ns = np.concatenate([np.arange(1, 3000), rng.integers(1, N_MAX_CAP + 1, size=500)])
    want = np.stack([phase_values((0.0, th), ns) for th in angles], axis=1)
    got = characters(angles, ns)
    assert got.shape == (ns.size, angles.size)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_series_splits_its_coefficients_once(table_1m):
    # exp_sum evaluates its phase block by block; the split is cached by the
    # coefficient tuple, read-only, and the same as a fresh one
    coeffs = (0.0, 0.37, 0.123, 1e-30)
    moebius._split_tuple.cache_clear()
    exp_sum(table_1m, PolynomialPhase(coeffs), 5 * 4096)
    info = moebius._split_tuple.cache_info()
    assert info.misses == 1 and info.hits >= 4
    ms, los = moebius._split(np.array(coeffs))
    assert not ms.flags.writeable and not los.flags.writeable
    fresh = moebius._split_tuple.__wrapped__(coeffs)
    assert np.array_equal(ms, fresh[0]) and np.array_equal(los, fresh[1])


def test_exp_sum_streaming_matches_one_tree_sum(table_1m):
    coeffs = (0.0, 0.37, 0.123, 0.0071)
    N = 10**5 + 3
    ns = np.arange(1, N + 1)
    whole = tree_sum(table_1m.mu[ns].astype(np.float64) * phase_values(coeffs, ns))
    got = exp_sum(table_1m, PolynomialPhase(coeffs), N)
    assert _same_bits(got, complex(whole) / N)


def _gather(x):
    """terms for blocked_sums: the entries of x at a sub-range, as a fresh 1-D array."""
    return lambda r: x[np.arange(r.start, r.stop, r.step)]


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(0, 40),
    step=st.integers(1, 3),
    size=st.integers(0, 5 * 4096 + 100),
    raw_stops=st.lists(st.integers(0, 10**6), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_sums_are_worker_invariant_and_match_tree_sum(
    start, step, size, raw_stops, seed
):
    rng = np.random.default_rng(seed)
    idx = range(start, start + step * size, step)
    x = rng.standard_normal(idx.stop + 1) * 10.0 ** rng.integers(-6, 6, idx.stop + 1)
    x = x + 1j * rng.standard_normal(x.size)
    stops = [s % (size + 1) for s in raw_stops]  # uneven cuts anywhere in [0, size]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moebius.os, "cpu_count", lambda: 3)
        runs = [blocked_sums(idx, _gather(x), stops, workers=w) for w in (1, 2, 3)]
    assert len(runs[0]) == len(stops) + 1
    for run in runs[1:]:
        assert all(_same_bits(complex(a), complex(b)) for a, b in zip(run, runs[0]))
    # without stops the blocks are tree_sum's blocks over the whole term array
    ns = np.arange(idx.start, idx.stop, idx.step)
    (total,) = blocked_sums(idx, _gather(x))
    assert _same_bits(complex(total), complex(tree_sum(x[ns])))
    # the first stop cuts only the block it falls in, so its prefix is tree_sum's
    if stops:
        first = min(stops)
        got = runs[0][stops.index(first)]
        assert _same_bits(complex(got), complex(tree_sum(x[ns[:first]])))


def test_blocked_sums_reject_stops_outside_the_range():
    with pytest.raises(ValueError, match="stops"):
        blocked_sums(range(10), _gather(np.ones(10)), [11])


@settings(max_examples=30, deadline=None)
@given(
    q=st.integers(2, 12),
    residue=st.integers(0, 11),
    N=st.integers(1, 3 * 10**5),
    coeffs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_exp_sum_in_a_residue_class_is_one_tree_sum(table_1m, q, residue, N, coeffs):
    residue %= q
    ns = np.arange(residue if residue else q, N + 1, q)
    terms = table_1m.mu[ns].astype(np.float64) * phase_values(coeffs, ns)
    want = complex(tree_sum(terms)) / N
    got = exp_sum(table_1m, PolynomialPhase(tuple(coeffs), q, residue), N)
    assert _same_bits(got, want)


@pytest.mark.parametrize("q, residue", [(4, 0), (9, 0), (8, 4)])
def test_exp_sum_on_a_class_without_squarefree_n_is_the_tree_sum_of_zeros(
    table_1m, q, residue
):
    rng = np.random.default_rng(q)
    for N in (q, q + 1, 2 * q, 4096 * q + 3 * q, 10**5):
        ns = np.arange(residue if residue else q, N + 1, q)
        assert not table_1m.mu[ns].any()
        # every phase quadrant, so the full terms 0 * e(phi) carry zeros of both signs
        for coeffs in [(0.0,), (0.3,), (0.6,), (0.85,)] + [tuple(rng.random(3)) for _ in range(4)]:
            terms = table_1m.mu[ns].astype(np.float64) * phase_values(coeffs, ns)
            want = complex(tree_sum(terms)) / N
            got = exp_sum(table_1m, PolynomialPhase(coeffs, q, residue), N)
            assert _same_bits(got, want), (N, coeffs)


@pytest.mark.parametrize("q, residue", [(1, 0), (3, 1), (6, 5)])
def test_exp_sum_evaluates_phases_only_at_squarefree_n(table_1m, monkeypatch, q, residue):
    seen = []

    def recording(coeffs, n):
        seen.append(np.array(n))
        return phase_values(coeffs, n)

    monkeypatch.setattr(moebius, "phase_values", recording)
    N = 3 * 4096 * q + 17
    exp_sum(table_1m, PolynomialPhase((0.0, 0.37, 0.123), q, residue), N)
    ns = np.concatenate(seen)
    cls = np.arange(residue if residue else q, N + 1, q)
    assert np.all(table_1m.mu[ns] != 0)
    assert ns.size == np.count_nonzero(table_1m.mu[cls])
    assert np.array_equal(np.sort(ns), cls[table_1m.mu[cls] != 0])


@settings(max_examples=30, deadline=None)
@given(
    q=st.integers(1, 12),
    N=st.integers(1, 3 * 10**5),
    coeffs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_exp_sum_residue_classes_add_up(table_1m, q, N, coeffs):
    # raw sums, so the tolerance is 1e-12 * N
    full = exp_sum(table_1m, PolynomialPhase(tuple(coeffs)), N) * N
    parts = sum(
        exp_sum(table_1m, PolynomialPhase(tuple(coeffs), q, r), N) * N for r in range(q)
    )
    assert abs(parts - full) <= 1e-12 * N


def test_exp_sum_half_phase(table_1m):
    # e(n/2) = (-1)^n against mu(1..4) = 1,-1,-1,0: (-1) + (-1) + 1 + 0 = -1
    assert exp_sum(table_1m, PolynomialPhase((0.0, 0.5)), 4) == pytest.approx(
        -0.25, abs=1e-15
    )


def test_exp_sum_integer_phase_is_mertens(table_1m):
    # theta = 0 collapses to M(N)/N
    for n in (10, 997, 10**4):
        s = exp_sum(table_1m, PolynomialPhase((0.0, 0.0)), n)
        assert s == pytest.approx(mertens(table_1m, n) / n, abs=1e-15)


def test_exp_sum_residue_classes_partition(table_1m):
    theta = (math.sqrt(5) - 1) / 2
    n = 99991
    full = exp_sum(table_1m, PolynomialPhase((0.0, theta)), n)
    parts = sum(
        exp_sum(table_1m, PolynomialPhase((0.0, theta), modulus=3, residue=r), n)
        for r in range(3)
    )
    assert abs(full - parts) < 1e-12


def test_exp_sum_dyadic_phase_periodicity(table_1m):
    # theta = 3/8 makes e(theta n) exactly 8-periodic; compare with a direct loop
    theta = 3 / 8
    N = 4096 + 17
    direct = sum(
        int(table_1m.mu[n]) * np.exp(2j * np.pi * ((theta * n) % 1.0))
        for n in range(1, N + 1)
    )
    s = exp_sum(table_1m, PolynomialPhase((0.0, theta)), N)
    assert abs(s - direct / N) < 1e-12


def test_exp_sum_quadratic_phase_small_oracle(table_10k):
    coeffs = (0.0, 0.2, 0.05)
    N = 500
    direct = (
        sum(
            int(table_10k.mu[n])
            * np.exp(2j * np.pi * (float(Fraction(0.2) * n + Fraction(0.05) * n * n % 1)))
            for n in range(1, N + 1)
        )
        / N
    )
    s = exp_sum(table_10k, PolynomialPhase(coeffs), N)
    assert abs(s - direct) < 1e-10


def test_exp_sum_rejects_bad_range(table_10k):
    with pytest.raises(ValueError):
        exp_sum(table_10k, PolynomialPhase((0.0, 0.5)), 0)
    with pytest.raises(ValueError):
        exp_sum(table_10k, PolynomialPhase((0.0, 0.5)), 10**5)


def _mu_average(table, f, N):
    """(1/N) sum_{n<=N} mu(n) f(n) through average_series."""
    flow = Flow(values_at=f, declared_bound=1.0, label="test_flow")
    return complex(average_series(flow, table, [N]).values[0])


def test_average_series_matches_exp_sum(table_10k):
    theta = 0.137
    f = lambda ns: np.exp(2j * np.pi * theta * np.asarray(ns))
    s1 = _mu_average(table_10k, f, 9973)
    s2 = exp_sum(table_10k, PolynomialPhase((0.0, theta)), 9973)
    assert abs(s1 - s2) < 1e-12


def test_average_series_bounded_by_abs_average(table_10k):
    # |sum mu f| <= sum |mu| for |f| <= 1
    theta = 0.7312
    N = 9000
    s = _mu_average(table_10k, lambda ns: np.exp(2j * np.pi * theta * ns), N)
    assert abs(s) <= squarefree_count(table_10k, N) / N + 1e-12


@pytest.mark.parametrize("N", [1, 4095, 4096, 4097, 9973, 12289, 10**6])
@pytest.mark.parametrize("coeffs", [(0.0, 0.137), (0.25, 0.7312, 0.1)])
def test_average_series_of_a_phase_is_exp_sum_bitwise(table_1m, coeffs, N):
    # both sum mu(n) e(phi(n)) in the same blocks and fold, so the bits agree
    s = _mu_average(table_1m, lambda ns: phase_values(coeffs, ns), N)
    ref = exp_sum(table_1m, PolynomialPhase(coeffs), N)
    assert np.complex128(s).tobytes() == np.complex128(ref).tobytes()


def test_tree_sum_matches_fsum():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10000) * 10.0 ** rng.integers(-8, 8, size=10000)
    assert tree_sum(x) == pytest.approx(math.fsum(x), rel=1e-12)


def test_tree_sum_is_blockwise_stable():
    # summing [0, n) equals folding the block partial sums, by construction
    rng = np.random.default_rng(4)
    x = rng.standard_normal(3 * 4096 + 123)
    parts = [
        np.add.reduce(x[i : i + 4096]) for i in range(0, len(x), 4096)
    ]
    assert tree_sum(x) == fold_pairwise(parts)


def test_fold_pairwise_order():
    # balanced fold: ((a+b)+(c+d)), not a linear scan
    assert fold_pairwise([1.0, 2.0, 3.0, 4.0]) == (1.0 + 2.0) + (3.0 + 4.0)
    assert fold_pairwise([5.0]) == 5.0


def test_cache_round_trip(tmp_path, table_10k):
    path = tmp_path / "mu.ncf"
    save_table(table_10k, path)
    loaded = load_table(path)
    assert loaded.n_max == table_10k.n_max
    assert np.array_equal(loaded.mu, table_10k.mu)


def test_cache_payload_is_the_two_bit_packing(tmp_path):
    table = build_table(10**4 + 3)  # not a multiple of 4: the last byte is padded
    codes = (table.mu[1:].astype(np.int16) + 1).astype(np.uint8)
    codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)]).reshape(-1, 4)
    packed = codes[:, 0] | codes[:, 1] << 2 | codes[:, 2] << 4 | codes[:, 3] << 6
    assert packed.size == (table.n_max + 3) // 4
    path = tmp_path / "mu.ncf"
    save_table(table, path)
    assert path.read_bytes()[16:] == packed.tobytes()


def test_cache_codec_memory_is_the_table_plus_two_lanes(tmp_path):
    # the codec works lane by lane in place: save holds the payload and one
    # lane buffer, load the table, the file's payload and one lane buffer
    n_max = 8 * 10**6
    table = build_table(n_max)
    path = tmp_path / "mu.ncf"
    lane = (n_max + 3) // 4
    for step, bound in ((lambda: save_table(table, path), 2 * lane),
                        (lambda: load_table(path), n_max + 1 + 2 * lane)):
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound + 2**16, (peak, bound)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 7, 41, 10**4 + 3])
def test_cache_rejects_the_unused_code_3(tmp_path, n_max):
    # a code-3 lane under a valid checksum used to load as mu = 2
    path = tmp_path / "mu.ncf"
    save_table(build_table(n_max), path)
    assert np.array_equal(load_table(path).mu, build_table(n_max).mu)
    raw = bytearray(path.read_bytes())
    k = n_max - 1  # the last lane of the payload
    raw[16 + k // 4] |= 3 << 2 * (k % 4)
    crc = zlib.crc32(bytes(raw[16:]))
    path.write_bytes(bytes(raw[:12]) + crc.to_bytes(4, "little") + bytes(raw[16:]))
    with pytest.raises(ValueError, match="code 3") as err:
        load_table(path)
    assert str(path) in str(err.value)


def test_cache_rejects_bad_magic(tmp_path, table_10k):
    path = tmp_path / "mu.ncf"
    save_table(table_10k, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_table(path)


def test_cache_rejects_corrupt_codes(tmp_path, table_10k):
    path = tmp_path / "mu.ncf"
    save_table(table_10k, path)
    raw = bytearray(path.read_bytes())
    raw[16] ^= 0x55  # flip mu codes at the head of the payload
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_table(path)


def test_cache_rejects_mid_file_corruption(tmp_path, table_10k):
    # flipping byte 2000 of a 1e4 table used to load with 4 wrong mu values
    path = tmp_path / "mu.ncf"
    save_table(table_10k, path)
    raw = bytearray(path.read_bytes())
    raw[2000] ^= 0x55
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum") as err:
        load_table(path)
    assert str(path) in str(err.value)


def test_cache_rejects_the_unchecksummed_format(tmp_path, table_10k):
    path = tmp_path / "mu.ncf"
    save_table(table_10k, path)
    raw = path.read_bytes()
    path.write_bytes(b"NCF1" + raw[4:12] + raw[16:])  # the old layout
    with pytest.raises(ValueError, match="NCF1") as err:
        load_table(path)
    assert str(path) in str(err.value)


class _FailingWriter:
    """A file that writes half of any large chunk and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data):
        if len(data) > 100:
            self.fh.write(data[: len(data) // 2])
            raise OSError("disk full")
        return self.fh.write(data)


@pytest.mark.parametrize("had_old_file", [False, True])
def test_cache_writer_failing_part_way_leaves_no_partial_file(
    tmp_path, table_10k, monkeypatch, had_old_file
):
    path = tmp_path / "mu.ncf"
    if had_old_file:
        save_table(build_table(2000), path)
    before = sorted(os.listdir(tmp_path))
    old_bytes = path.read_bytes() if had_old_file else None
    monkeypatch.setattr(
        moebius, "open", lambda p, mode: _FailingWriter(open(p, mode)), raising=False
    )
    with pytest.raises(OSError, match="disk full"):
        save_table(table_10k, path)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == before
    if had_old_file:
        assert path.read_bytes() == old_bytes
        assert load_table(path).n_max == 2000


def test_load_or_build_uses_env_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("NCFLOW_CACHE_DIR", str(tmp_path))
    t1 = load_or_build_table(2000)
    assert os.path.exists(cache_path(str(tmp_path), 2000))
    t2 = load_or_build_table(2000)
    assert np.array_equal(t1.mu, t2.mu)


def test_load_or_build_without_cache(monkeypatch):
    monkeypatch.delenv("NCFLOW_CACHE_DIR", raising=False)
    t = load_or_build_table(500)
    assert t.n_max == 500
