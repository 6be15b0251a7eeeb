import hashlib
import math
import os
import struct
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
    build_table,
    cache_path,
    characters,
    exp_sum,
    load_or_build_table,
    load_table,
    phase_values,
    poly_phase_frac,
    prefix_counts,
    save_table,
)
from oracles import mertens, mu_array, squarefree_count, table_of, tree_sum


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
    mu = table_1m.window(1, 3000)
    for n in range(1, 3000):
        assert int(mu[n - 1]) == mu_trial(n), n


def test_sieve_matches_trial_division_on_random_sample(table_1m):
    rng = np.random.default_rng(11)
    mu = mu_array(table_1m)
    for n in rng.integers(1, table_1m.n_max + 1, size=2000).tolist():
        assert int(mu[n]) == mu_trial(n), n


def test_sieve_matches_trial_division_at_segment_boundaries(table_1m):
    seg = moebius._SIEVE_SEGMENT
    boundaries = list(range(1 + seg, table_1m.n_max + 1, seg)) + [table_1m.n_max]
    assert len(boundaries) >= 2
    mu = mu_array(table_1m)
    for b in boundaries:
        for n in range(max(1, b - 50), min(table_1m.n_max, b + 50) + 1):
            assert int(mu[n]) == mu_trial(n), n


def test_sieve_with_short_segments_matches_trial_division(monkeypatch):
    # segments of 97 put primes, prime squares and products p * q with
    # q > sqrt(n_max) on both sides of many segment boundaries
    monkeypatch.setattr(moebius, "_SIEVE_SEGMENT", 97)
    for n_max in range(1, 301):
        mu = build_table(n_max).window(1, n_max + 1)
        assert mu.tolist() == [mu_trial(n) for n in range(1, n_max + 1)], n_max


def _mu_by_every_prime(n_max: int) -> np.ndarray:
    """mu(0..n_max) from every prime up to n_max, unsegmented and with no
    cofactor: an oracle that shares neither the wheel nor the sign flip."""
    mu = np.ones(n_max + 1, dtype=np.int8)
    mu[0] = 0
    for p in moebius.primes_upto(n_max).tolist():
        mu[::p] *= -1
        mu[:: p * p] = 0
    return mu


def _assert_near_edges_matches_trial_division(mu, edges, reach=50):
    n_max = len(mu) - 1
    for b in edges:
        for n in range(max(1, b - reach), min(n_max, b + reach) + 1):
            assert int(mu[n]) == mu_trial(n), n


_WHEEL_PERIOD = 2**2 * 3**2 * 5**2 * 7**2  # the pre-sieved pattern of 2, 3, 5, 7
_EDGE_N_MAX = [
    k * edge + d
    for edge in (_WHEEL_PERIOD, moebius._SIEVE_SEGMENT)
    for k in (1, 2, 3)
    for d in (-1, 0, 1)
]


@pytest.mark.parametrize("n_max", _EDGE_N_MAX)
def test_sieve_near_wheel_and_segment_edges_matches_trial_division(n_max):
    mu = mu_array(build_table(n_max))
    seg = moebius._SIEVE_SEGMENT
    edges = [*range(_WHEEL_PERIOD, n_max + 2, _WHEEL_PERIOD), *range(seg, n_max + 2, seg), n_max]
    _assert_near_edges_matches_trial_division(mu, edges)
    for n in np.random.default_rng(n_max).integers(1, n_max + 1, size=200).tolist():
        assert int(mu[n]) == mu_trial(n), n


@settings(max_examples=20, deadline=None)
@given(n_max=st.integers(1, 3 * 10**5), segment=st.integers(50, 50_000))
def test_sieve_with_drawn_segments_matches_every_prime_oracle(n_max, segment):
    # segments shorter and longer than the 44100 wheel period put their
    # edges inside and across it
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moebius, "_SIEVE_SEGMENT", segment)
        mu = mu_array(build_table(n_max))
    assert np.array_equal(mu, _mu_by_every_prime(n_max))
    _assert_near_edges_matches_trial_division(mu, [segment + 1, n_max], reach=3)


def test_sieve_memory_is_the_table_plus_one_segment():
    # the table is its 2-bit codes, each segment packed as it is sieved
    n_max = 8 * 10**6
    tracemalloc.start()
    try:
        build_table(n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (n_max + 3) // 4 + 12 * moebius._SIEVE_SEGMENT, peak


def test_sieve_multiplicative_on_coprime_pairs(table_1m):
    rng = np.random.default_rng(1)
    a = rng.integers(1, 1000, size=5000)
    b = rng.integers(1, 1000, size=5000)
    keep = np.gcd(a, b) == 1
    a, b = a[keep], b[keep]
    mu = mu_array(table_1m)
    assert np.array_equal(mu[a * b], mu[a] * mu[b])


def test_sieve_known_prefix(table_1m):
    # mu(1..10) = 1,-1,-1,0,-1,1,-1,0,0,1
    assert list(table_1m.window(1, 11)) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    with pytest.raises(ValueError, match="not inside"):
        table_1m.window(0, 11)  # n = 0 has no mu
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
    counts = prefix_counts(table_1m, [10, 100, 10**6])
    assert counts[0] == (-1, 7)
    assert counts[-1] == (212, 607926)


@settings(max_examples=40, deadline=None)
@given(inner=st.sets(st.integers(2, 10**4 - 1), max_size=30))
def test_prefix_counts_are_mertens_and_squarefree_count(table_10k, inner):
    cps = [1, *sorted(inner), table_10k.n_max]
    counts = prefix_counts(table_10k, cps)
    assert counts == [(mertens(table_10k, N), squarefree_count(table_10k, N)) for N in cps]
    assert all(type(v) is int for pair in counts for v in pair)


def test_prefix_counts_refuses_bad_checkpoints(table_10k):
    for cps in ([], [5, 5], [7, 3], [0, 3], [10**4 + 1]):
        with pytest.raises(ValueError):
            prefix_counts(table_10k, cps)


def test_squarefree_counts(table_1m):
    assert squarefree_count(table_1m, 10) == 7  # 1,2,3,5,6,7,10
    assert squarefree_count(table_1m, 10**6) == 607926
    assert abs(squarefree_count(table_1m, 10**6) / 10**6 - 6 / math.pi**2) < 5e-4


def test_phase_functions_refuse_empty_and_non_finite_coefficients(table_10k):
    # every phase passes through the one cached split, which checks it
    ns = np.arange(1, 10)
    for coeffs, message in (
        ((), "phase needs at least the constant coefficient"),
        ((math.nan,), "phase coefficients must be finite"),
        ((math.inf, 1.0), "phase coefficients must be finite"),
    ):
        for evaluate in (phase_values, poly_phase_frac):
            with pytest.raises(ValueError, match=message):
                evaluate(coeffs, ns)
        with pytest.raises(ValueError, match=message):
            exp_sum(table_10k, coeffs, 100)
    with pytest.raises(ValueError, match="phase coefficients must be finite"):
        characters([math.nan], ns)


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


# call lengths around 2^13 and a run, and bsz_check's largest M: the
# phase kernel takes each call in one pass, whatever its length
_LENGTHS = (8191, 8192, 8193, moebius._SUM_RUN - 1, moebius._SUM_RUN + 1, 10**5)


@pytest.mark.parametrize("degree", range(6))
def test_phase_kernel_is_bit_identical_to_the_expression_form(degree):
    rng = np.random.default_rng(degree)
    coeffs = [float(c) for c in rng.random(degree + 1) * 7.0 - 3.0]
    inputs = [np.array(987654), 987654, np.arange(1, 61).reshape(6, 10)]
    inputs += [np.arange(0), np.zeros((3, 0))]
    for m in _LENGTHS:
        inputs.append(rng.integers(1, N_MAX_CAP + 1, size=m))
    for n in inputs:
        want = expression_phase_frac(coeffs, n)
        assert _same_bits(poly_phase_frac(coeffs, n), want), np.shape(n)
        _assert_values_within_bound(coeffs, n, phase_values(coeffs, n))


def _assert_values_within_bound(coeffs, n, got):
    """got has phase_values' type and shape for n, and lies within the
    documented bound of the exact e(phi(n)) at every n of a small input, and
    at both ends, both sides of each of _LENGTHS inside it and a sample of a
    large one."""
    want_type = np.complex128 if np.ndim(n) == 0 else np.ndarray
    assert type(got) is want_type and np.shape(got) == np.shape(n)
    flat_n, flat = np.reshape(n, -1), np.reshape(got, -1)
    if flat.size <= 64:
        at = range(flat.size)
    else:
        edges = [m for m in _LENGTHS if m < flat.size]
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
        [(), (0,), (2, 0), (1,), (7,), (3, 4), *((m,) for m in _LENGTHS), (2, 8197)]
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
    # any length: a one-element in-place product once rounded otherwise, and
    # one call takes any length in one pass
    rng = np.random.default_rng(3)
    for coeffs in [(0.15769492702791824,), (0.0, 0.37, 0.123, 0.0071), (0.0, 1e-30, 0.3)]:
        ns = rng.integers(1, N_MAX_CAP + 1, size=200)
        full = phase_values(coeffs, ns)
        for i in range(ns.size):
            assert _same_bits(phase_values(coeffs, ns[i]), full[i])
            for length in (1, 2, 5):
                got = phase_values(coeffs, ns[i : i + length])
                assert np.array_equal(got.view(np.uint64), full[i : i + length].view(np.uint64))
        ns = rng.integers(1, N_MAX_CAP + 1, size=max(_LENGTHS) + 3)
        full = phase_values(coeffs, ns)
        for length in _LENGTHS:
            for part in (slice(0, length), slice(ns.size - length, None)):
                got = phase_values(coeffs, ns[part])
                assert got.tobytes() == full[part].tobytes(), (coeffs, length)


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


def test_turns_error_comes_within_a_factor_8_of_turns_err():
    # TURNS_ERR holds over 4000 seeded r, and is not loose: the worst error
    # against 40-digit mpmath reaches an eighth of it (about a quarter here)
    r = np.random.default_rng(11).integers(0, 2**64, size=4000, dtype=np.uint64)
    got = moebius._turns(r)
    worst = 0.0
    with mpmath.workdps(40):
        for k, z in zip(r.tolist(), got.tolist()):
            turns = mpmath.mpf(k) / 2**63
            exact = mpmath.mpc(mpmath.cospi(turns), mpmath.sinpi(turns))
            worst = max(worst, float(abs(mpmath.mpc(z) - exact)))
    assert moebius.TURNS_ERR / 8 <= worst <= moebius.TURNS_ERR


def test_characters_match_stacked_phase_values():
    rng = np.random.default_rng(7)
    angles = np.concatenate([rng.random(5), [0.0, 1e-9, -3e-7, 2.5, -0.75]])
    ns = np.concatenate([np.arange(1, 3000), rng.integers(1, N_MAX_CAP + 1, size=500)])
    want = np.stack([phase_values((0.0, th), ns) for th in angles], axis=1)
    got = characters(angles, ns)
    assert got.shape == (ns.size, angles.size)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_series_splits_its_coefficients_once(table_1m):
    # exp_sum evaluates its phase once per run, here five runs; the
    # split is cached by the coefficient tuple, read-only, and the same as a
    # fresh one
    coeffs = (0.0, 0.37, 0.123, 1e-30)
    moebius._split_tuple.cache_clear()
    exp_sum(table_1m, coeffs, 5 * moebius._SUM_RUN)
    info = moebius._split_tuple.cache_info()
    assert info.misses == 1 and info.hits >= 4
    ms, los = moebius._split(np.array(coeffs))
    assert not ms.flags.writeable and not los.flags.writeable
    fresh = moebius._split_tuple.__wrapped__(coeffs)
    assert np.array_equal(ms, fresh[0]) and np.array_equal(los, fresh[1])


def test_exp_sum_streaming_matches_one_tree_sum(table_1m):
    coeffs = (0.0, 0.37, 0.123, 0.0071)
    N = 10**5 + 3
    ns = np.arange(N + 1)
    (whole,) = tree_sum(mu_array(table_1m), phase_values(coeffs, ns), [N])
    got = exp_sum(table_1m, coeffs, N)
    assert _same_bits(got, complex(whole) / N)


def test_phase_sum_memory_is_flat_in_n(table_1m):
    # the phase kernel's scratch is as long as its call, and a Moebius sum
    # calls it once per run: so the run alone bounds it, and no
    # array grows with N
    coeffs = (0.0, 0.37, 0.123, 0.0071)
    flow = Flow(
        values_at=lambda ns: phase_values(coeffs, ns), declared_bound=1.0, label="poly_phase"
    )
    phase_values(coeffs, np.arange(1, 3))  # the turn tables and the split, built once
    sums = {
        "exp_sum": lambda N: exp_sum(table_1m, coeffs, N),
        "average_series": lambda N: average_series(flow, table_1m, [1000, N // 2, N]),
    }
    for name, run in sums.items():
        peaks = []
        for N in (2 * 10**4, 4 * 10**5):
            tracemalloc.start()
            try:
                run(N)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 2**19, (name, peaks)


def test_weighted_average_and_prefix_counts_memory_is_flat_in_n_max():
    # a run unpacks only its own _SUM_RUN window of the codes, and
    # prefix_counts one _COUNT_BLOCK at a time: no array grows with n_max
    ones = lambda ns: np.ones(ns.size, dtype=np.complex128)
    steps = {
        "weighted_average": lambda t: moebius.weighted_average(t, [t.n_max], ones),
        "prefix_counts": lambda t: prefix_counts(t, [t.n_max // 3, t.n_max]),
    }
    peaks = {name: [] for name in steps}
    for n_max in (10**5, 10**6):
        table = build_table(n_max)
        for name, step in steps.items():
            tracemalloc.start()
            try:
                step(table)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[name].append(peak)
    wa, pc = peaks["weighted_average"], peaks["prefix_counts"]
    assert wa[1] <= wa[0] + 2**16, wa  # the lists of runs and piece sums: 61 runs, not 7
    # a block's mu and np.take's intp copy of its code bytes, while the last
    # block is still held: 4 bytes per n of a block
    assert pc[1] <= 4 * moebius._COUNT_BLOCK + 2**14, pc


def _window_calls(table, n_max):
    """The values_at calls weighted_average must make up to n_max, sorted:
    per _SUM_RUN window of n, one call at the window's squarefree n."""
    calls = []
    for lo in range(0, n_max, moebius._SUM_RUN):
        ns = np.arange(lo + 1, min(lo + moebius._SUM_RUN, n_max) + 1)
        calls.append(tuple(ns[table.window(ns[0], ns[-1] + 1) != 0].tolist()))
    return sorted(calls)


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(1, 3 * moebius._SUM_RUN + 100),
    raw_cps=st.lists(st.integers(0, 10**6), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_average_is_worker_invariant_and_matches_tree_sum(n_max, raw_cps, seed):
    # the horizon and the checkpoints cross the edges of the runs that
    # values_at is called on, and cut them at uneven places
    rng = np.random.default_rng(seed)
    mu = rng.integers(-1, 2, n_max + 1, dtype=np.int8)  # random mu, which no sieve made
    mu[0] = 0
    table = table_of(mu)
    x = rng.standard_normal(n_max + 1) * 10.0 ** rng.integers(-6, 6, n_max + 1)
    x = x + 1j * rng.standard_normal(x.size)
    cps = sorted({1 + c % n_max for c in raw_cps} | {n_max})  # uneven cuts anywhere
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moebius.os, "cpu_count", lambda: 3)
        for workers in (1, 2, 3):
            calls = []

            def values_at(ns, calls=calls):
                calls.append(tuple(ns.tolist()))
                return x[ns]

            runs.append(moebius.weighted_average(table, cps, values_at, workers=workers))
            # each call is one run: a _SUM_RUN window's squarefree n, the
            # same calls at every worker count
            assert sorted(calls) == _window_calls(table, n_max)
    assert len(runs[0]) == len(cps)
    for run in runs[1:]:
        assert all(_same_bits(a, b) and p == q for (a, p), (b, q) in zip(run, runs[0]))
    averages, counts = zip(*runs[0])
    # each count is the squarefree count Q(N), exact
    assert list(counts) == [int(np.count_nonzero(mu[1 : N + 1])) for N in cps]
    # at one checkpoint the pieces are the runs
    ((total, _),) = moebius.weighted_average(table, [n_max], lambda ns: x[ns])
    assert _same_bits(total, complex(tree_sum(mu, x, [n_max])[0]) / n_max)
    # the first checkpoint cuts only the run it falls in, so its prefix is tree_sum's
    assert _same_bits(averages[0], complex(tree_sum(mu, x, cps[:1])[0]) / cps[0])
    # and every checkpoint is tree_sum's fold of the pieces up to it
    want = [complex(s) / N for s, N in zip(tree_sum(mu, x, cps), cps)]
    assert all(_same_bits(a, b) for a, b in zip(averages, want))


def test_weighted_average_calls_do_not_depend_on_workers(monkeypatch):
    # values that depend on the length of their call, as a matrix evaluator's
    # rounding may: threads take whole runs, so every worker count makes the
    # same calls and gets the same bits, whatever the pointwise contract
    n_max = 3 * moebius._SUM_RUN
    table = build_table(n_max)
    x = np.random.default_rng(5).standard_normal(n_max + 1) + 0j
    monkeypatch.setattr(moebius.os, "cpu_count", lambda: 3)
    sums, calls = [], []
    for workers in (1, 2, 3):
        seen = []

        def values_at(ns, seen=seen):
            seen.append(tuple(ns.tolist()))
            return x[ns] + ns.size * 2.0**-60

        ((total, _),) = moebius.weighted_average(table, [n_max], values_at, workers=workers)
        sums.append(total)
        calls.append(sorted(seen))
    for got, spans in zip(sums[1:], calls[1:]):
        assert _same_bits(got, sums[0])
        assert spans == calls[0]


@pytest.mark.parametrize(
    "checkpoints, message",
    [
        ([], "at least one checkpoint"),
        ([5, 5], "strictly ascending"),
        ([7, 3], "strictly ascending"),
        ([0, 3], r"checkpoints must lie in \[1, 10\]"),
        ([3, 11], r"checkpoints must lie in \[1, 10\]"),
    ],
    ids=["empty", "repeated", "unsorted", "below_1", "above_n_max"],
)
def test_weighted_average_refuses_bad_checkpoints(checkpoints, message):
    def values_at(ns):
        raise AssertionError("evaluated before the checkpoints were checked")

    with pytest.raises(ValueError, match=message):
        moebius.weighted_average(build_table(10), checkpoints, values_at)


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(1, 3 * 10**5),
    coeffs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_exp_sum_is_one_tree_sum_of_the_signed_zero_terms(table_1m, N, coeffs):
    # the full terms mu(n) e(phi(n)) carry zeros of either sign at mu(n) = 0;
    # neither exp_sum nor tree_sum adds them, so they cannot reach the sum
    ns = np.arange(N + 1)
    (total,) = tree_sum(mu_array(table_1m), phase_values(coeffs, ns), [N])
    want = complex(total) / N
    got = exp_sum(table_1m, tuple(coeffs), N)
    assert _same_bits(got, want)


# 48..50 = 2^4 3, 7^2, 2 5^2; 242..245 = 2 11^2, 3^5, 2^2 61, 5 7^2; and
# 22020..22025, the first six consecutive n without a squarefree one (no
# longer such run starts below 2 10^5)
@pytest.mark.parametrize("lo, hi", [(48, 50), (242, 245), (22020, 22025)])
def test_weighted_average_where_mu_vanishes_is_the_tree_sum_of_zeros(table_1m, lo, hi):
    rng = np.random.default_rng(lo)
    assert not table_1m.window(lo, hi + 1).any()
    # the sieve's stretch, with mu = 0 below it too: no squarefree n <= hi
    mu = mu_array(table_1m)[: hi + 1]
    mu[:lo] = 0
    table = table_of(mu)
    ns = np.arange(hi + 1)
    cps = range(lo, hi + 1)  # a piece cut at every n of the stretch
    # every phase quadrant, so the full terms 0 * e(phi) would carry zeros of both signs
    for coeffs in [(0.0,), (0.3,), (0.6,), (0.85,)] + [tuple(rng.random(3)) for _ in range(4)]:
        want = tree_sum(mu, phase_values(coeffs, ns), cps)
        got = moebius.weighted_average(table, cps, lambda n: phase_values(coeffs, n))
        for N, (part, _), total in zip(cps, got, want):
            assert _same_bits(part, complex(total) / N), (N, coeffs)


def test_exp_sum_evaluates_phases_only_at_squarefree_n(table_1m, monkeypatch):
    seen = []

    def recording(coeffs, n):
        seen.append(np.array(n))
        return phase_values(coeffs, n)

    monkeypatch.setattr(moebius, "phase_values", recording)
    N = 3 * 4096 + 17
    exp_sum(table_1m, (0.0, 0.37, 0.123), N)
    ns = np.concatenate(seen)
    every = np.arange(1, N + 1)
    mu = mu_array(table_1m)
    assert np.all(mu[ns] != 0)
    assert ns.size == np.count_nonzero(mu[every])
    assert np.array_equal(np.sort(ns), every[mu[every] != 0])


def test_exp_sum_half_phase(table_1m):
    # e(n/2) = (-1)^n against mu(1..4) = 1,-1,-1,0: (-1) + (-1) + 1 + 0 = -1
    assert exp_sum(table_1m, (0.0, 0.5), 4) == pytest.approx(
        -0.25, abs=1e-15
    )


def test_exp_sum_integer_phase_is_mertens(table_1m):
    # theta = 0 collapses to M(N)/N
    for n in (10, 997, 10**4):
        s = exp_sum(table_1m, (0.0, 0.0), n)
        assert s == pytest.approx(mertens(table_1m, n) / n, abs=1e-15)


def test_exp_sum_dyadic_phase_periodicity(table_1m):
    # theta = 3/8 makes e(theta n) exactly 8-periodic; compare with a direct loop
    theta = 3 / 8
    N = 4096 + 17
    mu = mu_array(table_1m)
    direct = sum(
        int(mu[n]) * np.exp(2j * np.pi * ((theta * n) % 1.0))
        for n in range(1, N + 1)
    )
    s = exp_sum(table_1m, (0.0, theta), N)
    assert abs(s - direct / N) < 1e-12


def test_exp_sum_quadratic_phase_small_oracle(table_10k):
    coeffs = (0.0, 0.2, 0.05)
    N = 500
    mu = mu_array(table_10k)
    direct = (
        sum(
            int(mu[n])
            * np.exp(2j * np.pi * (float(Fraction(0.2) * n + Fraction(0.05) * n * n % 1)))
            for n in range(1, N + 1)
        )
        / N
    )
    s = exp_sum(table_10k, coeffs, N)
    assert abs(s - direct) < 1e-10


def test_exp_sum_rejects_bad_range(table_10k):
    with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 10000\]"):
        exp_sum(table_10k, (0.0, 0.5), 0)
    with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 10000\]"):
        exp_sum(table_10k, (0.0, 0.5), 10**5)


def _mu_average(table, f, N):
    """(1/N) sum_{n<=N} mu(n) f(n) through average_series."""
    flow = Flow(values_at=f, declared_bound=1.0, label="test_flow")
    return complex(average_series(flow, table, [N]).values[0])


def test_average_series_matches_exp_sum(table_10k):
    theta = 0.137
    f = lambda ns: np.exp(2j * np.pi * theta * np.asarray(ns))
    s1 = _mu_average(table_10k, f, 9973)
    s2 = exp_sum(table_10k, (0.0, theta), 9973)
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
    # both sum mu(n) e(phi(n)) in the same runs and fold, so the bits agree
    s = _mu_average(table_1m, lambda ns: phase_values(coeffs, ns), N)
    ref = exp_sum(table_1m, coeffs, N)
    assert np.complex128(s).tobytes() == np.complex128(ref).tobytes()


def test_tree_sum_matches_fsum(table_1m):
    # three runs and a checkpoint inside each: every sum within 1e-12 of the
    # correctly rounded sum of the same terms
    rng = np.random.default_rng(3)
    N = 3 * moebius._SUM_RUN
    x = rng.standard_normal(N + 1) * 10.0 ** rng.integers(-8, 8, size=N + 1)
    cps = [5000, 20000, 40000, N]
    mu = mu_array(table_1m)
    terms = mu[: N + 1] * x
    for got, cp in zip(tree_sum(mu, x, cps), cps):
        assert got == pytest.approx(math.fsum(terms[: cp + 1]), rel=1e-12)


def test_tree_sum_is_runwise_stable(table_1m):
    # the sum at N is one complex128 reduce of one reduce per _SUM_RUN window
    # of squarefree terms, by construction, and a checkpoint splits only the
    # run it falls in; x is real, and the fold still reduces complex128,
    # whose pairwise blocks interleave the real and imaginary parts
    rng = np.random.default_rng(4)
    run = moebius._SUM_RUN
    N = 3 * run + 123
    x = rng.standard_normal(N + 1)
    mu = mu_array(table_1m)[: N + 1]

    def piece(lo, hi):
        terms = mu[lo + 1 : hi + 1] * x[lo + 1 : hi + 1]
        return np.add.reduce(terms[mu[lo + 1 : hi + 1] != 0])

    def fold(sums):
        return np.add.reduce(np.array(sums, dtype=np.complex128))

    parts = [piece(lo, min(lo + run, N)) for lo in range(0, N, run)]
    assert tree_sum(mu, x, [N]) == [fold(parts)]
    cut = run + 99
    split = parts[:1] + [piece(run, cut), piece(cut, 2 * run)] + parts[2:]
    assert tree_sum(mu, x, [cut, N]) == [fold(split[:2]), fold(split)]


def test_cache_round_trip(tmp_path, table_10k):
    path = tmp_path / "mu.ncf"
    save_table(table_10k, path)
    loaded = load_table(path)
    assert loaded.n_max == table_10k.n_max
    assert np.array_equal(loaded.codes, table_10k.codes)
    assert np.array_equal(mu_array(loaded), mu_array(table_10k))


def test_cache_payload_is_the_two_bit_packing(tmp_path):
    table = build_table(10**4 + 3)  # not a multiple of 4: the last byte is padded
    codes = (table.window(1, table.n_max + 1).astype(np.int16) + 1).astype(np.uint8)
    codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)]).reshape(-1, 4)
    packed = codes[:, 0] | codes[:, 1] << 2 | codes[:, 2] << 4 | codes[:, 3] << 6
    assert packed.size == (table.n_max + 3) // 4
    path = tmp_path / "mu.ncf"
    save_table(table, path)
    assert path.read_bytes()[16:] == packed.tobytes()


@pytest.mark.parametrize("n_max", [40, 41, 42, 43, 10**4 + 4, 10**4 + 5, 10**4 + 6, 10**4 + 7])
def test_every_window_matches_trial_division_at_each_tail(n_max):
    # n_max = 0, 1, 2, 3 mod 4 leaves 0 to 3 padding slots of code 0 in the
    # last byte, which would read as mu = -1: every window ends at n_max
    table = build_table(n_max)
    want = np.array([0] + [mu_trial(n) for n in range(1, n_max + 1)], dtype=np.int8)
    assert table.codes.size == (n_max + 3) // 4 and not table.codes.flags.writeable
    if n_max % 4:
        assert table.codes[-1] >> 2 * (n_max % 4) == 0  # the padding slots
    ends = range(1, n_max + 2) if n_max < 100 else [*range(1, 10), *range(n_max - 9, n_max + 2)]
    for lo in ends:
        for hi in ends:
            if lo <= hi:
                assert np.array_equal(table.window(lo, hi), want[lo:hi]), (lo, hi)
    rng = np.random.default_rng(n_max)
    for lo, hi in np.sort(rng.integers(1, n_max + 2, size=(200, 2)), axis=1).tolist():
        assert np.array_equal(table.window(lo, hi), want[lo:hi]), (lo, hi)
    for lo, hi in [(1, n_max + 2), (n_max + 1, n_max + 2), (0, 1), (5, 4)]:
        with pytest.raises(ValueError, match="not inside"):
            table.window(lo, hi)


def _old_layout_file(mu_1_to_n_max) -> bytes:
    """A cache file in the NCF2 byte layout, built here: header, crc32, and
    the codes mu + 1 packed four per byte, low bits first, padded with 0."""
    codes = np.zeros(-(-len(mu_1_to_n_max) // 4) * 4, dtype=np.uint8)
    codes[: len(mu_1_to_n_max)] = np.asarray(mu_1_to_n_max) + 1
    quads = codes.reshape(-1, 4)
    payload = (quads[:, 0] | quads[:, 1] << 2 | quads[:, 2] << 4 | quads[:, 3] << 6).tobytes()
    header = struct.pack("<4sQI", b"NCF2", len(mu_1_to_n_max), zlib.crc32(payload))
    return header + payload


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 40, 41, 42, 43])
def test_cache_in_the_ncf2_layout_loads_to_trial_division_mu(tmp_path, n_max):
    want = [mu_trial(n) for n in range(1, n_max + 1)]
    path = tmp_path / "mu.ncf"
    path.write_bytes(_old_layout_file(want))
    table = load_table(path)
    assert table.n_max == n_max
    assert table.window(1, n_max + 1).tolist() == want
    assert not table.codes.flags.writeable
    save_table(build_table(n_max), tmp_path / "again.ncf")
    assert (tmp_path / "again.ncf").read_bytes() == path.read_bytes()


def test_pack_helper_writes_the_ncf2_layout_of_any_mu():
    # mu that no sieve made, at every tail length: the packed codes are the
    # payload of the NCF2 layout, and unpack back to the same mu
    rng = np.random.default_rng(8)
    for n_max in [*range(1, 42), 10**4 + 1]:
        mu = rng.integers(-1, 2, n_max + 1, dtype=np.int8)
        table = table_of(mu)
        assert table.codes.tobytes() == _old_layout_file(mu[1:])[16:], n_max
        assert np.array_equal(table.window(1, n_max + 1), mu[1:]), n_max


def test_cache_file_bytes_are_pinned(tmp_path, table_1m):
    # the sha256 of the files the int8-table codec wrote, so no cache byte moves
    pinned = {
        10**4 + 3: "fc669a3333026f45bc79de1cddd9c05ab51a56e2eda7c24a7b37fab3c2082073",
        10**6: "06f7e1f2959867b4729eb5db3a8ac7f15ea12487ffb1cbfd2aaa95559679d357",
    }
    for table in (build_table(10**4 + 3), table_1m):
        path = tmp_path / f"mu_{table.n_max}.ncf"
        save_table(table, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[table.n_max]


def test_cache_codec_memory_is_the_payload_plus_one_chunk(tmp_path):
    # the payload is the table's codes: save writes them as they are, and
    # load keeps the bytes it read as the table and checks them for code 3
    # one chunk at a time
    n_max = 8 * 10**6
    table = build_table(n_max)
    path = tmp_path / "mu.ncf"
    payload = (n_max + 3) // 4
    for step, bound in ((lambda: save_table(table, path), 0),
                        (lambda: load_table(path), payload + moebius._CHECK_CHUNK)):
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound + 2**16, (peak, bound)


def _assert_code_3_is_refused(path, k):
    """Set slot k of the payload at path to code 3 under a valid checksum,
    and check that load_table refuses it."""
    raw = bytearray(path.read_bytes())
    raw[16 + k // 4] |= 3 << 2 * (k % 4)
    crc = zlib.crc32(bytes(raw[16:]))
    path.write_bytes(bytes(raw[:12]) + crc.to_bytes(4, "little") + bytes(raw[16:]))
    with pytest.raises(ValueError, match="code 3") as err:
        load_table(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 7, 41, 10**4 + 3])
def test_cache_rejects_the_unused_code_3(tmp_path, n_max):
    # a code-3 lane under a valid checksum used to load as mu = 2
    path = tmp_path / "mu.ncf"
    save_table(build_table(n_max), path)
    assert np.array_equal(mu_array(load_table(path)), mu_array(build_table(n_max)))
    _assert_code_3_is_refused(path, n_max - 1)  # the last lane of the payload


@pytest.mark.parametrize("n_max", [1, 2, 3, 5, 6, 7, 41, 10**4 + 3])
def test_cache_rejects_code_3_in_a_padding_slot(tmp_path, n_max):
    # the slots past n_max in the last byte are never read as mu, but the
    # whole payload is checked, so a code 3 there is refused all the same
    for k in range(n_max, -(-n_max // 4) * 4):
        path = tmp_path / f"mu_{k}.ncf"
        save_table(build_table(n_max), path)
        _assert_code_3_is_refused(path, k)


def test_cache_with_a_wrong_mu_30_under_a_valid_checksum_fails_the_spot_check(tmp_path):
    # mu(30) = -1 is the spot check's last known value: a check cut short of
    # n = 30 would load this table
    path = tmp_path / "mu.ncf"
    save_table(build_table(100), path)
    raw = bytearray(path.read_bytes())
    slot = 2 * (29 % 4)
    assert raw[16 + 29 // 4] >> slot & 3 == 0  # code mu + 1 of mu(30) = -1
    raw[16 + 29 // 4] |= 2 << slot  # mu(30) = +1
    crc = zlib.crc32(bytes(raw[16:]))
    path.write_bytes(bytes(raw[:12]) + crc.to_bytes(4, "little") + bytes(raw[16:]))
    with pytest.raises(ValueError, match="failed spot check at n = 30"):
        load_table(path)


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
    assert np.array_equal(t1.codes, t2.codes)


def test_load_or_build_without_cache(monkeypatch):
    monkeypatch.delenv("NCFLOW_CACHE_DIR", raising=False)
    t = load_or_build_table(500)
    assert t.n_max == 500
