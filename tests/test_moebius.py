import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ncflow import moebius
from ncflow.moebius import (
    PolynomialPhase,
    build_table,
    cache_path,
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
    weighted_average,
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
    assert table_1m.primes[0] == 2 and table_1m.primes[-1] <= 10**6


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


def test_poly_phase_frac_matches_fraction_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        deg = int(rng.integers(1, 5))
        coeffs = [float(rng.random()) for _ in range(deg + 1)]
        n = int(rng.integers(1, 10**6))
        got = float(poly_phase_frac(coeffs, n))
        exact = float(sum(Fraction(c) * n**k for k, c in enumerate(coeffs)) % 1)
        err = abs(got - exact)
        assert min(err, 1.0 - err) < 1e-12


def test_poly_phase_frac_vectorized_agrees_with_scalar():
    coeffs = (0.1, 0.37, 0.0051)
    ns = np.arange(1, 200)
    vec = poly_phase_frac(coeffs, ns)
    scal = np.array([float(poly_phase_frac(coeffs, int(n))) for n in ns])
    assert np.array_equal(vec, scal)


def test_phase_values_unit_modulus():
    vals = phase_values((0.0, 0.31), np.arange(1, 50))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-15


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


def test_weighted_average_matches_exp_sum(table_10k):
    theta = 0.137
    f = lambda ns: np.exp(2j * np.pi * theta * np.asarray(ns))
    s1 = weighted_average(table_10k, f, 9973)
    s2 = exp_sum(table_10k, PolynomialPhase((0.0, theta)), 9973)
    assert abs(s1 - s2) < 1e-12


def test_weighted_average_bounded_by_abs_average(table_10k):
    # |sum mu f| <= sum |mu| for |f| <= 1
    theta = 0.7312
    N = 9000
    s = weighted_average(table_10k, lambda ns: np.exp(2j * np.pi * theta * ns), N)
    assert abs(s) <= squarefree_count(table_10k, N) / N + 1e-12


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
    assert np.array_equal(loaded.primes, table_10k.primes)


def test_cache_payload_is_the_two_bit_packing(tmp_path):
    table = build_table(10**4 + 3)  # not a multiple of 4: the last byte is padded
    codes = (table.mu[1:].astype(np.int16) + 1).astype(np.uint8)
    codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)]).reshape(-1, 4)
    packed = codes[:, 0] | codes[:, 1] << 2 | codes[:, 2] << 4 | codes[:, 3] << 6
    assert packed.size == (table.n_max + 3) // 4
    path = tmp_path / "mu.ncf"
    save_table(table, path)
    assert path.read_bytes()[16:] == packed.tobytes()


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
