import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pclab import primes
from pclab.errors import Caps, RangeTooLarge


def simple_oracle(limit):
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def in_window(oracle, lo, hi):
    return oracle[(oracle > lo) & (oracle <= hi)].tolist()


def test_primes_in_examples():
    assert primes.primes_in(1, 10).tolist() == [2, 3, 5, 7]
    assert primes.primes_in(90, 100).tolist() == [97]
    assert primes.primes_in(0, 1).tolist() == []


def test_prime_count_small():
    assert primes.prime_count(10) == 4
    assert primes.prime_count(2) == 1
    assert primes.prime_count(1) == 0


def test_prime_count_million_vs_oracle():
    assert primes.prime_count(10**6) == len(simple_oracle(10**6)) == 78498


def test_prime_count_ten_million_by_segments():
    assert primes.prime_count(10**7) == 664579
    for x in (-5, 0, 1, 2, 3, 4, 13, 17, 64, 2 * primes.SEGMENT_WIDTH + 1, 30030 * 7 + 1):
        assert primes.prime_count(x) == primes.primes_in(0, x).size, x
    with pytest.raises(RangeTooLarge):
        primes.prime_count(10**11)


def test_full_range_vs_oracle():
    got = primes.primes_in(0, 3 * 10**5)
    assert np.array_equal(got, simple_oracle(3 * 10**5))


@given(st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 5000))
def test_segment_boundary_independence(a, b, c):
    a, b, c = sorted((a, b, c))
    left = primes.primes_in(a, b).tolist()
    right = primes.primes_in(b, c).tolist()
    assert left + right == primes.primes_in(a, c).tolist()


def test_every_small_range_vs_oracle():
    # the wheel primes 3..13, their squares to 49, 1 and 2
    oracle = simple_oracle(64)
    for lo in range(-1, 65):
        for hi in range(-1, 65):
            assert primes.primes_in(lo, hi).tolist() == in_window(oracle, lo, hi), (lo, hi)


def test_ranges_straddling_segment_and_pattern_boundaries_vs_oracle():
    # with lo = 0 a segment starts at every 1 + k * span; the pattern repeats
    # every 2 * 15015 integers
    span = 2 * primes.SEGMENT_WIDTH
    oracle = simple_oracle(8 * span)
    rng = np.random.default_rng(23)
    edges = [1 + k * span for k in range(1, 7)] + [30030 * k + 1 for k in (1, 2, 17, 100)]
    for edge in edges:
        for _ in range(6):
            lo = edge + int(rng.integers(-3, 4)) - int(rng.choice([0, 1, 5, 40, span]))
            hi = edge + int(rng.integers(-3, 4)) + int(rng.choice([0, 1, 5, 40, span, span + 1]))
            got = primes.primes_in(lo, hi)
            assert got.dtype == np.int64
            assert got.tolist() == in_window(oracle, lo, hi), (lo, hi)
    for k in range(1, 4):  # more than one segment past lo, starting mid-segment
        lo, hi = k * span - 3, (k + 2) * span + 3
        assert primes.primes_in(lo, hi).tolist() == in_window(oracle, lo, hi)


def test_hi_at_the_square_of_a_base_prime_vs_oracle():
    oracle = simple_oracle(2003**2)
    for p in [*oracle[oracle < 60].tolist(), 97, 1009, 1511, 2003]:
        for hi in (p * p - 1, p * p):
            assert primes.primes_in(0, hi).tolist() == in_window(oracle, 0, hi), hi
            assert primes.primes_in(hi - 40, hi).tolist() == in_window(oracle, hi - 40, hi), hi


def test_range_cap():
    with pytest.raises(RangeTooLarge):
        primes.primes_in(0, 10**11)


def test_range_cap_is_checked_before_any_array_is_allocated():
    # sized before the cap check, these buffers would take 40 GB and 485 MB
    tracemalloc.start()
    try:
        for hi, caps in ((10**11, Caps()), (10**9, Caps(primes_hi=10**6))):
            for lo in (0, 10):
                with pytest.raises(RangeTooLarge):
                    primes.primes_in(lo, hi, caps=caps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_every_hi_to_twenty_thousand_vs_oracle():
    # pi(113) = 30 lies within 4e-4 of the bound that sizes the buffer
    oracle = simple_oracle(2 * 10**4)
    assert primes._count_bound(0, 113) >= 30
    for hi in range(-2, 2 * 10**4 + 1):
        want = oracle[: np.searchsorted(oracle, hi, side="right")]
        got = primes.primes_in(0, hi)
        assert got.dtype == np.int64 and np.array_equal(got, want), hi
        assert primes._count_bound(0, hi) >= want.size, hi


def test_random_windows_vs_oracle():
    limit = 3 * 10**6
    oracle = simple_oracle(limit)
    rng = np.random.default_rng(27)
    for _ in range(400):
        width = int(rng.choice([1, 2, 3, 10, 100, 3000, 10**5, 10**6]))
        lo = int(rng.integers(1, limit - width)) if rng.random() < 0.8 else int(rng.integers(1, 300))
        hi = lo + width
        want = in_window(oracle, lo, hi)
        assert primes.primes_in(lo, hi).tolist() == want, (lo, hi)
        assert primes._count_bound(lo, hi) >= len(want), (lo, hi)


def test_mangoldt_entries():
    t = primes.mangoldt_table(100)
    ns = t.ns.tolist()
    assert (8, 2) in zip(ns, t.ps.tolist())
    assert t.logs[ns.index(8)] == pytest.approx(math.log(2))
    assert 6 not in ns  # Lambda(6) = 0
    assert t.logs[ns.index(97)] == pytest.approx(math.log(97))


def test_mangoldt_psi_100():
    # direct factorization oracle for psi(100)
    def lam(n):
        for p in range(2, n + 1):
            if n % p == 0:
                m = n
                while m % p == 0:
                    m //= p
                return math.log(p) if m == 1 else 0.0
        return 0.0

    want = math.fsum(lam(n) for n in range(2, 101))
    t = primes.mangoldt_table(100)
    got = math.fsum(t.logs.tolist())
    assert got == pytest.approx(want, abs=1e-9)
    assert abs(got - 94.045) < 1e-3


def test_mangoldt_table_equals_the_enumerated_prime_powers():
    x = 2 * 10**5
    spf = np.zeros(x + 1, dtype=np.int64)  # least prime factor
    for p in simple_oracle(x)[::-1].tolist():
        spf[p::p] = p
    want = []
    for n in range(2, x + 1):
        p = m = int(spf[n])
        while m < n:
            m *= p
        if m == n:
            want.append((n, p))
    t = primes.mangoldt_table(x)
    assert list(zip(t.ns.tolist(), t.ps.tolist())) == want
    assert t.ns.dtype == t.ps.dtype == np.int64
    assert np.array_equal(t.logs, np.log(t.ps.astype(np.float64)))
    for small in (-1, 0, 1, 2, 3, 4):
        assert primes.mangoldt_table(small).ns.tolist() == [n for n, _ in want if n <= small]


def test_mangoldt_every_entry_is_prime_power():
    t = primes.mangoldt_table(10**4)
    for n, p in zip(t.ns.tolist(), t.ps.tolist()):
        m = n
        while m % p == 0:
            m //= p
        assert m == 1
