import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pclab import primes
from pclab.errors import RangeTooLarge


def simple_oracle(limit):
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


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


def test_full_range_vs_oracle():
    got = primes.primes_in(0, 3 * 10**5)
    assert np.array_equal(got, simple_oracle(3 * 10**5))


@given(st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 5000))
def test_segment_boundary_independence(a, b, c):
    a, b, c = sorted((a, b, c))
    left = primes.primes_in(a, b).tolist()
    right = primes.primes_in(b, c).tolist()
    assert left + right == primes.primes_in(a, c).tolist()


def test_range_cap():
    with pytest.raises(RangeTooLarge):
        primes.primes_in(0, 10**11)


def test_mangoldt_entries():
    t = primes.mangoldt_table(100)
    assert (8, 2) in t.entries
    assert t.weight(8) == pytest.approx(math.log(2))
    assert t.weight(6) == 0.0
    assert t.weight(97) == pytest.approx(math.log(97))


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


def test_mangoldt_every_entry_is_prime_power():
    t = primes.mangoldt_table(10**4)
    for n, p in t.entries:
        m = n
        while m % p == 0:
            m //= p
        assert m == 1
