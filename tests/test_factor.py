import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pclab import _intmath, factor
from pclab.errors import OutOfRange
from pclab.primes import _simple_sieve


def trial_signature(n):
    omega, squarefree, m = 0, True, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            omega += e
            squarefree &= e == 1
        p += 1
    if m > 1:
        omega += 1
    return omega, squarefree


def test_is_prime_examples():
    assert not factor.is_prime(1)
    assert not factor.is_prime(341)  # 11 * 31
    assert factor.is_prime(2**61 - 1)


def test_is_prime_small_table():
    want = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    got = {n for n in range(2, 50) if factor.is_prime(n)}
    assert got == want


# The strong pseudoprime that sets each tier's bound, with its factors.  That
# each is the least one to its bases rests on the cited sources; the test
# below shows only that each passes its own tier, so no bound can be raised.
TIER_PSEUDOPRIMES = (
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (4759123141, (48781, 97561)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
)


def test_mr_tier_bounds_are_pseudoprimes_of_their_tier():
    tiers = dict(_intmath._MR_TIERS)
    assert list(tiers) == [n for n, _ in TIER_PSEUDOPRIMES] + [2**64]
    assert tiers[2**64] == _intmath.MR_BASES_64
    for n, prime_factors in TIER_PSEUDOPRIMES:
        assert math.prod(prime_factors) == n and all(map(factor.is_prime, prime_factors))
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        # n passes every base of its own tier, and only a later tier rejects it
        assert not any(_intmath._mr_composite_witness(n, a, d, s) for a in tiers[n]), n
        assert not factor.is_prime(n), n
        assert _intmath.primality(n) == (False, True)
    assert factor.is_prime(2**64 - 59)  # the largest prime below 2^64


def test_is_prime_array_agrees_with_the_sieve():
    got = factor.is_prime_array(np.arange(1, 10**6 + 1, dtype=np.int64))
    assert (np.flatnonzero(got) + 1).tolist() == _simple_sieve(10**6).tolist()


def test_is_prime_array_rejects_each_tier_bound_below_2_50():
    for n, _ in TIER_PSEUDOPRIMES:
        if n >= 1 << 50:
            continue
        assert factor.is_prime_array(np.array([n], dtype=np.int64)).tolist() == [False], n
        # just below n the array takes n's own tier, the one that n passes;
        # with n itself added it takes the next tier
        below = np.arange(n - 1000, n, dtype=np.int64)
        assert factor.is_prime_array(below).tolist() == [factor.is_prime(v) for v in below.tolist()], n
        assert not factor.is_prime_array(np.append(below, n))[-1], n


def test_is_prime_array_agrees_with_is_prime_below_2_50():
    vals = np.random.default_rng(12).integers(0, 1 << 50, size=10**5, dtype=np.int64)
    assert factor.is_prime_array(vals).tolist() == [factor.is_prime(v) for v in vals.tolist()]


def test_is_prime_array_falls_back_to_is_prime_from_2_50(monkeypatch):
    rng = np.random.default_rng(13)
    big = [2**61 - 1, 2**62 - 1, 3825123056546413051, 2**50 + 1, 2**50 + 3]
    vals = np.concatenate([rng.integers(1 << 50, 1 << 62, size=2000, dtype=np.int64),
                           np.array(big, dtype=np.int64), np.arange(2**50 - 200, 2**50, dtype=np.int64)])
    want = [factor.is_prime(v) for v in vals.tolist()]
    scalar = []
    is_prime = factor.is_prime

    def counting(n):
        scalar.append(n)
        return is_prime(n)

    monkeypatch.setattr(factor, "is_prime", counting)
    got = factor.is_prime_array(vals)
    assert got.tolist() == want
    assert got[2000] and not got[2002]  # 2^61 - 1 is prime; 3825123056546413051 is not
    assert scalar and min(scalar) >= 2**50


def test_is_prime_array_small_values():
    assert factor.is_prime_array(np.array([], dtype=np.int64)).tolist() == []
    vals = [0, 1, 2, 3, 4, 37, 41, 1367, 37 * 37 - 1, 37 * 37, 37 * 41, -7]
    want = [False, False, True, True, False, True, True, True, False, False, False, False]
    assert factor.is_prime_array(np.array(vals, dtype=np.int64)).tolist() == want
    for bad in (np.array([5], dtype=object), np.array([[5]], dtype=np.int64)):
        with pytest.raises(OutOfRange):
            factor.is_prime_array(bad)


def test_factorize_when_the_last_trial_prime_divides_out_the_rest():
    # 99991 is the largest prime in small_primes(): dividing it out can leave
    # m == 1 after the trial loop, which must not reach the rho stage
    assert _intmath.small_primes()[-1] == 99991
    assert factor.factorize(99991**2) == {99991: 2}
    assert factor.factorize(2 * 99991**3) == {2: 1, 99991: 3}
    assert factor.factor_signature(2 * 99991**3).omega_big == 4


def test_is_prime_agrees_with_the_sieve():
    sieve = set(_simple_sieve(10**6).tolist())
    assert [n for n in range(1, 10**6 + 1) if factor.is_prime(n)] == sorted(sieve)


def test_primality_work_is_pinned_as_counts(monkeypatch):
    calls = {"witness": 0, "primality": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(_intmath, "_mr_composite_witness", counting("witness", _intmath._mr_composite_witness))
    monkeypatch.setattr(_intmath, "primality", counting("primality", _intmath.primality))
    # below 1,373,653 the strong test takes bases 2 and 3 only
    assert sum(map(factor.is_prime, range(10**6, 10**6 + 10**4))) == 753
    assert calls["witness"] == 2239
    # below 10^10 trial division decides every cofactor it passes the root of;
    # primality runs only where a divided-out factor leaves a larger cofactor
    calls["primality"] = 0
    for n in range(1, 10**5 + 1):
        factor.factor_signature(n)
    assert calls["primality"] == 31376


def test_is_prime_probabilistic_path():
    assert factor.is_prime(2**89 - 1)          # Mersenne prime above 2^64
    assert not factor.is_prime(3 * (2**89 - 1))


def test_signature_examples():
    s = factor.factor_signature(12)
    assert (s.omega_big, s.squarefree, s.prime) == (3, False, False)
    s1 = factor.factor_signature(1)
    assert (s1.omega_big, s1.squarefree, s1.prime) == (0, True, False)
    assert factor.factor_signature(27648).omega_big == 13  # 2^10 * 3^3


def test_signature_known_large_semiprime():
    # 2^67 - 1 = 193707721 * 761838257287
    s = factor.factor_signature(2**67 - 1)
    assert (s.omega_big, s.squarefree, s.prime) == (2, True, False)
    f = factor.factorize(2**67 - 1)
    assert f == {193707721: 1, 761838257287: 1}


@given(st.integers(1, 10**7))
def test_signature_matches_trial_division(n):
    s = factor.factor_signature(n)
    omega, squarefree = trial_signature(n)
    assert s.omega_big == omega
    assert s.squarefree == squarefree
    assert s.prime == (omega == 1)


@given(st.integers(2, 10**9))
def test_recomposition(n):
    f = factor.factorize(n)
    prod = 1
    for p, e in f.items():
        assert factor.is_prime(p)
        prod *= p**e
    assert prod == n


@given(st.integers(2, 10**6), st.integers(2, 10**6))
def test_omega_additive_on_coprime(a, b):
    if math.gcd(a, b) != 1:
        return
    sa = factor.factor_signature(a).omega_big
    sb = factor.factor_signature(b).omega_big
    assert factor.factor_signature(a * b).omega_big == sa + sb


def test_out_of_range():
    with pytest.raises(OutOfRange):
        factor.factor_signature(0)
    with pytest.raises(OutOfRange):
        factor.factor_signature(1 << 127)
    # inconsistent fields are rejected by a check that survives python -O
    with pytest.raises(OutOfRange):
        factor.FactorSignature(n=1, omega_big=1, squarefree=True, prime=False)
    with pytest.raises(OutOfRange):
        factor.FactorSignature(n=4, omega_big=2, squarefree=False, prime=True)


def test_deterministic_repetition():
    n = 2**67 - 1
    assert factor.factorize(n) == factor.factorize(n)


def check_signature_arrays(vals):
    """signature_arrays against per-integer factorize and factor_signature."""
    vals = np.asarray(vals, dtype=np.int64)
    omega_small, squarefree, cofactor = factor.signature_arrays(vals)
    P = _intmath.iroot(int(vals.max()), 3)
    for v, om, sf, cof in zip(vals.tolist(), omega_small.tolist(), squarefree.tolist(), cofactor.tolist()):
        small = {p: e for p, e in factor.factorize(v).items() if p <= P}
        assert om == sum(small.values()), v
        assert cof * math.prod(p**e for p, e in small.items()) == v, v
        assert sf == factor.factor_signature(v).squarefree, v


def test_signature_arrays_edge_cases():
    # P = 101 is prime and the maximum is exactly P^3; 103 and 107 are the
    # primes just above P, so cofactors take every shape 1, q, q^2, q*r
    P, q, r = 101, 103, 107
    vals = [1, 2, 3, 97, P, q, q * q, q * r, P * q, 2 * q, 2 * q * r, 2 * q * q, 4 * q, 8 * 9 * 25, P**3]
    check_signature_arrays(vals)
    omega_small, squarefree, cofactor = factor.signature_arrays(np.array(vals, dtype=np.int64))
    assert cofactor.tolist() == [1, 1, 1, 1, 1, q, q * q, q * r, q, q, q * r, q * q, q, 1, 1]
    assert omega_small[-1] == 3 and not squarefree[-1]
    assert factor.signature_arrays(np.array([1], dtype=np.int64))[2].tolist() == [1]


@given(st.lists(st.integers(1, 1 << 40), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_signature_arrays_match_factorization(vals):
    check_signature_arrays(vals)


def test_square_test_at_the_top_of_the_range():
    q = (1 << 31) - 1  # prime; q^2 is the largest square below 2^62
    m = np.array([q * q, q * q - 1, q * q + 1, (1 << 62) - 1, (q - 1) ** 2, 1, 4, 8], dtype=np.int64)
    assert factor._square_above_one(m).tolist() == [True, False, False, False, True, False, True, False]


def test_signature_arrays_out_of_range():
    for bad in ([0, 5], [1 << 62], np.array([6, 10], dtype=object)):
        with pytest.raises(OutOfRange):
            factor.signature_arrays(bad)
