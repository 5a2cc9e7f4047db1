import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pclab
from pclab import _intmath, factor
from pclab.acceptance import _omega_oracle
from pclab.errors import FactorizationTimeout, OutOfRange
from pclab.primes import primes_in


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
    assert (np.flatnonzero(got) + 1).tolist() == primes_in(0, 10**6).tolist()


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
    sieve = set(primes_in(0, 10**6).tolist())
    assert [n for n in range(1, 10**6 + 1) if factor.is_prime(n)] == sorted(sieve)


def test_primality_work_is_pinned_as_counts(monkeypatch):
    calls = {"witness": 0, "primality": 0, "gcd": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(_intmath, "_mr_composite_witness", counting("witness", _intmath._mr_composite_witness))
    monkeypatch.setattr(_intmath, "primality", counting("primality", _intmath.primality))
    monkeypatch.setattr(_intmath, "gcd", counting("gcd", _intmath.gcd))
    # below 1,373,653 the strong test takes bases 2 and 3 only
    assert sum(map(factor.is_prime, range(10**6, 10**6 + 10**4))) == 753
    assert calls["witness"] == 2239
    # below 2^30 the trial blocks decide every cofactor, one gcd per block
    # reached, with no strong test
    calls["primality"] = 0
    for n in range(1, 10**5 + 1):
        factor.factor_signature(n)
    assert calls["primality"] == 0
    assert calls["gcd"] == 141139
    # from 2^30 on a cofactor left above the square of a found prime is tested
    calls["primality"] = calls["gcd"] = 0
    for n in range(2**40, 2**40 + 1000):
        factor.factor_signature(n)
    assert calls["primality"] == 855
    assert calls["gcd"] == 36021


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


def test_signature_is_an_immutable_value():
    s = factor.factor_signature(12)
    same = factor.FactorSignature(n=12, omega_big=3, squarefree=False, prime=False)
    assert s == same and hash(s) == hash(same)
    # the hash of the field tuple, as the frozen dataclass it replaced hashed
    assert hash(s) == hash((12, 3, False, False, False))
    assert s != factor.factor_signature(18) and s != same._replace(probabilistic=True)
    assert len({s, same, factor.factor_signature(12)}) == 1
    assert (s.n, s.omega_big, s.squarefree, s.prime, s.probabilistic) == (12, 3, False, False, False)
    assert pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(AttributeError):
        s.omega_big = 2
    with pytest.raises(OutOfRange):
        s._replace(prime=True)
    with pytest.raises(OutOfRange):
        factor.FactorSignature._make((1, 1, True, False, False))


def per_prime_factorize(n, rho_budget=1 << 24):
    """factorize with one m % p per trial prime, as before the trial blocks."""
    factors = {}
    probabilistic = False
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    limit = math.isqrt(m)
    for p in itertools.islice(_intmath.small_primes(), 3, None):
        if p > limit:
            if m > 1:
                factors[m] = factors.get(m, 0) + 1
            return factors, probabilistic
        if m % p == 0:
            while m % p == 0:
                factors[p] = factors.get(p, 0) + 1
                m //= p
            limit = math.isqrt(m)
            if p <= limit:
                verdict, det = _intmath.primality(m)
                probabilistic |= not det
                if verdict:
                    factors[m] = factors.get(m, 0) + 1
                    return factors, probabilistic
    pending = [m] if m > 1 else []
    budget = [rho_budget]
    while pending:
        m = pending.pop()
        verdict, det = _intmath.primality(m)
        probabilistic |= not det
        if verdict:
            factors[m] = factors.get(m, 0) + 1
            continue
        r = _intmath.perfect_root(m, 2)
        if r is not None:
            pending.extend((r, r))
            continue
        d = _intmath.brent_rho(m, budget)
        if d is None or d == m:
            raise FactorizationTimeout("budget", partial=(dict(factors), m))
        pending.extend((d, m // d))
    return factors, probabilistic


def factorize_outcome(fn, n, rho_budget):
    """Factors in insertion order and the flag, or the timeout's partial."""
    try:
        factors, probabilistic = fn(n, rho_budget)
    except FactorizationTimeout as e:
        factors, cofactor = e.partial
        return "timeout", list(factors.items()), cofactor
    return list(factors.items()), probabilistic


def assert_factorize_unchanged(ns, rho_budget=1 << 24):
    for n in ns:
        assert factorize_outcome(_intmath.factorize, n, rho_budget) == \
            factorize_outcome(per_prime_factorize, n, rho_budget), n


def trial_blocks():
    while _intmath._add_trial_block():
        pass
    return _intmath._trial_blocks


def test_trial_blocks_cover_the_primes_to_1e5_in_order():
    blocks = trial_blocks()
    assert [p for block in blocks for p in block[3]] == _intmath.small_primes()[3:]
    for q2, last, product, primes in blocks:
        assert q2 == primes[0] ** 2 and last == primes[-1] and product == math.prod(primes)
        # two primes of a block multiply past its last prime
        assert last < q2 and product.bit_length() <= _intmath._BLOCK_BITS


def test_factorize_unchanged_at_the_block_edges():
    blocks = trial_blocks()
    firsts = [block[3][0] for block in blocks] + [100003]  # 100003: the first prime past trial division
    lasts = [block[1] for block in blocks]
    ns = [31**2, 37**2, 97 * 101, 997**2, 1009**2, 99989 * 99991, 99991**2, 99991 * 100003, 100003**2]
    for q, last, nxt in zip(firsts, lasts, firsts[1:]):
        for n in (q * q, last * last, q * last, last * nxt, nxt * nxt, q * last * nxt, q**3 * nxt):
            ns += [n, 210 * n]
    assert_factorize_unchanged(ns)


def test_factorize_unchanged_near_2_62_and_2_64():
    rng = random.Random(6264)
    ns = [c + rng.randrange(-2**40, 2**40) for c in (2**62, 2**64) for _ in range(60)]
    # and multiples of trial primes on each side, some of them repeated
    ps = _intmath.small_primes()
    for c in (2**62, 2**64):
        for _ in range(40):
            head = rng.choice(ps) * rng.choice(ps[:100]) ** rng.randint(1, 3)
            ns += [c // head * head, (c // head + 1) * head]
    assert_factorize_unchanged(ns, 1 << 16)


def test_factorize_unchanged_on_probable_primes_and_timeouts():
    m89 = 2**89 - 1  # a Mersenne prime: its verdict is probabilistic
    ns = [m89 * p for p in (1, 2, 3, 7, 31, 37, 97, 101, 997, 99991)]
    ns += [m89 * 7 * 7, m89 * 101 * 99991, m89**2, 3 * 2**64 + 3 * 13]
    assert _intmath.factorize(m89 * 7) == ({7: 1, m89: 1}, True)
    assert_factorize_unchanged(ns)
    # composite cofactors past trial division that a tiny rho budget cannot split
    semiprime = 1000003 * 1000033
    ns = [semiprime, 7 * semiprime, 2 * 101 * 101 * semiprime, 99991 * semiprime * 1000037, m89 * semiprime]
    for n in ns:
        assert factorize_outcome(_intmath.factorize, n, 4)[0] == "timeout", n
    assert_factorize_unchanged(ns, 4)


def test_import_and_small_factorizations_build_only_small_blocks():
    src = str(Path(pclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import pclab.cli; from pclab import _intmath, factor; n0 = len(_intmath._trial_blocks); "
            "factor.factor_signature(2 * 3 * 5 * 7 * 11 * 13 * 101 * 103); "
            "print(n0, len(_intmath._trial_blocks), _intmath._trial_blocks[-1][1])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    n0, n1, last = map(int, out.stdout.split())
    assert n0 == 0 and n1 <= 3 and last < 2000


def test_signature_arrays_agree_with_the_sieve_oracle_to_1e6():
    limit = 10**6
    omega, squarefree = _omega_oracle(limit)
    omega_small, sf, cofactor = factor.signature_arrays(np.arange(1, limit + 1, dtype=np.int64))
    edge = np.flatnonzero(cofactor > 1)
    # the cofactor adds 1 when prime and 2 when composite
    omega_small[edge] += 2 - factor.is_prime_array(cofactor[edge])
    assert np.array_equal(omega_small, omega[1:])
    assert np.array_equal(sf, squarefree[1:])


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
