import ast
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pclab
from pclab import factor
from pclab.acceptance import _omega_oracle
from pclab.errors import FactorizationTimeout, OutOfRange
from pclab.experiments import members
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
    tiers = dict(factor._MR_TIERS)
    assert list(tiers) == [n for n, _ in TIER_PSEUDOPRIMES] + [2**64]
    assert tiers[2**64] == factor.MR_BASES_64
    for n, prime_factors in TIER_PSEUDOPRIMES:
        assert math.prod(prime_factors) == n and all(map(factor.is_prime, prime_factors))
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        # n passes every base of its own tier, and only a later tier rejects it
        assert not any(factor._mr_composite_witness(n, a, d, s) for a in tiers[n]), n
        assert not factor.is_prime(n), n
        assert factor.primality(n) == (False, True)
    assert factor.is_prime(2**64 - 59)  # the largest prime below 2^64


def test_is_prime_array_agrees_with_the_sieve():
    got = factor.is_prime_array(np.arange(1, 10**6 + 1, dtype=np.int64))
    assert (np.flatnonzero(got) + 1).tolist() == primes_in(0, 10**6).tolist()


def test_is_prime_array_rejects_each_tier_bound_below_2_50():
    for n, _ in TIER_PSEUDOPRIMES:
        if n >= 1 << 50:
            continue
        assert factor.is_prime_array(np.array([n], dtype=np.int64)).tolist() == [False], n
        # each element takes its own tier: those just below n take n's tier,
        # the one that n passes, and n itself the next tier
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


def test_divisibility_screen_agrees_with_remainder_at_the_wrap():
    rng = random.Random(21)
    # the screened primes: the strong-test bases, and a sample up to 2^21,
    # past P = 1664510 at the top of signature_arrays' range
    primes = sorted({2, *factor.MR_BASES_64, *rng.sample(primes_in(0, 1 << 21).tolist(), 300)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in primes:
            vals = {0, 1, p - 1, p, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1}
            for c in (2**62, 2**63, 2**64):
                for k in (c // p - 1, c // p, c // p + 1):
                    vals |= {k * p - 1, k * p, k * p + 1}
            vals = sorted(v for v in vals if 0 <= v < 2**64)
            w, limit = factor._divisibility_screen(p)
            got = np.array(vals, dtype=np.uint64) * w <= limit
            assert got.tolist() == [v % p == 0 for v in vals], p


def test_mulmod_and_strong_test_just_below_2_50():
    rng = np.random.default_rng(50)
    n = np.concatenate([np.arange(2**50 - 40, 2**50, dtype=np.int64),
                        rng.integers(2**49, 2**50, size=20000, dtype=np.int64)])
    nf = n.astype(np.float64)
    a = np.concatenate([n[:40] - 1, rng.integers(0, n[40:])])  # n - 1 is the largest operand
    b = np.concatenate([n[:40] - 1 - np.arange(40), rng.integers(0, n[40:])])
    triples = list(zip(a.tolist(), b.tolist(), n.tolist()))
    # the float quotient falls below floor(ab/n) for some pairs and above it
    # for others, so both corrections of _mulmod are taken
    quotients = [(int(float(x) * float(y) / float(m)), x * y // m) for x, y, m in triples]
    assert any(q < t for q, t in quotients) and any(q > t for q, t in quotients)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert factor._mulmod(a, b, n, nf).tolist() == [x * y % m for x, y, m in triples]
    # the strong test, odd n only, against the scalar witness to each window size
    odd = n[n % 2 == 1]
    primes = [m for m in range(2**50 - 3001, 2**50, 2) if factor.is_prime(m)]
    odd = np.concatenate([odd, np.array(primes, dtype=np.int64)])
    assert len(primes) > 50
    for base in (2, 5, 23):
        want = []
        for m in odd.tolist():
            d, s = m - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            want.append(not factor._mr_composite_witness(m, base, d, s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert factor._strong_test(base, odd).tolist() == want, base
        assert all(want[-len(primes):])


@pytest.mark.parametrize("low", [37 * 37 + 1, 2**50 - 3000])
def test_mulmod_window_multipliers_against_python_ints(low):
    # every multiplier up to 2^13 - 1, as an array and as an int; just above
    # 37^2 they exceed n, and just below 2^50 a*b reaches past 2^62
    rng = np.random.default_rng(low)
    n = rng.integers(low, low + 3000, size=1 << 13, dtype=np.int64)
    n[:8] = low + np.arange(8)
    nf = n.astype(np.float64)
    a = rng.integers(0, n)
    a[::7] = n[::7] - 1
    mult = np.arange(1 << 13, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert factor._mulmod(a, mult, n, nf).tolist() == [x * y % m for x, y, m in zip(a.tolist(), mult.tolist(), n.tolist())]
        for k in (0, 1, 2, 61, 6859, (1 << 13) - 1):
            assert factor._mulmod(a, k, n, nf).tolist() == [x * k % m for x, m in zip(a.tolist(), n.tolist())], k


def test_window_multipliers_stay_below_2_13():
    # each base below 2^50 multiplies by a^j for j < 2^w, w as large as the
    # bound allows: 3 for bases 2 and 3, 2 for 5 to 19, 1 for 23 and 61
    want_w = {2: 3, 3: 3, 5: 2, 7: 2, 11: 2, 13: 2, 17: 2, 19: 2, 23: 1, 61: 1}
    assert {a: powers.size.bit_length() - 1 for a, powers in factor._WINDOWS.items()} == want_w
    for a, powers in factor._WINDOWS.items():
        assert powers.tolist() == [a**j for j in range(powers.size)]
        assert powers[-1] < 2**13 <= a ** (2 * powers.size - 1), a


def test_is_prime_array_large_s_beside_s_1():
    # Proth-form k*2^s + 1, s up to 40, with odd k: primes and composites
    # whose n - 1 ends in up to 40 zero bits, in one array with s = 1 elements
    proth = [k * 2**s + 1 for s in range(2, 41) for k in range(1, 200, 2) if 37 * 37 <= k * 2**s + 1 < 2**50]
    rng = np.random.default_rng(40)
    s1 = (rng.integers(2**30, 2**45, size=3000, dtype=np.int64) // 4) * 4 + 3  # n - 1 = 2 mod 4
    vals = np.concatenate([np.array(proth, dtype=np.int64), s1])
    want = [factor.is_prime(v) for v in vals.tolist()]
    assert factor.is_prime_array(vals).tolist() == want
    assert any(want[: len(proth)]) and any(want[len(proth):])
    large = [w for v, w in zip(proth, want) if (v - 1) % 2**30 == 0]  # s >= 30
    assert any(large) and not all(large)
    # alone, each prime's own s is the array's largest
    for v in itertools.compress(proth, want):
        assert factor.is_prime_array(np.array([v], dtype=np.int64)).tolist() == [True], v


def test_is_prime_array_spans_the_tiers():
    # each tier's strong pseudoprime below 2^50, which passes its tier's
    # bases but itself takes the next tier, in one array with the odd
    # numbers around each: primes and composites of every tier
    pseudo = [n for n, _ in TIER_PSEUDOPRIMES if n < 2**50]
    vals = np.array(pseudo + [m for n in pseudo for m in range(n - 300, n + 300, 2) if m != n], dtype=np.int64)
    vals = vals[np.random.default_rng(7).permutation(vals.size)]
    want = [factor.is_prime(v) for v in vals.tolist()]
    got = factor.is_prime_array(vals)
    assert got.tolist() == want
    assert not got[np.isin(vals, pseudo)].any() and sum(want) > 100


def test_is_prime_array_traced_peak_is_bounded_by_its_input():
    vals = members(3 * 10**6, "3/2")[1]
    factor.is_prime_array(vals)  # numpy's first-call setup is not counted
    tracemalloc.start()
    try:
        got = factor.is_prime_array(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(np.count_nonzero(got)) == 10059  # ps_prime_count(3e6, 3/2)
    assert peak <= 2 * vals.nbytes, (peak, vals.nbytes)


def test_census_kernels_raise_no_warning_on_tiny_arrays():
    # the screens' uint64 products wrap; numpy must not turn that into a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vals in ([], [1], [2], [12], [2**40 + 15], [1125899906842597], [2**61 - 1]):
            arr = np.array(vals, dtype=np.int64)
            want = [factor.is_prime(v) for v in vals]
            assert factor.is_prime_array(arr).tolist() == want, vals
            if not vals or vals[0] < 2**50:
                omega_small, _, cofactor = factor.signature_arrays(arr)
                assert (omega_small.size, cofactor.size) == (len(vals), len(vals))


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
    assert factor.small_primes()[-1] == 99991
    assert factor.factorize(99991**2) == {99991: 2}
    assert factor.factorize(2 * 99991**3) == {2: 1, 99991: 3}
    assert factor.factor_signature(2 * 99991**3).omega_big == 4


def test_is_prime_agrees_with_the_sieve():
    sieve = set(primes_in(0, 10**6).tolist())
    assert [n for n in range(1, 10**6 + 1) if factor.is_prime(n)] == sorted(sieve)


def test_primality_work_is_pinned_as_counts(monkeypatch):
    calls = {"witness": 0, "primality": 0, "gcd": 0, "factorize": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(factor, "_mr_composite_witness", counting("witness", factor._mr_composite_witness))
    monkeypatch.setattr(factor, "primality", counting("primality", factor.primality))
    monkeypatch.setattr(factor, "gcd", counting("gcd", factor.gcd))
    monkeypatch.setattr(factor, "_factorize", counting("factorize", factor._factorize))
    # below 1,373,653 the strong test takes bases 2 and 3 only
    assert sum(map(factor.is_prime, range(10**6, 10**6 + 10**4))) == 753
    assert calls["witness"] == 2239
    # below 2^20 factor_signature counts every odd part straight off the
    # least-factor table, with no factorization, no gcd and no strong test
    calls["primality"] = 0
    for n in range(1, 10**5 + 1):
        factor.factor_signature(n)
    assert calls["factorize"] == calls["primality"] == calls["gcd"] == 0
    # factorize takes those odd parts through the block gcds, and none is
    # tested: every cofactor stays below 2^30
    for n in range(1, 10**5 + 1):
        factor.factorize(n)
    assert calls["factorize"] == 10**5
    assert calls["gcd"] == 141139
    assert calls["primality"] == 0
    # from 2^30 on a cofactor left above the square of a found prime is
    # tested, and the blocks take a gcd each until the stop rule ends them.
    # 2^40 itself has odd part 1, so it alone is not factored.
    calls["primality"] = calls["gcd"] = calls["factorize"] = 0
    for n in range(2**40, 2**40 + 1000):
        factor.factor_signature(n)
    assert calls["factorize"] == 999
    assert calls["primality"] == 855
    assert calls["gcd"] == 36021
    # the m < q^2 stop rule: 101 is below 53^2 when the block of 53 is
    # reached, so one gcd ends the division, and 101 * 103 is not, so it
    # takes the block's gcd as well
    calls["gcd"] = 0
    assert factor.factorize(7 * 11 * 13 * 17 * 19 * 23 * 101) == dict.fromkeys((7, 11, 13, 17, 19, 23, 101), 1)
    assert calls["gcd"] == 1
    calls["gcd"] = 0
    assert factor.factorize(7 * 11 * 13 * 17 * 19 * 23 * 101 * 103)[103] == 1
    assert calls["gcd"] == 2


def test_least_factor_table_has_one_reader():
    # the table is built by _least_factor_table and read by factor_signature
    # alone; _factorize takes every odd part through the trial blocks
    src = Path(factor.__file__).parent
    users: dict[str, set[str]] = {}
    for path in src.glob("*.py"):
        for fn in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                for node in ast.walk(fn):  # the names a function reads, and its own
                    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", getattr(node, "name", None))
                    if isinstance(name, str):
                        users.setdefault(name, set()).add(f"{path.stem}.{fn.name}")
    for name in ("_least_factors", "_least_factor_table", "_TABLE_LIMIT"):
        assert users[name] == {"factor._least_factor_table", "factor.factor_signature"}, name
    assert "_by_table" not in users


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
    for p in itertools.islice(factor.small_primes(), 3, None):
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
                verdict, det = factor.primality(m)
                probabilistic |= not det
                if verdict:
                    factors[m] = factors.get(m, 0) + 1
                    return factors, probabilistic
    pending = [m] if m > 1 else []
    budget = [rho_budget]
    while pending:
        m = pending.pop()
        verdict, det = factor.primality(m)
        probabilistic |= not det
        if verdict:
            factors[m] = factors.get(m, 0) + 1
            continue
        r = factor.perfect_root(m, 2)
        if r is not None:
            pending.extend((r, r))
            continue
        d = factor.brent_rho(m, budget)
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
        assert factorize_outcome(factor._factorize, n, rho_budget) == \
            factorize_outcome(per_prime_factorize, n, rho_budget), n


def trial_blocks():
    while factor._add_trial_block():
        pass
    return factor._trial_blocks


def test_trial_blocks_cover_the_primes_to_1e5_in_order():
    blocks = trial_blocks()
    assert [p for block in blocks for p in block[3]] == factor.small_primes()[3:]
    for q2, last, product, primes in blocks:
        assert q2 == primes[0] ** 2 and last == primes[-1] and product == math.prod(primes)
        # two primes of a block multiply past its last prime
        assert last < q2 and product.bit_length() <= factor._BLOCK_BITS


def test_factorize_unchanged_at_the_block_edges():
    blocks = trial_blocks()
    firsts = [block[3][0] for block in blocks] + [100003]  # 100003: the first prime past trial division
    lasts = [block[1] for block in blocks]
    ns = [31**2, 37**2, 97 * 101, 997**2, 1009**2, 99989 * 99991, 99991**2, 99991 * 100003, 100003**2]
    for q, last, nxt in zip(firsts, lasts, firsts[1:]):
        for n in (q * q, last * last, q * last, last * nxt, nxt * nxt, q * last * nxt, q**3 * nxt):
            ns += [n, 210 * n]
    # times 1048583, a prime past trial division, every edge is also met
    # with a prime cofactor left over, on which the stop rule or, from 2^30
    # on, the strong test after a found prime ends the division
    assert factor.is_prime(1048583) and 1048583 > factor.small_primes()[-1]
    ns += [n * 1048583 for n in ns]
    assert_factorize_unchanged(ns)


def test_factorize_unchanged_below_2_20():
    # every n below 2^16 and seeded odd n up to 2^20, whose odd parts take
    # the trial blocks as every other odd part does
    rng = random.Random(1 << 20)
    ns = [*range(1, 1 << 16), *(rng.randrange(1 << 16, 1 << 20) | 1 for _ in range(20000))]
    assert_factorize_unchanged(ns)


def test_factorize_unchanged_near_2_62_and_2_64():
    rng = random.Random(6264)
    ns = [c + rng.randrange(-2**40, 2**40) for c in (2**62, 2**64) for _ in range(60)]
    # and multiples of trial primes on each side, some of them repeated
    ps = factor.small_primes()
    for c in (2**62, 2**64):
        for _ in range(40):
            head = rng.choice(ps) * rng.choice(ps[:100]) ** rng.randint(1, 3)
            ns += [c // head * head, (c // head + 1) * head]
    assert_factorize_unchanged(ns, 1 << 16)


def test_factorize_unchanged_on_probable_primes_and_timeouts():
    m89 = 2**89 - 1  # a Mersenne prime: its verdict is probabilistic
    ns = [m89 * p for p in (1, 2, 3, 7, 31, 37, 97, 101, 997, 99991)]
    ns += [m89 * 7 * 7, m89 * 101 * 99991, m89**2, 3 * 2**64 + 3 * 13]
    assert factor._factorize(m89 * 7) == ({7: 1, m89: 1}, True)
    assert_factorize_unchanged(ns)
    # composite cofactors past trial division that a tiny rho budget cannot split
    semiprime = 1000003 * 1000033
    ns = [semiprime, 7 * semiprime, 2 * 101 * 101 * semiprime, 99991 * semiprime * 1000037, m89 * semiprime]
    for n in ns:
        assert factorize_outcome(factor._factorize, n, 4)[0] == "timeout", n
    assert_factorize_unchanged(ns, 4)


def test_import_and_small_factorizations_build_only_small_blocks():
    src = str(Path(pclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import pclab.cli; from pclab import factor; "
            "n0, t0 = len(factor._trial_blocks), len(factor._least_factors); "
            "factor.factor_signature(2 * 3 * 5 * 7 * 11 * 13 * 101 * 103); "
            "print(n0, t0, len(factor._trial_blocks), factor._trial_blocks[-1][1])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    n0, t0, n1, last = map(int, out.stdout.split())
    # importing builds neither the trial blocks nor the least-factor table
    assert n0 == 0 and t0 == 0 and n1 <= 3 and last < 2000


def test_least_factor_table_against_remainders():
    table = np.frombuffer(factor._least_factor_table(), dtype=np.uint8)
    assert table.size == factor._TABLE_LIMIT // 2
    m = np.arange(1, factor._TABLE_LIMIT, 2, dtype=np.int64)
    least = np.zeros(m.size, dtype=np.int64)
    for p in primes_in(2, 1024).tolist():  # ascending, so the first hit is the least factor
        least[(least == 0) & (m % p == 0) & (m > p)] = p
    index = np.searchsorted(np.array(factor.small_primes()), least)
    assert np.array_equal(table, np.where(least > 0, index, 0))


def test_least_factor_table_bound():
    primes = factor.small_primes()
    # the table's primes run to the last one below sqrt(_TABLE_LIMIT) ...
    assert primes[factor._TABLE_PRIMES] ** 2 > factor._TABLE_LIMIT
    # ... and each index fits a byte
    assert factor._TABLE_PRIMES - 1 <= 255
    assert max(factor._least_factor_table()) == factor._TABLE_PRIMES - 1


def test_block_path_alone_matches_the_oracle(monkeypatch):
    # with no table every odd part goes through the trial blocks
    monkeypatch.setattr(factor, "_TABLE_LIMIT", 1)
    limit = 1 << 17
    omega, squarefree = _omega_oracle(limit)
    got = [factor.factor_signature(n) for n in range(1, limit + 1)]
    assert [s.omega_big for s in got] == omega[1:].tolist()
    assert [s.squarefree for s in got] == squarefree[1:].tolist()


def factorization_signature(n):
    """factor_signature(n)'s fields formed from _factorize's dict, by the rule
    it had before odd parts were counted straight off the least-factor table."""
    factors, probabilistic = factor._factorize(n)
    omega = sum(factors.values())
    return n, omega, omega == len(factors), omega == 1 and n in factors, probabilistic


def test_table_signatures_match_the_factorization_and_the_oracle(monkeypatch):
    # every n to 2^21, whose odd parts lie on both sides of _TABLE_LIMIT, and
    # n = 2^k m for odd parts m around 2^20, squares of table primes and
    # powers of 3
    below = [2**20 - 1, 1048573, 1019 * 1021, 1021**2, 3**12]
    above = [2**20 + 1, 1048583, 3**13]
    ns = [*range(1, (1 << 21) + 1), *(m << k for m in below + above for k in range(4))]
    got = list(map(factor.factor_signature, ns))
    omega, squarefree = _omega_oracle(max(ns))
    assert [s.omega_big for s in got] == omega[ns].tolist()
    assert [s.squarefree for s in got] == squarefree[ns].tolist()
    # an odd part from 2^20 on is factored by both, so only the odd parts
    # below it, which the table decides, are compared with the factorization
    table = [*range(1, 1 << 20), *range(1 << 20, (1 << 21) + 1, 2), *(m << k for m in below for k in range(4))]
    got = dict(zip(ns, got))
    assert [got[n] for n in table] == list(map(factorization_signature, table))
    # the limit is read at each call, and an odd part equal to it is factored
    limit = 1021**2
    ns = [limit - 2, limit, 2 * limit]
    want = [factorization_signature(n) for n in ns]
    factored = []
    monkeypatch.setattr(factor, "_TABLE_LIMIT", limit)
    monkeypatch.setattr(factor, "_factorize", lambda n, f=factor._factorize: factored.append(n) or f(n))
    assert [factor.factor_signature(n) for n in ns] == want
    assert factored == [limit, 2 * limit]


@pytest.mark.parametrize("limit", [2 * 10**4, 139**2, 141**2, 100**2])
def test_omega_oracle_matches_trial_division(limit):
    # 139 is prime and 141 = 3 * 47 is not: the largest small prime of the
    # oracle's sieve is sqrt(limit) itself, or below it
    omega, squarefree = _omega_oracle(limit)
    assert omega[0] == 0 and omega.size == limit + 1
    want = [trial_signature(n) for n in range(1, limit + 1)]
    assert list(zip(omega[1:].tolist(), squarefree[1:].tolist())) == want


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
    P = factor.iroot(int(vals.max()), 3)
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


def test_signature_arrays_at_the_top_of_the_range():
    # the maximum 2^62 - 1 = 3 * 715827883 * (2^31 - 1) gives P = 1664510;
    # 1664543 and 1664549 are the primes just above P and 1664459, 1664461
    # and 1664501 the three largest below it
    q, r = 1664543, 1664549
    vals = [q * r, q * q, (2**31 - 1) ** 2, 2**61, 3**39, 1664459 * 1664461 * 1664501, 2 * q * r, 2**62 - 1]
    assert factor.iroot(max(vals), 3) == 1664510
    check_signature_arrays(vals)


@given(st.lists(st.integers(1, 1 << 40), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_signature_arrays_match_factorization(vals):
    check_signature_arrays(vals)


def test_square_test_at_the_top_of_the_range():
    q = (1 << 31) - 1  # prime; q^2 is the largest square below 2^62
    m = np.array([q * q, q * q - 1, q * q + 1, (1 << 62) - 1, (q - 1) ** 2, 1, 4, 8], dtype=np.int64)
    assert factor._square_above_one(m).tolist() == [True, False, False, False, True, False, True, False]


def test_signature_arrays_out_of_range():
    for bad in ([0, 5], [1 << 62], np.array([6, 10], dtype=object),
                np.array([[4, 6], [9, 10]], dtype=np.int64), np.int64(12)):
        with pytest.raises(OutOfRange):
            factor.signature_arrays(bad)
