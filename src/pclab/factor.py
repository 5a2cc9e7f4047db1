"""Integer arithmetic: exact roots, primality and factorization.

``iroot`` and ``perfect_root`` are the exact integer roots that the
certified-power kernels of ``exactpow`` build on.  ``is_prime`` is the
package's one primality entry: the verdict of ``primality``, which also
reports whether it is deterministic.  Primality is deterministic below 2^64
(strong test to bases chosen by the size of n, ``_MR_TIERS``); above that a
64-round seeded random-base test plus a strong Lucas check is used and the
result is flagged probabilistic.  Factorization, up to 2^127 through
``factorize`` and ``factor_signature``, is trial division to 10^5 with one
gcd per block of consecutive primes (the exactness argument is at
``_factorize``), followed by Brent-cycle Pollard rho with a deterministic
constant sequence, so repeated runs agree bit for bit.  Every odd part
takes that one route.  ``factor_signature`` instead counts an odd part
below 2^20 straight off a 512 KB byte table of least prime factors
(Crandall & Pomerance, Prime Numbers, 2nd ed., 2005, ch. 3), built on
first use, without building its factorization; why the table is exact is
said at ``_TABLE_LIMIT``.

``signature_arrays`` decides the same structure for a whole int64 array at
once, by trial division to the cube root of its largest element, and
``is_prime_array`` decides primality for a whole int64 array: below 2^50
each element takes the bases of its own ``_MR_TIERS`` tier, and each base
is one numpy strong test, one left-to-right pass over the bits of n - 1
that multiplies by the base's small powers once per window of bits (the
error argument, for multipliers below 2^13, is at ``_mulmod``); from 2^50
on, ``is_prime`` decides one by one.
Neither array kernel takes a remainder by a prime: its trial division and
its base screen test divisibility exactly by one multiply by the prime's
inverse mod 2^64 and one compare (``_divisibility_screen``), and divide
only the hits.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache
from math import gcd
from typing import NamedTuple

import numpy as np

from .errors import FactorizationTimeout, OutOfRange
from .primes import primes_in
from .prng import splitmix64

TWO62 = 1 << 62
TWO64 = 1 << 64
TWO127 = 1 << 127

# Deterministic Miller-Rabin witness set for n < 2^64 (Sorenson & Webster).
MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, bases), each bound the least strong pseudoprime to its bases, so
# primality's first tier with n < bound is deterministic (Pomerance, Selfridge
# & Wagstaff 1980; Jaeschke 1993; Jiang & Deng 2014; Sorenson & Webster 2017).
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (4759123141, (2, 7, 61)),
    (2152302898747, MR_BASES_64[:5]),
    (3474749660383, MR_BASES_64[:6]),
    (341550071728321, MR_BASES_64[:7]),
    (3825123056546413051, MR_BASES_64[:9]),
    (TWO64, MR_BASES_64),
)


def iroot(x: int, k: int) -> int:
    """Largest r with r**k <= x, for x >= 0, k >= 1.  Exact."""
    if x < 0 or k < 1:
        raise ValueError("iroot needs x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return math.isqrt(x)
    b = x.bit_length()
    if b <= k:  # x < 2^k  =>  root is 1
        return 1
    if b // k < 1000:
        # Seed above the root from floats.  math.log2(x) errs by at most
        # 2^-51 + log2(x)*2^-52 (x rounded to 53 bits, then one ulp), so
        # y = log2(x)/k < 1001 errs by under 2^-51/k + 3*y*2^-53 < 2^-41, and
        # 2.0**y by a relative 2^-41*ln 2 plus one ulp: under 2^-40 in all.
        # The factor 1 + 2^-30 lifts the float above x^(1/k), and int(.) + 1
        # lifts the seed above the root, so Newton descends onto it.
        r = int(2.0 ** (math.log2(x) / k) * (1 + 2**-30)) + 1
    else:
        r = 1 << -(-b // k)  # upper-ish seed from the bit length
    while True:
        t = ((k - 1) * r + x // r ** (k - 1)) // k
        if t >= r:
            break
        r = t
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def perfect_root(x: int, k: int) -> int | None:
    """r if x == r**k exactly, else None."""
    r = iroot(x, k)
    return r if r ** k == x else None


def _mr_composite_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if base a proves n composite (strong test)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test (Selfridge parameters)."""
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while True:
        j = _jacobi(d % n, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    # n + 1 = m * 2^s with m odd
    m, s = n + 1, 0
    while m % 2 == 0:
        m //= 2
        s += 1
    # Lucas chain for U_m, V_m
    u, v, qk = 1, p, q % n
    for bit in bin(m)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = (u // 2) % n, (v // 2) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def primality(n: int) -> tuple[bool, bool]:
    """(is_prime, deterministic).  Deterministic verdicts below 2^64."""
    if n < 2:
        return False, True
    for p in MR_BASES_64:
        if n == p:
            return True, True
        if n % p == 0:
            return False, True
    if n < 37 * 37:
        return True, True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < TWO64:
        for bound, bases in _MR_TIERS:
            if n < bound:
                break
        for a in bases:
            if _mr_composite_witness(n, a, d, s):
                return False, True
        return True, True
    # Probabilistic path: 64 pseudo-random bases (seeded by n, reproducible)
    # plus a strong Lucas check.
    for r in splitmix64(n, 64):
        a = 2 + r % (n - 3)
        if _mr_composite_witness(n, a, d, s):
            return False, True
    return _strong_lucas_prp(n), False


def brent_rho(n: int, budget: list[int]) -> int | None:
    """A non-trivial factor of odd composite n via Brent-cycle Pollard rho.

    Polynomial constants are tried in the fixed order 1, 2, 3, ... so results
    are reproducible.  ``budget`` is a single-element mutable iteration budget
    shared across calls; None is returned only when it runs dry.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, r, q, g = 2, 1, 1, 1
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= min(m, r - k)
                if budget[0] <= 0:
                    return None
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget[0] -= 1
                if budget[0] <= 0:
                    return None
        if g != n:
            return g
    return None


@cache
def small_primes() -> list[int]:
    """Primes up to 10^5, cached (trial-division table)."""
    return primes_in(0, 10**5).tolist()


# Trial blocks: runs of consecutive primes from 7 to 10^5, each run's primes
# p in [q, q^2) for its first prime q and their product at most
# _BLOCK_BITS bits, so that one gcd per block stays cheap.  Entries are
# (q^2, last prime, product, primes), appended on first use.
_BLOCK_BITS = 1 << 10
_trial_blocks: list[tuple[int, int, int, tuple[int, ...]]] = []


def _add_trial_block() -> bool:
    """Append the next trial block; False once every prime to 10^5 is in one."""
    primes = small_primes()
    start = bisect_right(primes, _trial_blocks[-1][1]) if _trial_blocks else 3
    if start == len(primes):
        return False
    q = primes[start]
    end, product = start, 1
    while end < len(primes) and primes[end] < q * q and (product * primes[end]).bit_length() <= _BLOCK_BITS:
        product *= primes[end]
        end += 1
    _trial_blocks.append((q * q, primes[end - 1], product, tuple(primes[start:end])))
    return True


# Least prime factors of the odd m below _TABLE_LIMIT, for ``factor_signature``:
# entry m >> 1 holds the index in small_primes() of m's least prime factor,
# or 0 when m is 1 or prime.  Exact: every odd composite m < 2^20 has a prime
# factor at most sqrt(m) < 1024; the primes below 1024 are the first
# _TABLE_PRIMES = 172 of small_primes(), so every index fits a byte; and
# index 0 is the prime 2, which divides no odd m, so 0 is free to mean
# "1 or prime".  512 KB, built on first use by ``_least_factor_table``.
_TABLE_LIMIT = 1 << 20
_TABLE_PRIMES = 172
_least_factors = bytearray()


def _least_factor_table() -> bytearray:
    """The least-factor table, built on first use from small_primes().

    The primes 3 to 1021 are written at their odd multiples from p^2, in
    descending order, so an entry's last writer is its least prime factor.
    They are written in place through a numpy view, so the build makes no
    copy; the table is kept as that bytearray, which indexes as fast as bytes.
    """
    global _least_factors
    if not _least_factors:
        primes = small_primes()
        table = bytearray(_TABLE_LIMIT >> 1)
        view = np.frombuffer(table, dtype=np.uint8)
        for i in range(_TABLE_PRIMES - 1, 0, -1):
            view[primes[i] ** 2 >> 1 :: primes[i]] = i
        _least_factors = table
    return _least_factors


# Below 2^30 (one CPython digit) the remaining block gcds decide a cofactor
# faster than the strong test does.  Any threshold up to 2^64 gives the same
# result: below it the test is deterministic and agrees with trial division,
# and from it on the cofactors tested are the ones tested after each found
# prime, so the probabilistic flag is set by the same verdicts.
_PRIMALITY_FROM = 1 << 30


def _factorize(n: int, rho_budget: int = 1 << 24) -> tuple[dict[int, int], bool]:
    """Complete factorization of n >= 1 as {prime: exponent}.

    Returns (factors, probabilistic_flag).  Once the 2s, 3s and 5s are
    stripped, the odd part m is trial divided to 10^5 with one gcd of the
    cofactor m per trial block (Bernstein, "How to find smooth parts of
    integers", 2004), which is exact.  A block is entered with no prime
    below its first prime q left in m, so m < q^2 leaves m equal to 1 or a
    prime, and the division stops.  The gcd g is a product of distinct
    block primes, any two of which multiply past q^2 and so past every block
    prime: a g up to the block's last prime is that prime, and only a larger
    g is scanned prime by prime.  Found primes enter in ascending order.
    After a found prime p with p^2 <= m, a cofactor m >= 2^30 is tested, and
    a prime one ends the division.  A cofactor left beyond 10^5 is tested,
    and composites go to Brent rho.  Raises FactorizationTimeout (carrying
    the partial result) if the rho budget is exceeded.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    factors: dict[int, int] = {}
    probabilistic = False
    m = n
    if not m & 1:
        e = (m & -m).bit_length() - 1
        factors[2] = e
        m >>= e
    for p in (3, 5):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
    blocks = _trial_blocks
    i = 0
    while i < len(blocks) or _add_trial_block():
        q2, last, product, block = blocks[i]
        i += 1
        if m < q2:
            if m > 1:
                factors[m] = 1
            return factors, probabilistic
        g = gcd(m, product)
        while g > 1:
            if g <= last:
                p = g
            else:
                for p in block:
                    if g % p == 0:
                        break
            g //= p
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
            if m >= _PRIMALITY_FROM and p * p <= m:
                verdict, det = primality(m)
                probabilistic |= not det
                if verdict:
                    factors[m] = 1
                    return factors, probabilistic
    # m is 1 here when the last trial prime divided it out completely
    pending = [m] if m > 1 else []
    budget = [rho_budget]
    while pending:
        m = pending.pop()
        verdict, det = primality(m)
        probabilistic |= not det
        if verdict:
            factors[m] = factors.get(m, 0) + 1
            continue
        r = perfect_root(m, 2)
        if r is not None:
            pending.extend((r, r))
            continue
        d = brent_rho(m, budget)
        if d is None or d == m:
            raise FactorizationTimeout(
                f"factorization budget exceeded at cofactor {m}",
                partial=(dict(factors), m),
            )
        pending.extend((d, m // d))
    return factors, probabilistic


class _SignatureFields(NamedTuple):
    n: int
    omega_big: int        # Omega(n): prime factors counted with multiplicity
    squarefree: bool
    prime: bool
    probabilistic: bool = False


_tuple_new = tuple.__new__  # bound once, as collections.namedtuple does


def _signature(cls, n, omega_big, squarefree, prime, probabilistic):
    """A cls of these fields, which must be consistent: Omega is 0 exactly
    for n = 1, and a prime has Omega 1.  Every FactorSignature is built here."""
    if (omega_big == 0) != (n == 1) or (prime and omega_big != 1):
        raise OutOfRange(f"inconsistent factor signature for n={n}")
    return _tuple_new(cls, (n, omega_big, squarefree, prime, probabilistic))


class FactorSignature(_SignatureFields):
    """Immutable, compared and hashed by value; inconsistent fields raise
    OutOfRange, also through ``_make`` and ``_replace``."""

    __slots__ = ()

    def __new__(cls, n, omega_big, squarefree, prime, probabilistic=False):
        return _signature(cls, n, omega_big, squarefree, prime, probabilistic)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def is_prime(n: int) -> bool:
    """Primality verdict; deterministic for n < 2^64."""
    return primality(n)[0]


def factor_signature(n: int) -> FactorSignature:
    """Omega, squarefree and primality flags of n.

    When the odd part m of n is below _TABLE_LIMIT, Omega and squarefreeness
    are counted straight off the least-factor table, with no factorization
    built: each lookup gives the least prime q of m, m is divided by q once,
    and a q equal to the one before it, or a prime left over equal to the
    last q, is a repeated factor.  A larger odd part is factored by
    ``_factorize``.  Either way n is prime exactly when Omega(n) = 1.

    Raises FactorizationTimeout (with the partial factorization attached)
    if Brent rho runs past its 2^24 iterations.
    """
    if n < 1 or n >= TWO127:
        raise OutOfRange("factor_signature needs 1 <= n < 2^127")
    twos = (n & -n).bit_length() - 1
    m = n >> twos
    if m < _TABLE_LIMIT:
        table = _least_factors or _least_factor_table()
        primes = small_primes()
        omega = twos + (m > 1)
        squarefree = twos < 2
        q = 0
        i = table[m >> 1]
        while i:
            p = primes[i]
            if p == q:
                squarefree = False
            q = p
            m //= p
            omega += 1
            i = table[m >> 1]
        if m == q:
            squarefree = False
        return _signature(FactorSignature, n, omega, squarefree, omega == 1, False)
    factors, probabilistic = _factorize(n)
    omega = sum(factors.values())
    # every exponent is at least 1, so omega == len(factors) only if all are 1
    return _signature(FactorSignature, n, omega, omega == len(factors), omega == 1, probabilistic)


def factorize(n: int) -> dict[int, int]:
    """Complete factorization {prime: exponent} of n >= 1."""
    if n < 1 or n >= TWO127:
        raise OutOfRange("factorize needs 1 <= n < 2^127")
    return _factorize(n)[0]


def _divisibility_screen(p: int) -> tuple[np.uint64, np.uint64]:
    """(w, L) such that a prime p divides a uint64 v exactly when v*w mod 2^64 <= L.

    For odd p, w = p^-1 mod 2^64 and L = floor((2^64 - 1)/p) (Granlund &
    Montgomery, PLDI '94; Lemire, Kaser & Kurz, Softw. Pract. Exp. 49(6),
    2019).  Exactness: p is odd, so multiplication by w permutes the residues
    mod 2^64.  The multiples of p below 2^64 are k*p for 0 <= k <= L, and
    k*p*w = k mod 2^64, so the permutation maps them onto 0, ..., L.  Every
    other v therefore lands above L.  For p = 2, w = 2^63 maps every even v
    to 0 and every odd v to 2^63, and L = 2^63 - 1 lies between.  The
    wrapping multiply is one numpy uint64 product, which wraps without a
    warning on arrays.
    """
    if p == 2:
        return np.uint64(1 << 63), np.uint64((1 << 63) - 1)
    return np.uint64(pow(p, -1, TWO64)), np.uint64((TWO64 - 1) // p)


def signature_arrays(vals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega_small, squarefree, cofactor) for a 1-D int64 array of 1 <= v < 2^62.

    With P = iroot(max(vals), 3), every v is divided by all primes p <= P:
    omega_small counts those factors with multiplicity and cofactor is what
    is left.  Since (P + 1)^3 > max(vals), each cofactor has at most two
    prime factors, all above P: it is 1, a prime, q^2 or q*r.  Hence
    Omega(v) = omega_small + [cofactor > 1] + [cofactor composite], and
    squarefree is final: no small exponent exceeds 1 and the cofactor is not
    a perfect square above 1.  Only Omega may still need a primality test.
    Each prime screens the cofactors with ``_divisibility_screen``'s
    multiply and compare, which is exact, and divides only the hits.
    """
    vals = np.asarray(vals)
    if vals.dtype != np.int64 or vals.ndim != 1 or (vals.size and (int(vals.min()) < 1 or int(vals.max()) >= TWO62)):
        raise OutOfRange("signature_arrays needs a 1-D int64 array with 1 <= v < 2^62")
    cofactor = vals.copy()
    omega_small = np.zeros(vals.shape, dtype=np.int64)
    squarefree = np.ones(vals.shape, dtype=bool)
    top = int(vals.max()) if vals.size else 1
    residues = cofactor.view(np.uint64)  # the cofactors, as the screen reads them
    for p in primes_in(0, iroot(top, 3)).tolist():
        w, limit = _divisibility_screen(p)
        hit = np.flatnonzero(residues * w <= limit)
        while hit.size:
            cofactor[hit] //= p
            omega_small[hit] += 1
            hit = hit[residues[hit] * w <= limit]
            squarefree[hit] = False  # p divides these at least twice
    squarefree &= ~_square_above_one(cofactor)
    return omega_small, squarefree, cofactor


_MULMOD_LIMIT = 1 << 50
_MULTIPLIER_LIMIT = 1 << 13  # so that a multiplier times an operand below _MULMOD_LIMIT stays below 2^63


def _window_powers(a: int) -> np.ndarray:
    """a^j for 0 <= j < 2^w, w the largest window with every a^j below 2^13."""
    w = 1
    while a ** ((2 << w) - 1) < _MULTIPLIER_LIMIT:
        w += 1
    return np.array([a ** j for j in range(1 << w)])


# The tiers below 2^50: n takes tier t = searchsorted(_TIER_BOUNDS, n, "right"),
# _TIER_BASES[a][t] says whether tier t has base a, and _WINDOWS[a] holds
# base a's window multipliers.
_TIER_BOUNDS = np.array([bound for bound, _ in _MR_TIERS if bound < _MULMOD_LIMIT])
_ARRAY_TIERS = [bases for _, bases in _MR_TIERS[: _TIER_BOUNDS.size + 1]]
_TIER_BASES = {a: np.array([a in bases for bases in _ARRAY_TIERS]) for a in sorted(set().union(*_ARRAY_TIERS))}
_WINDOWS = {a: _window_powers(a) for a in _TIER_BASES}


def is_prime_array(vals) -> np.ndarray:
    """is_prime(v) for each v of an int64 array, deterministic below 2^64.

    The screen is primality's: the bases themselves are prime, their
    multiples composite, and what is left below 37^2 prime.  Multiples are
    found by ``_divisibility_screen``'s exact multiply and compare.  The
    rest below 2^50 take the strong test, each element to the _MR_TIERS
    bases of its own tier, which is deterministic below its bound.  Base by
    base, the elements whose tier has that base take ``_strong_test``
    together, and an element leaves as soon as a base witnesses it
    composite.  Elements from 2^50 on go to is_prime one by one.
    """
    vals = np.asarray(vals)
    if vals.dtype != np.int64 or vals.ndim != 1:
        raise OutOfRange("is_prime_array needs a 1-D int64 array")
    prime = np.isin(vals, MR_BASES_64)
    rest = vals > MR_BASES_64[-1]
    residues = vals.view(np.uint64)  # negative v are already out of rest
    for p in MR_BASES_64:
        w, limit = _divisibility_screen(p)
        rest &= residues * w > limit
    prime |= rest & (vals < 37 * 37)
    rest &= vals >= 37 * 37
    big = np.flatnonzero(rest & (vals >= _MULMOD_LIMIT))
    prime[big] = [is_prime(v) for v in vals[big].tolist()]
    idx = np.flatnonzero(rest & (vals < _MULMOD_LIMIT))
    n = vals[idx]
    tier = np.searchsorted(_TIER_BOUNDS, n, side="right").astype(np.int8)  # one byte per survivor
    for a, takes in _TIER_BASES.items():
        use = takes[tier]
        if use.any():
            keep = ~use
            keep[use] = _strong_test(a, n[use])
            idx, n, tier = idx[keep], n[keep], tier[keep]
    prime[idx] = True
    return prime


def _strong_test(a: int, n: np.ndarray) -> np.ndarray:
    """n passes the strong test to base a, for an int64 array of odd 37^2 <= n < 2^50.

    With n - 1 = d * 2^s, d odd, n passes when a^d = 1 or a^(d 2^r) = n - 1
    for some 0 <= r < s (mod n).  One left-to-right pass over the bit
    positions b of n - 1 keeps x = a^((n - 1) >> b) mod n, so the array
    takes one squaring per bit of its largest n - 1, and n passes when
    x is 1 or n - 1 at b = s, or x is n - 1 at some 1 <= b < s.  Above the
    largest s no element checks, so the pass squares w times and then
    multiplies by a^j, j the next w bits, with w the largest window whose
    multipliers a^j stay below 2^13 (k-ary exponentiation; Menezes, van
    Oorschot & Vanstone, Handbook of Applied Cryptography, 1996, 14.6):
    w = 3 for bases 2 and 3, 2 for 5 to 19, 1 from 23 on.  Below it the pass
    takes one bit at a time.  Leading zero bits of a shorter n - 1 keep x at
    1, so every element shares the pass.
    """
    powers = _WINDOWS[a]
    w = powers.size.bit_length() - 1
    mask = powers.size - 1
    nf = n.astype(np.float64)
    n1 = n - 1
    s = np.frexp((n1 & -n1).astype(np.float64))[1] - 1  # the lowest set bit of n - 1 is 2^s
    s_max = int(s.max())
    b = s_max + (int(n1.max()).bit_length() - 1 - s_max) // w * w
    x = powers[(n1 >> b) & mask] % n  # a^j may exceed a small n
    while b > s_max:
        b -= w
        for _ in range(w):
            x = _mulmod(x, x, n, nf)
        x = _mulmod(x, powers[(n1 >> b) & mask], n, nf)
    passed = ((x == 1) | (x == n1)) & (s == s_max)
    for b in range(s_max - 1, 0, -1):
        x = _mulmod(x, x, n, nf)
        x = _mulmod(x, powers[(n1 >> b) & 1], n, nf)
        passed |= ((x == n1) & (s >= b)) | ((x == 1) & (s == b))
    return passed


def _mulmod(a: np.ndarray, b, n: np.ndarray, nf: np.ndarray) -> np.ndarray:
    """a*b mod n for an int64 array 0 <= a < n < 2^50, with nf = n as float64.

    b is an int64 array with 0 <= b < n (a square), or an int or int64 array
    with 0 <= b < 2^13 (the window multipliers of ``_strong_test``), which
    may exceed n.

    Error argument (the float quotient of Barrett, CRYPTO '86; Moller &
    Granlund, IEEE TC 60(2), 2011): a, b and n are exact in float64.
    Rounding a*b and then the quotient errs by a relative
    (1 + 2^-53)^2 - 1 = 2^-52 + 2^-106.  For b < n, ab/n < n - 1 < 2^50,
    so the float quotient is within (2^50 - 1)(2^-52 + 2^-106) < 1/4 of
    ab/n.  For b < 2^13, a*b < 2^63 and ab/n < b < 2^13 (as a < n), so the
    float quotient is within 2^13 (2^-52 + 2^-106) < 2^-38 of ab/n.  Either
    way q, the float quotient cast to int64 (its floor, as it is not
    negative), is within 1 of floor(ab/n).  Then r = ab - q*n lies in
    [-n, 2n), so |r| < 2^51: the int64 products wrap modulo 2^64, but their
    difference is exactly r.  One correction of n either way brings r into
    [0, n).
    """
    q = a.astype(np.float64)
    q *= b
    q /= nf
    r = a * b
    q = q.astype(np.int64)
    q *= n
    r -= q
    np.add(r, n, out=r, where=r < 0)
    np.subtract(r, n, out=r, where=r >= n)
    return r


def _square_above_one(m: np.ndarray) -> np.ndarray:
    """m == r*r with an integer r > 1, for an int64 array of 1 <= m < 2^62.

    Error argument: converting m to float64 and the correctly rounded sqrt
    each err by a relative 2^-53 at most, so the float root is within
    sqrt(m) * 2^-52 < 2^31 * 2^-52 = 2^-21 of the true root, far below 1/2.
    A square s^2 therefore rounds to r = s.  The check r*r == m is exact in
    int64: r <= 2^31, so r*r <= 2^62.
    """
    r = np.rint(np.sqrt(m.astype(np.float64))).astype(np.int64)
    return (r * r == m) & (m > 1)
