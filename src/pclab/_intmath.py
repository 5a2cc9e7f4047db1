"""Integer primitives: exact roots, primality, and deterministic factorization.

Shared by the certified-power kernels and the factorization front end.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache
from math import gcd

from .errors import FactorizationTimeout
from .primes import primes_in
from .prng import splitmix64

TWO64 = 1 << 64

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


# Below 2^30 (one CPython digit) the remaining block gcds decide a cofactor
# faster than the strong test does.  Any threshold up to 2^64 gives the same
# result: below it the test is deterministic and agrees with trial division,
# and from it on the cofactors tested are the ones tested after each found
# prime, so the probabilistic flag is set by the same verdicts.
_PRIMALITY_FROM = 1 << 30


def factorize(n: int, rho_budget: int = 1 << 24) -> tuple[dict[int, int], bool]:
    """Complete factorization of n >= 1 as {prime: exponent}.

    Returns (factors, probabilistic_flag).  Trial division runs to 10^5 with
    one gcd of the cofactor m per trial block (Bernstein, "How to find
    smooth parts of integers", 2004), and is exact.  A block is entered with
    no prime below its first prime q left in m, so m < q^2 leaves m equal to
    1 or a prime, and the division stops.  The gcd g is a product of
    distinct block primes, any two of which multiply past q^2 and so past
    every block prime: a g up to the block's last prime is that prime, and
    only a larger g is scanned prime by prime.  Found primes enter in
    ascending order.  After a found prime p with p^2 <= m, a cofactor
    m >= 2^30 is tested, and a prime one ends the division.  A cofactor left
    beyond 10^5 is tested, and composites go to Brent rho.  Raises
    FactorizationTimeout (carrying the partial result) if the rho budget is
    exceeded.
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
