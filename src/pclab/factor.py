"""Exact multiplicative structure of integers up to 2^127.

Primality is deterministic below 2^64 (strong test to bases chosen by the
size of n, _intmath._MR_TIERS); above that a 64-round seeded random-base
test plus a strong Lucas check is used and the result is flagged
probabilistic.  Factorization is trial division to 10^5 followed by
Brent-cycle Pollard rho with a deterministic constant sequence, so repeated
runs agree bit for bit.  Trial division takes one gcd of the cofactor with
the product of each block of consecutive primes (Bernstein 2004).  A block
starting at the prime q holds only primes below q^2 and is reached with
every smaller prime divided out, so the rule is exact: a cofactor below q^2
is 1 or a prime, and a gcd up to the block's last prime is one prime, as
two block primes multiply past q^2.  Only a larger gcd is scanned prime by
prime (``_intmath.factorize``).

``signature_arrays`` decides the same structure for a whole int64 array at
once, by trial division to the cube root of its largest element, and
``is_prime_array`` decides primality for a whole int64 array: one numpy
strong test to the bases of ``_MR_TIERS``'s tier for its largest element
below 2^50, with ``is_prime`` one by one from 2^50 on.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _intmath
from .errors import OutOfRange
from .primes import _simple_sieve

TWO62 = 1 << 62
TWO127 = 1 << 127


class _SignatureFields(NamedTuple):
    n: int
    omega_big: int        # Omega(n): prime factors counted with multiplicity
    squarefree: bool
    prime: bool
    probabilistic: bool = False


class FactorSignature(_SignatureFields):
    """Immutable, compared and hashed by value; inconsistent fields raise
    OutOfRange, also through ``_make`` and ``_replace``."""

    __slots__ = ()

    def __new__(cls, n, omega_big, squarefree, prime, probabilistic=False):
        if (omega_big == 0) != (n == 1) or (prime and omega_big != 1):
            raise OutOfRange(f"inconsistent factor signature for n={n}")
        return tuple.__new__(cls, (n, omega_big, squarefree, prime, probabilistic))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def is_prime(n: int) -> bool:
    """Primality verdict; deterministic for n < 2^64."""
    return _intmath.is_prime(n)


def factor_signature(n: int, rho_budget: int = 1 << 24) -> FactorSignature:
    """Omega, squarefree and primality flags from a complete factorization.

    Raises FactorizationTimeout (with the partial factorization attached)
    if the rho budget runs out.
    """
    if n < 1 or n >= TWO127:
        raise OutOfRange("factor_signature needs 1 <= n < 2^127")
    factors, probabilistic = _intmath.factorize(n, rho_budget)
    omega = sum(factors.values())
    # every exponent is at least 1, so omega == len(factors) only if all are 1
    return FactorSignature(n, omega, omega == len(factors), omega == 1 and n in factors, probabilistic)


def factorize(n: int, rho_budget: int = 1 << 24) -> dict[int, int]:
    """Complete factorization {prime: exponent} of n >= 1."""
    if n < 1 or n >= TWO127:
        raise OutOfRange("factorize needs 1 <= n < 2^127")
    return _intmath.factorize(n, rho_budget)[0]


def signature_arrays(vals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega_small, squarefree, cofactor) for an int64 array of 1 <= v < 2^62.

    With P = iroot(max(vals), 3), every v is divided by all primes p <= P:
    omega_small counts those factors with multiplicity and cofactor is what
    is left.  Since (P + 1)^3 > max(vals), each cofactor has at most two
    prime factors, all above P: it is 1, a prime, q^2 or q*r.  Hence
    Omega(v) = omega_small + [cofactor > 1] + [cofactor composite], and
    squarefree is final: no small exponent exceeds 1 and the cofactor is not
    a perfect square above 1.  Only Omega may still need a primality test.
    """
    vals = np.asarray(vals)
    if vals.dtype != np.int64 or (vals.size and (int(vals.min()) < 1 or int(vals.max()) >= TWO62)):
        raise OutOfRange("signature_arrays needs an int64 array with 1 <= v < 2^62")
    cofactor = vals.copy()
    omega_small = np.zeros(vals.shape, dtype=np.int64)
    squarefree = np.ones(vals.shape, dtype=bool)
    top = int(vals.max()) if vals.size else 1
    for p in _simple_sieve(_intmath.iroot(top, 3)).tolist():
        hit = np.flatnonzero(cofactor % p == 0)
        while hit.size:
            cofactor[hit] //= p
            omega_small[hit] += 1
            hit = hit[cofactor[hit] % p == 0]
            squarefree[hit] = False  # p divides these at least twice
    squarefree &= ~_square_above_one(cofactor)
    return omega_small, squarefree, cofactor


_MULMOD_LIMIT = 1 << 50


def is_prime_array(vals) -> np.ndarray:
    """is_prime(v) for each v of an int64 array, deterministic below 2^64.

    The screen is primality's: the bases themselves are prime, their
    multiples composite, and what is left below 37^2 prime.  The rest below
    2^50 take the strong test together, to the _intmath._MR_TIERS bases of
    the tier of their largest element; each tier is deterministic below its
    bound, so for every element of the array.  Base by base, an element
    leaves as soon as a base witnesses it composite.  Elements from 2^50 on
    go to is_prime one by one.
    """
    vals = np.asarray(vals)
    if vals.dtype != np.int64 or vals.ndim != 1:
        raise OutOfRange("is_prime_array needs a 1-D int64 array")
    prime = np.isin(vals, _intmath.MR_BASES_64)
    rest = vals > _intmath.MR_BASES_64[-1]
    for p in _intmath.MR_BASES_64:
        rest &= vals % p != 0
    prime |= rest & (vals < 37 * 37)
    rest &= vals >= 37 * 37
    big = np.flatnonzero(rest & (vals >= _MULMOD_LIMIT))
    prime[big] = [is_prime(v) for v in vals[big].tolist()]
    idx = np.flatnonzero(rest & (vals < _MULMOD_LIMIT))
    if not idx.size:
        return prime
    n = vals[idx]
    top = int(n.max())
    bases = next(bases for bound, bases in _intmath._MR_TIERS if top < bound)
    # n - 1 = d * 2^s with d odd; the lowest set bit of n - 1 is 2^s
    low = (n - 1) & (1 - n)
    d = (n - 1) // low
    s = np.frexp(low.astype(np.float64))[1] - 1
    for a in bases:
        x = _powmod(np.full(n.shape, a, dtype=np.int64), d, n)
        passed = (x == 1) | (x == n - 1)
        for i in range(1, int(s.max())):
            x = _mulmod(x, x, n)
            passed |= (x == n - 1) & (i < s)
        idx, n, d, s = idx[passed], n[passed], d[passed], s[passed]
        if not idx.size:
            return prime
    prime[idx] = True
    return prime


def _mulmod(a: np.ndarray, b: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a*b mod n for int64 arrays with 0 <= a, b < n < 2^50.

    Error argument (the float quotient of Barrett, CRYPTO '86; Moller &
    Granlund, IEEE TC 60(2), 2011): a, b and n are exact in float64, and
    ab/n < n - 1 < 2^50.  Rounding a*b and then the quotient errs by a
    relative (1 + 2^-53)^2 - 1 = 2^-52 + 2^-106, so the float quotient is
    within (2^50 - 1)(2^-52 + 2^-106) < 1/4 of ab/n, and q = floor of it is
    within 1 of floor(ab/n).  Then r = ab - q*n lies in [-n, 2n), so
    |r| < 2^51: the int64 products wrap modulo 2^64, but their difference is
    exactly r.  One correction of n either way brings r into [0, n).
    """
    q = np.floor(a.astype(np.float64) * b.astype(np.float64) / n.astype(np.float64)).astype(np.int64)
    r = a * b - q * n
    r += n * (r < 0)
    r -= n * (r >= n)
    return r


def _powmod(a: np.ndarray, e: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a^e mod n elementwise, by square-and-multiply; 0 <= a < n < 2^50, e >= 0."""
    r = np.ones_like(n)
    for bit in range(int(e.max()).bit_length()):
        if bit:
            a = _mulmod(a, a, n)
        r = np.where((e >> bit) & 1 == 1, _mulmod(r, a, n), r)
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
