"""Exact multiplicative structure of integers up to 2^127.

Primality is deterministic below 2^64 (fixed 12-base strong test); above
that a 64-round seeded random-base test plus a strong Lucas check is used
and the result is flagged probabilistic.  Factorization is trial division
to 10^5 followed by Brent-cycle Pollard rho with a deterministic constant
sequence, so repeated runs agree bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import _intmath
from .errors import OutOfRange

TWO127 = 1 << 127


@dataclass(frozen=True)
class FactorSignature:
    n: int
    omega_big: int        # Omega(n): prime factors counted with multiplicity
    squarefree: bool
    prime: bool
    probabilistic: bool = False

    def __post_init__(self):
        if (self.omega_big == 0) != (self.n == 1) or (self.prime and self.omega_big != 1):
            raise OutOfRange(f"inconsistent factor signature for n={self.n}")


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
    return FactorSignature(
        n=n,
        omega_big=omega,
        squarefree=all(e == 1 for e in factors.values()),
        prime=(omega == 1 and n in factors),
        probabilistic=probabilistic,
    )


def factorize(n: int, rho_budget: int = 1 << 24) -> dict[int, int]:
    """Complete factorization {prime: exponent} of n >= 1."""
    if n < 1 or n >= TWO127:
        raise OutOfRange("factorize needs 1 <= n < 2^127")
    return _intmath.factorize(n, rho_budget)[0]
