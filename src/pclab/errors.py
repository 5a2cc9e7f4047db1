"""Exception types and resource caps shared across the package."""
from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


class PCLabError(Exception):
    """Base class for all package-specific errors."""


class NotAFraction(PCLabError, ValueError):
    """Exponent text is neither a finite decimal nor a fraction."""


class IntegerExponent(PCLabError, ValueError):
    """Exponent reduces to an integer; only non-integer exponents are meaningful here."""


class OutOfRange(PCLabError, ValueError):
    """Argument outside the documented domain."""


class Overflow(PCLabError):
    """Result would exceed the configured bit budget."""


class PrecisionExhausted(PCLabError):
    """Escalating-precision evaluation hit the precision cap without deciding."""


class RangeTooLarge(PCLabError):
    """Requested range or term count exceeds the configured cap."""


class FactorizationTimeout(PCLabError):
    """Factorization budget exceeded; ``partial`` carries what was found."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class NonPositiveRho(PCLabError, ValueError):
    """The exponent-saving formula is non-positive for these parameters."""


class InvalidR(PCLabError, ValueError):
    """Almost-prime order outside the supported range."""


class NoCrossing(PCLabError):
    """The inequality indicator does not change truth value on the scanned range."""


@dataclass(frozen=True)
class Caps:
    """Resource caps; desk-scale defaults, overridable via PSC_LAB_CAP."""

    primes_hi: int = 10**10          # largest sieve endpoint
    mangoldt_x: int = 2 * 10**7      # largest von Mangoldt table
    weyl_terms: int = 10**8          # terms in one Weyl sum
    trilinear_terms: int = 10**8     # D*M*L term budget
    triple_term_evals: int = 10**9   # H*D*x budget for the weighted triple sum
    floor_exact_bits: int = 10**6    # exact root while the radicand has <= this many bits (and den <= 64)
    prec_cap_bits: int = 10**5       # interval-arithmetic escalation cap


# Caps that PSC_LAB_CAP=<int> rewrites wholesale (the count-like ones).
_COUNT_CAPS = (
    "primes_hi",
    "mangoldt_x",
    "weyl_terms",
    "trilinear_terms",
    "triple_term_evals",
)


def _cap_value(text: str) -> int:
    """A cap value: exact text as exactpow.as_ratio reads it, a non-negative integer."""
    from .exactpow import as_ratio  # exactpow imports this module

    try:
        value = as_ratio(text)
        if value.denominator == 1 and value >= 0:
            return value.numerator
    except NotAFraction:
        pass
    raise OutOfRange(f"cap value in PSC_LAB_CAP is not a non-negative integer: {text.strip()!r}")


def caps_from_env(env: str | None = None) -> Caps:
    """Build caps from PSC_LAB_CAP.

    A bare integer replaces every count-like cap; ``name=value`` pairs
    (comma separated) override individual fields, e.g.
    ``PSC_LAB_CAP=weyl_terms=1e9,prec_cap_bits=2e5``.  Each value must be
    an exact non-negative integer; any other raises OutOfRange.
    """
    raw = os.environ.get("PSC_LAB_CAP") if env is None else env
    caps = Caps()
    if not raw:
        return caps
    raw = raw.strip()
    valid = {f.name for f in fields(Caps)}
    if "=" not in raw:
        value = _cap_value(raw)
        return replace(caps, **{name: value for name in _COUNT_CAPS})
    updates = {}
    for part in raw.split(","):
        name, _, val = part.partition("=")
        name = name.strip()
        if name not in valid:
            raise OutOfRange(f"unknown cap name in PSC_LAB_CAP: {name!r}")
        updates[name] = _cap_value(val)
    return replace(caps, **updates)


# library default; PSC_LAB_CAP is read by the pclab command (cli.run)
DEFAULT_CAPS = Caps()
