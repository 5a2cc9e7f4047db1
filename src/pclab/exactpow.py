"""Certified evaluation of powers with rational exponents.

Everything here is either exact integer arithmetic or interval arithmetic
with an explicit absolute error bound, so a returned floor is never off by
one and a returned fractional part always comes with a certified enclosure
that excludes the nearest integers.

Two evaluation paths are used throughout:

* exact -- n^num is formed as a big integer and the integer den-th root is
  taken (Newton iteration seeded from a float).  Unconditionally exact.
* certified intervals -- directed-rounding evaluation of exp(c * ln n) on
  top of mpmath's libmp primitives, starting at 128 bits and doubling until
  the floor (or the fractional part at the requested tolerance) is decided.
  Every transcendental step is widened by a fixed ulp pad, so the enclosure
  is conservative even if an underlying primitive misses correct rounding
  by a few ulps.

Exact-integer inputs (perfect den-th powers) are detected before any
interval loop; they are the only inputs for which escalation could fail to
terminate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_floor,
    mpf_log,
    mpf_mul_int,
    mpf_shift,
    mpf_sub,
    round_ceiling,
    round_floor,
    to_float,
    to_int,
)

from ._intmath import factorize, iroot, perfect_root
from .errors import (
    DEFAULT_CAPS,
    Caps,
    IntegerExponent,
    NotAFraction,
    OutOfRange,
    Overflow,
    PrecisionExhausted,
)

DEFAULT_FRAC_TOL = 1e-12
PHASE_TOL = 2.0 ** -48

# ulps of outward widening applied after every log/exp call
_ULP_PAD = 8

# fast float path: escalate whenever the fractional part is within this
# relative distance of an integer (~100x wider than the worst realistic
# libm error)
_FLOAT_REL_MARGIN = 1e-12


@dataclass(frozen=True)
class RationalExponent:
    """The exponent c as an exact reduced fraction, c > 1 and non-integer."""

    num: int
    den: int

    def __post_init__(self):
        if not isinstance(self.num, int) or not isinstance(self.den, int):
            raise NotAFraction("numerator and denominator must be integers")
        if self.num <= 0 or self.den <= 0:
            raise OutOfRange("exponent must be positive")
        g = math.gcd(self.num, self.den)
        if g != 1:
            raise NotAFraction("exponent fraction must be reduced")
        if self.den == 1:
            raise IntegerExponent(f"exponent {self.num} is an integer")
        if self.num <= self.den:
            raise OutOfRange(f"exponent {self.num}/{self.den} is not > 1")

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __float__(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def as_ratio(x) -> Fraction:
    """The package's one parser of exact ratios; floats are rejected.

    Takes a Fraction, an int, a (num, den) pair, or text: a fraction "a/b"
    or a finite decimal such as "1.0521" or "1e6".  Anything malformed,
    "1/0" included, raises NotAFraction.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    try:
        if isinstance(x, str):
            a, slash, b = x.strip().partition("/")
            return Fraction(int(a), int(b)) if slash else Fraction(a)
        if isinstance(x, tuple) and len(x) == 2:
            return Fraction(x[0], x[1])
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise NotAFraction(f"cannot interpret {x!r} as an exact ratio") from exc
    raise NotAFraction(f"cannot interpret {x!r} as an exact ratio")


def parse_exponent(text: str) -> RationalExponent:
    """Parse a finite decimal ("1.0521") or fraction ("3/2") exactly.

    Rejects integers (IntegerExponent) and values <= 1 (OutOfRange);
    anything unparseable raises NotAFraction.
    """
    if not isinstance(text, str):
        raise NotAFraction(f"expected a string, got {type(text).__name__}")
    return as_exponent(text)


def as_exponent(c) -> RationalExponent:
    """Coerce c to RationalExponent; floats are rejected to keep exactness."""
    if isinstance(c, RationalExponent):
        return c
    if isinstance(c, float):
        raise NotAFraction(
            "float exponents are ambiguous; pass a string or Fraction"
        )
    frac = as_ratio(c)
    if frac.denominator == 1:
        raise IntegerExponent(f"exponent {c} is an integer")
    if frac <= 1:
        raise OutOfRange(f"exponent {c} must be > 1")
    return RationalExponent(frac.numerator, frac.denominator)


@dataclass(frozen=True)
class CertifiedReal:
    """A real approximation with a certified absolute error bound."""

    value: float
    error_bound: float


def _exact_frac(q: Fraction) -> CertifiedReal:
    """{q} for an exact rational q, rounded to the nearest float."""
    frac = q - (q.numerator // q.denominator)
    if frac == 0:
        return CertifiedReal(0.0, 0.0)
    value = float(frac)
    return CertifiedReal(value, math.ulp(value))


# ----------------------------------------------------------------------
# interval kernel on libmp (directed rounding + ulp padding)
# ----------------------------------------------------------------------

def _pad_down(x, prec):
    if x == fzero:
        return x
    return mpf_sub(x, from_man_exp(_ULP_PAD, x[2]), prec, round_floor)


def _pad_up(x, prec):
    if x == fzero:
        return x
    return mpf_add(x, from_man_exp(_ULP_PAD, x[2]), prec, round_ceiling)


def _log_iv(b: int, prec):
    lo = _pad_down(mpf_log(from_int(b), prec, round_floor), prec)
    hi = _pad_up(mpf_log(from_int(b), prec, round_ceiling), prec)
    return lo, hi


def _mul_pos_rat(lo, hi, p: int, q: int, prec):
    # interval (of a positive quantity) times positive rational p/q
    lo = mpf_mul_int(lo, p, prec, round_floor)
    hi = mpf_mul_int(hi, p, prec, round_ceiling)
    if q != 1:
        qf = from_int(q)
        lo = mpf_div(lo, qf, prec, round_floor)
        hi = mpf_div(hi, qf, prec, round_ceiling)
    return lo, hi


def _exp_iv(lo, hi, prec):
    return (
        _pad_down(mpf_exp(lo, prec, round_floor), prec),
        _pad_up(mpf_exp(hi, prec, round_ceiling), prec),
    )


def _product_interval(factors, prec):
    """Enclosure of prod b**e over (b, e) pairs, b >= 2 int, e > 0 Fraction."""
    acc_lo, acc_hi = fzero, fzero
    for b, e in factors:
        llo, lhi = _log_iv(b, prec)
        llo, lhi = _mul_pos_rat(llo, lhi, e.numerator, e.denominator, prec)
        acc_lo = mpf_add(acc_lo, llo, prec, round_floor)
        acc_hi = mpf_add(acc_hi, lhi, prec, round_ceiling)
    return _exp_iv(acc_lo, acc_hi, prec)


def _floor_of_mpf(x, prec):
    return to_int(mpf_floor(x, prec, round_floor))


def _est_log2(factors, h: int = 1, d: int = 1) -> float:
    t = math.log2(h) - math.log2(d) if h else 0.0
    for b, e in factors:
        t += float(e) * math.log2(b)
    return t


def _floor_via_intervals(factors, caps: Caps) -> int:
    est_bits = max(0, int(_est_log2(factors))) + 16
    if est_bits + 64 > caps.prec_cap_bits:
        raise Overflow(
            f"result needs ~{est_bits} bits, beyond the precision cap"
        )
    prec = max(128, est_bits + 32)
    while prec <= caps.prec_cap_bits:
        lo, hi = _product_interval(factors, prec)
        flo = _floor_of_mpf(lo, prec)
        fhi = _floor_of_mpf(hi, prec)
        if flo == fhi:
            return flo
        prec *= 2
    raise PrecisionExhausted("floor undecided at the precision cap")


def _frac_via_intervals(factors, h: int, d: int, tol: float, caps: Caps) -> CertifiedReal:
    """Certified {h/d * prod b**e} for an irrational product."""
    est_bits = max(0, int(_est_log2(factors, h, d))) + 16
    tol_bits = max(8, int(-math.log2(tol)) + 4)
    if est_bits + tol_bits > caps.prec_cap_bits:
        raise Overflow(
            f"fractional part needs ~{est_bits + tol_bits} bits, beyond the cap"
        )
    prec = max(128, est_bits + tol_bits + 32)
    hd = from_int(d)
    while prec <= caps.prec_cap_bits:
        lo, hi = _product_interval(factors, prec)
        if h != 1:
            lo = mpf_mul_int(lo, h, prec, round_floor)
            hi = mpf_mul_int(hi, h, prec, round_ceiling)
        if d != 1:
            lo = mpf_div(lo, hd, prec, round_floor)
            hi = mpf_div(hi, hd, prec, round_ceiling)
        m = _floor_of_mpf(lo, prec)
        if _floor_of_mpf(hi, prec) == m:
            mi = from_int(m)
            flo = mpf_sub(lo, mi, prec, round_floor)
            fhi = mpf_sub(hi, mi, prec, round_ceiling)
            half_width = to_float(mpf_sub(fhi, flo, 53, round_ceiling)) / 2.0
            err = half_width + 2.0 ** -52
            if err <= tol:
                mid = to_float(mpf_add(flo, fhi, 53, round_floor)) / 2.0
                mid = min(max(mid, 0.0), math.nextafter(1.0, 0.0))
                return CertifiedReal(mid, err)
        prec *= 2
    raise PrecisionExhausted("fractional part undecided at the precision cap")


# ----------------------------------------------------------------------
# scaled-integer-root kernel (exact; preferred for small denominators)
# ----------------------------------------------------------------------

# switch to intervals when the scaled radicand would exceed this many bits
_ROOT_BIT_BUDGET = 1 << 16


def _scaled_root_cost_ok(base_bits: int, q: int, s: int) -> bool:
    return q <= 64 and base_bits + q * s <= _ROOT_BIT_BUDGET


def _frac_via_scaled_root(x_int: int, q: int, h: int, d: int, tol: float) -> CertifiedReal:
    """Certified {h/d * x_int**(1/q)} for x_int not a perfect q-th power."""
    s = max(64, h.bit_length() + max(8, int(-math.log2(tol))) + 4)
    while True:
        r = iroot(x_int << (q * s), q)  # floor(v * 2^s), v the true root
        t = h * r
        m = d << s
        a = t % m
        if a + h <= m:
            # value in [a/m, (a+h)/m], strictly inside since v is irrational
            value = (a + h / 2.0) / m
            err = h / (2.0 * m) + 2.0 ** -52
            if err <= tol:
                return CertifiedReal(min(value, math.nextafter(1.0, 0.0)), err)
        s *= 2


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def floor_pow(n: int, c, caps: Caps = DEFAULT_CAPS) -> int:
    """Exactly floor(n**(num/den)); certified, never off by one."""
    c = as_exponent(c)
    if n < 1:
        raise OutOfRange("floor_pow needs n >= 1")
    if n == 1:
        return 1
    r = perfect_root(n, c.den)
    if r is not None:
        return r ** c.num
    bits = c.num * n.bit_length()
    if bits <= caps.floor_exact_bits:
        return iroot(n ** c.num, c.den)
    return _floor_via_intervals([(n, c.as_fraction)], caps)


def floor_pow_batch(ns, c, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """Certified floor(n**c) for an int64 array of n.

    Fast path: float64 exp/log with a conservative relative margin; any
    element whose fractional part falls inside the margin (or whose value
    is too large for float64 to resolve) is recomputed by floor_pow.
    """
    c = as_exponent(c)
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size == 0:
        return np.zeros(0, dtype=np.int64)
    if int(ns.min()) < 1:
        raise OutOfRange("floor_pow_batch needs n >= 1")
    cf = c.num / c.den
    v = np.exp(cf * np.log(ns.astype(np.float64)))
    fl = np.floor(v)
    frac = v - fl
    margin = np.maximum(v * _FLOAT_REL_MARGIN, 1e-12)
    bad = (frac <= margin) | (frac >= 1.0 - margin) | (v >= 2.0 ** 52) | ~np.isfinite(v)
    out = fl.astype(np.int64)
    for i in np.flatnonzero(bad):
        out[i] = floor_pow(int(ns[i]), c, caps)
    return out


def frac_scaled_pow(
    n: int,
    c,
    h: int,
    d: int,
    tol: float = DEFAULT_FRAC_TOL,
    caps: Caps = DEFAULT_CAPS,
) -> CertifiedReal:
    """Certified {h * n**c / d} with error_bound <= tol.

    Exact-integer inputs (h == 0, or n a perfect den-th power making the
    whole expression rational) are detected and returned exactly.
    """
    c = as_exponent(c)
    if n < 1 or h < 0 or d < 1:
        raise OutOfRange("frac_scaled_pow needs n >= 1, h >= 0, d >= 1")
    if not 0 < tol < math.inf:
        raise OutOfRange("tol must be positive and finite")
    if h == 0:
        return CertifiedReal(0.0, 0.0)
    r = perfect_root(n, c.den) if n > 1 else 1
    if r is not None:
        return _exact_frac(Fraction(h * r ** c.num, d))
    if _scaled_root_cost_ok(c.num * n.bit_length(), c.den, 64):
        return _frac_via_scaled_root(n ** c.num, c.den, h, d, tol)
    return _frac_via_intervals([(n, c.as_fraction)], h, d, tol, caps)


def _rational_power_product(factors) -> Fraction | None:
    """The exact rational value of prod b**e if it is rational, else None.

    Rational iff every prime valuation of the product is an integer; only
    primes dividing some base can appear, so the bases are factorized.
    """
    vals: dict[int, Fraction] = {}
    for b, e in factors:
        if b == 1:
            continue
        fac, _ = factorize(b)
        for p, v in fac.items():
            vals[p] = vals.get(p, Fraction(0)) + v * e
    result = Fraction(1)
    for p, v in vals.items():
        if v.denominator != 1:
            return None
        result *= Fraction(p) ** v.numerator
    return result


def frac_phase(z: int, c, n_base: int, delta, caps: Caps = DEFAULT_CAPS) -> CertifiedReal:
    """Certified {z**c * n_base**delta} with error_bound <= 2^-48.

    delta is an exact positive rational; working precision scales with the
    magnitude of the product.
    """
    c = as_exponent(c)
    delta = as_ratio(delta)
    if z < 1 or n_base < 2 or delta <= 0:
        raise OutOfRange("frac_phase needs z >= 1, n_base >= 2, delta > 0")
    factors = [(b, e) for b, e in ((z, c.as_fraction), (n_base, delta)) if b > 1]
    if not factors:
        return CertifiedReal(0.0, 0.0)
    q = 1
    for _, e in factors:
        q = q * e.denominator // math.gcd(q, e.denominator)
    base_bits = sum(int(e * q) * b.bit_length() for b, e in factors)
    if _scaled_root_cost_ok(base_bits, q, 64):
        x = 1
        for b, e in factors:
            x *= b ** int(e * q)
        r = perfect_root(x, q)
        if r is not None:
            return CertifiedReal(0.0, 0.0)  # integer phase
        return _frac_via_scaled_root(x, q, 1, 1, PHASE_TOL)
    exact = _rational_power_product(factors)
    if exact is not None:
        return _exact_frac(exact)
    return _frac_via_intervals(factors, 1, 1, PHASE_TOL, caps)


def scaled_floor_table(values, c, shift_bits: int = 64, caps: Caps = DEFAULT_CAPS):
    """For each n in values: ('exact', n**c as int) if rational, else
    ('fixed', floor(n**c * 2^shift_bits)).

    The fixed-point entries let callers derive {h * n**c / d} for many
    (h, d) pairs from one certified root: the true n**c lies in
    [U, U+1) / 2^shift_bits.
    """
    c = as_exponent(c)
    out = {}
    for n in values:
        n = int(n)
        if n < 1:
            raise OutOfRange("scaled_floor_table needs n >= 1")
        r = perfect_root(n, c.den) if n > 1 else 1
        if r is not None:
            out[n] = ("exact", r ** c.num)
            continue
        base_bits = c.num * n.bit_length()
        if _scaled_root_cost_ok(base_bits, c.den, shift_bits):
            u = iroot((n ** c.num) << (c.den * shift_bits), c.den)
        else:
            u = _floor_via_intervals(
                [(n, c.as_fraction), (2, Fraction(shift_bits))], caps
            )
        out[n] = ("fixed", u)
    return out
