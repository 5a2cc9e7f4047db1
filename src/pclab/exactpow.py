"""Certified evaluation of powers with rational exponents.

Everything here is either exact integer arithmetic or interval arithmetic
with an explicit absolute error bound, so a returned floor is never off by
one and a returned fractional part always comes with a certified enclosure
that excludes the nearest integers.

Two evaluation paths are used throughout, both for one certified floor:
floor(2^s * v), v the value of the power product and s >= 0 a number of
fixed-point bits.

* exact -- the radicand of v, shifted by s bits, is formed as a big integer
  and its integer root is taken (Newton iteration).  Unconditionally exact.
* certified intervals -- directed-rounding evaluation of exp(log v) on top
  of mpmath's libmp primitives, starting at 128 bits and doubling until the
  floor is decided.  Every transcendental step is widened by a fixed ulp
  pad, so the enclosure is conservative even if an underlying primitive
  misses correct rounding by a few ulps.

One rule picks the path for every floor and fractional part: the exact root
when the common denominator of the exponents is at most 64 and the radicand
fits Caps.floor_exact_bits, intervals otherwise.  A fractional part
{h * v / d} is derived from the fixed-point floor (frac_from_fixed), with s
doubled until the enclosure excludes every integer.

Integer values (perfect powers) are the only inputs on which intervals
could not terminate; they are recognised, and returned exactly.
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
    mpf_log,
    mpf_mul_int,
    mpf_shift,
    mpf_sub,
    round_ceiling,
    round_floor,
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
# relative distance of an integer (error argument in floor_pow_batch)
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


def _exp_iv(lo, hi, prec):
    return (
        _pad_down(mpf_exp(lo, prec, round_floor), prec),
        _pad_up(mpf_exp(hi, prec, round_ceiling), prec),
    )


# The kernel's value is P = (b**e * b2**e2)**(1/q) for ints b, b2 >= 1 and
# e, e2 >= 0: n**c is (n, num, den) with b2 = 1, e2 = 0, and a Weyl phase
# z**c * N**delta brings both exponents to their common denominator q.

def _root_interval(b: int, e: int, q: int, b2: int, e2: int, prec):
    """Enclosure of P."""
    lo = hi = fzero
    for base, k in ((b, e), (b2, e2)):
        llo, lhi = _log_iv(base, prec)
        lo = mpf_add(lo, mpf_mul_int(llo, k, prec, round_floor), prec, round_floor)
        hi = mpf_add(hi, mpf_mul_int(lhi, k, prec, round_ceiling), prec, round_ceiling)
    if q != 1:
        lo = mpf_div(lo, from_int(q), prec, round_floor)
        hi = mpf_div(hi, from_int(q), prec, round_ceiling)
    return _exp_iv(lo, hi, prec)


def _integer_root(b: int, e: int, q: int, b2: int, e2: int) -> int | None:
    """P if it is an integer, else None.

    P is an algebraic integer, so it is rational only when it is an integer.
    One base needs one integer root; two are factorized, which finds
    cancellations such as 2^(3/2) * 2^(1/2) = 4.
    """
    if b2 == 1:
        g = math.gcd(e, q)
        r = perfect_root(b, q // g)
        return None if r is None else r ** (e // g)
    vals: dict[int, int] = {}
    for base, k in ((b, e), (b2, e2)):
        for p, v in factorize(base)[0].items():
            vals[p] = vals.get(p, 0) + v * k
    if any(v % q for v in vals.values()):
        return None
    return math.prod(p ** (v // q) for p, v in vals.items())


def _floor_via_intervals(b: int, e: int, q: int, s: int, caps: Caps, b2: int, e2: int) -> int:
    est_bits = max(0, int((e * math.log2(b) + e2 * math.log2(b2)) / q)) + s + 16
    if est_bits + 64 > caps.prec_cap_bits:
        raise Overflow(
            f"result needs ~{est_bits} bits, beyond the precision cap"
        )
    prec = max(128, est_bits + 32)
    while prec <= caps.prec_cap_bits:
        lo, hi = _root_interval(b, e, q, b2, e2, prec)
        flo = to_int(mpf_shift(lo, s), round_floor)
        if flo == to_int(mpf_shift(hi, s), round_floor):
            return flo
        # no enclosure of an integer decides its floor
        v = _integer_root(b, e, q, b2, e2)
        if v is not None:
            return v << s
        prec *= 2
    raise PrecisionExhausted("floor undecided at the precision cap")


# ----------------------------------------------------------------------
# the certified power kernel
# ----------------------------------------------------------------------

# largest common denominator given to the exact root: iroot's Newton
# iteration shrinks its seed by only about 1/k per step, so a large k costs
# seconds where intervals cost a millisecond
_EXACT_ROOT_MAX_DEN = 64

_BELOW_ONE = math.nextafter(1.0, 0.0)


def _floor_root(b: int, e: int, q: int, s: int, caps: Caps, b2: int = 1, e2: int = 0) -> int:
    """Certified floor(2^s * P).

    The package's one choice between the evaluation paths: the exact integer
    q-th root when q <= 64 and the radicand fits caps.floor_exact_bits,
    escalating intervals otherwise.
    """
    if q <= _EXACT_ROOT_MAX_DEN and e * b.bit_length() + e2 * b2.bit_length() + q * s <= caps.floor_exact_bits:
        return iroot((b ** e * b2 ** e2) << q * s, q)
    return _floor_via_intervals(b, e, q, s, caps, b2, e2)


def frac_from_fixed(u: int, m: int, h: int) -> float | None:
    """{h * v / d} from u = floor(v * 2^s) and m = d * 2^s, v irrational.

    v lies in [u, u + 1) / 2^s, so the phase lies in [a, a + h] / m for
    a = h * u mod m; None when that range reaches past m (an integer inside
    the enclosure).  The returned midpoint is within h / (2 m) + 2^-52 of
    the phase.
    """
    a = h * u % m
    if a + h > m:
        return None
    value = (a + h / 2.0) / m  # rounding may reach 1.0
    return value if value < 1.0 else _BELOW_ONE


def _certified_frac(
    h: int, d: int, tol: float, caps: Caps, b: int, e: int, q: int, b2: int = 1, e2: int = 0
) -> CertifiedReal:
    """Certified {h * P / d} with error_bound <= tol, for tol > 2^-52."""
    s = max(64, h.bit_length() + max(8, int(-math.log2(tol))) + 4)
    while True:
        u = _floor_root(b, e, q, s, caps, b2, e2)
        # an integer P leaves the low s bits of u clear
        if not u & ((1 << s) - 1):
            v = _integer_root(b, e, q, b2, e2)
            if v is not None:
                return _exact_frac(Fraction(h * v, d))
        m = d << s
        value = frac_from_fixed(u, m, h)
        err = h / (2.0 * m) + 2.0 ** -52
        if value is not None and err <= tol:
            return CertifiedReal(value, err)
        s *= 2


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def floor_pow(n: int, c, caps: Caps = DEFAULT_CAPS) -> int:
    """Exactly floor(n**(num/den)); certified, never off by one."""
    c = as_exponent(c)
    if n < 1:
        raise OutOfRange("floor_pow needs n >= 1")
    return _floor_root(n, c.num, c.den, 0, caps)


def floor_pow_batch(ns, c, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """Certified floor(n**c) for an int64 array of n.

    Fast path: v = exp(c * log(n)) in float64.  An element is recomputed by
    floor_pow when v >= 2^52 (float spacing reaches 1), when v is not
    finite, or when v lies within v * 1e-12 of an integer.  That margin
    bounds the float error, with u = 2^-52 and Y = ln(n^c) < 52 ln 2 < 36.05:

    * c rounded to a float, the product c * log(n) and the floor step each
      round correctly (relative error <= u/2; v - floor(v) is exact);
    * log and exp add at most k ulps each (relative error <= k u);
    * so c * log(n) is off by at most Y (1 + k) u in absolute terms, which
      exp turns into a relative error, and v is off by a relative
      (Y (1 + k) + k) u < (37.05 k + 36.05) u.

    1e-12 exceeds that for any k <= 120 ulps, far beyond numpy's libm.  A
    float whose distance to the nearest integer exceeds the error has the
    true floor.  From v ~ 5e11 on the margin exceeds 1/2, so every element
    there is recomputed.
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
    margin = v * _FLOAT_REL_MARGIN
    bad = (frac <= margin) | (frac >= 1.0 - margin) | (v >= 2.0 ** 52) | ~np.isfinite(v)
    out = fl.astype(np.int64)
    idx = np.flatnonzero(bad)
    out[idx] = [floor_pow(n, c, caps) for n in ns[idx].tolist()]
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
    whole expression rational) are detected and returned exactly.  tol must
    exceed 2^-52, the rounding of the returned float.
    """
    c = as_exponent(c)
    if n < 1 or h < 0 or d < 1:
        raise OutOfRange("frac_scaled_pow needs n >= 1, h >= 0, d >= 1")
    if not 2.0 ** -52 < tol < math.inf:
        raise OutOfRange("tol must be finite and above 2^-52")
    if h == 0:
        return CertifiedReal(0.0, 0.0)
    return _certified_frac(h, d, tol, caps, n, c.num, c.den)


def frac_phase(z: int, c, n_base: int, delta, caps: Caps = DEFAULT_CAPS) -> CertifiedReal:
    """Certified {z**c * n_base**delta} with error_bound <= 2^-48.

    delta is an exact positive rational; working precision scales with the
    magnitude of the product.
    """
    c = as_exponent(c)
    delta = as_ratio(delta)
    if z < 1 or n_base < 2 or delta <= 0:
        raise OutOfRange("frac_phase needs z >= 1, n_base >= 2, delta > 0")
    dn, dd = delta.numerator, delta.denominator
    q = math.lcm(c.den, dd)
    return _certified_frac(1, 1, PHASE_TOL, caps, z, c.num * (q // c.den), q, n_base, dn * (q // dd))


def scaled_floor_table(values, c, shift_bits: int = 64, caps: Caps = DEFAULT_CAPS):
    """For each n in values: ('exact', n**c as int) if rational, else
    ('fixed', floor(n**c * 2^shift_bits)).

    The fixed-point entries let callers derive {h * n**c / d} for many
    (h, d) pairs from one certified root with frac_from_fixed.
    """
    c = as_exponent(c)
    low = (1 << shift_bits) - 1
    out = {}
    for n in values:
        n = int(n)
        if n < 1:
            raise OutOfRange("scaled_floor_table needs n >= 1")
        u = _floor_root(n, c.num, c.den, shift_bits, caps)
        v = None if u & low else _integer_root(n, c.num, c.den, 1, 0)
        out[n] = ("fixed", u) if v is None else ("exact", v)
    return out
