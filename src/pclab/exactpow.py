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

floor_pow_batch decides an int64 array of floors in three stages, each with
a written error bound: a float64 log/exp pass, then for den <= 64 one
double-word Newton step on the elements it leaves, and floor_pow on what
is still within the bound of an integer.

frac_scaled_pow_batch and frac_phase_batch certify arrays of fractional
parts with _certified_frac_batch: from the float guess, two double-word
Newton steps put P within a written bound E of about
((e + e2) / q + 2) 2^-102 P, and the phase
((h mod d) (floor(P) mod d) mod d + h frac(P)) / d then lies within
B = (h / d) (E + 2^-50) + 2^-51.  A phase stands when B <= tol and its
enclosure excludes every integer; every other one, perfect powers and
P >= 2^62 included, goes to _certified_frac, the one per-point certifier.
One batch serves many (h, d) pairs over the same array: the double-word
stage runs once, and the fixed-point roots _certified_frac computes are
kept for the later pairs.

Both double-word stages are one kernel, _dw_floors, with a step count; its
docstring holds the error argument for one step and for two.
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
    # P >= 2^low, decided in integers: e and q may pass the float range
    low = (e * (b.bit_length() - 1) + e2 * (b2.bit_length() - 1)) // q
    if low + s + 16 + 64 > caps.prec_cap_bits:
        raise Overflow(f"result needs over {caps.prec_cap_bits - 64} bits, beyond the precision cap")
    # below the cap, k / q is at most the cap for every base above 1
    log2_p = (e / q * math.log2(b) if b > 1 else 0.0) + (e2 / q * math.log2(b2) if b2 > 1 else 0.0)
    est_bits = max(0, int(log2_p)) + s + 16
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


def _frac_bits(h: int, tol: float) -> int:
    """The first s at which _certified_frac tries floor(2^s * P)."""
    return max(64, h.bit_length() + max(8, int(-math.log2(tol))) + 4)


def _certified_frac(
    h: int, d: int, tol: float, caps: Caps, b: int, e: int, q: int, b2: int = 1, e2: int = 0,
    roots: dict[int, int] | None = None,
) -> CertifiedReal:
    """Certified {h * P / d} with error_bound <= tol, for tol > 2^-52.

    roots, when given, holds floor(2^s * P) by s across the calls for one P,
    so that the (h, d) pairs of one batch compute each root once.
    """
    roots = {} if roots is None else roots
    s = _frac_bits(h, tol)
    while True:
        u = roots.get(s)
        if u is None:
            u = roots[s] = _floor_root(b, e, q, s, caps, b2, e2)
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


def _float_pow(bs: np.ndarray, e: int, q: int, b2: int = 1, e2: int = 0) -> np.ndarray:
    """(b^e * b2^e2)^(1/q) for each b of an int64 array, by float64 log/exp;
    inf past the float range."""
    with np.errstate(over="ignore"):
        x = e / q * np.log(bs.astype(np.float64))
        if b2 > 1:
            x += e2 / q * math.log(b2)
        return np.exp(x)


def _float_floors(ns: np.ndarray, c: RationalExponent) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(floors, bad, v): the float stage's floors of n**c as int64, where they
    are not certified (left 0), and v = n**c in float64."""
    v = _float_pow(ns, c.num, c.den)
    with np.errstate(invalid="ignore"):  # an infinite v is bad
        fl = np.floor(v)
        frac = v - fl
    margin = v * _FLOAT_REL_MARGIN
    bad = (frac <= margin) | (frac >= 1.0 - margin) | ~np.isfinite(v)
    fl[bad] = 0.0
    return fl.astype(np.int64), bad, v


# Veltkamp's splitter 2^27 + 1: a float splits into two 26-bit halves
_SPLIT = float((1 << 27) + 1)

# elements per double-word pass, which bounds its temporaries
_DW_CHUNK = 1 << 14

# the double-word stage's error terms (_dw_floors): the float guess's
# relative error below 2^62, one double-word product's, and the unit roundoff
_FLOAT_REL_ERR = 2.0 ** -39
_DW_MUL_ERR = 2.0 ** -100
_U = 2.0 ** -53

_TWO62 = 2.0 ** 62

# largest q for the double-word stage, exclusive: q 2^-39 < 2^-15 keeps
# Newton's step contracting, and the exponents of A below 2^30 (int32)
_DW_MAX_DEN = 1 << 24


def _dw_mul(xh, xl, yh, yl):
    """(h, l, k): x * y = (h + l) * 2^k for double words x and y whose high
    parts lie in [1/2, 1), with h in [1/2, 1) again.

    Dekker's two-product (exact, split by Veltkamp) plus the rounded cross
    terms, summed by Fast2Sum; the scaling by 2^-k is exact.
    """
    p = xh * yh
    t = _SPLIT * xh
    ah = t - (t - xh)
    al = xh - ah
    t = _SPLIT * yh
    bh = t - (t - yh)
    bl = yh - bh
    e = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + (xh * yl + xl * yh)
    h = p + e
    m, k = np.frexp(h)
    return m, np.ldexp(e - (h - p), -k), k


def _dw_pow(h, l, k, e: int):
    """x^e = (h' + l') * 2^k' for x = (h + l) * 2^k with h in [1/2, 1), by
    left-to-right square-and-multiply: bit_length(e) + bit_count(e) - 2
    double-word products."""
    rh, rl, rk = h, l, k
    for bit in bin(e)[3:]:
        rh, rl, s = _dw_mul(rh, rl, rh, rl)
        rk = 2 * rk + s
        if bit == "1":
            rh, rl, s = _dw_mul(rh, rl, h, l)
            rk = rk + k + s
    return rh, rl, rk


def _dw_split(ns: np.ndarray):
    """(m, l, k): ns = (m + l) * 2^k exactly, m in [1/2, 1), for int64 ns in [1, 2^62]."""
    nh = ns.astype(np.float64)
    nm, nk = np.frexp(nh)
    return nm, np.ldexp((ns - nh.astype(np.int64)).astype(np.float64), -nk), nk


def _dw_power(bs: np.ndarray, e: int, b2: int = 1, e2: int = 0):
    """A = b^e * b2^e2 = (h + l) * 2^k in double words, for int64 bs and b2 in
    [1, 2^62]; the factors are multiplied once more when b2 > 1."""
    ah, al, ak = _dw_pow(*_dw_split(bs), e)
    if b2 > 1:
        ch, cl, ck = _dw_pow(*_dw_split(np.array([b2], dtype=np.int64)), e2)
        ah, al, s = _dw_mul(ah, al, ch, cl)
        ak = ak + ck + s
    return ah, al, ak


def _newton(a, yh: np.ndarray, yl: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo): one Newton step on y^q = A from the double word y = yh + yl.

    hi + lo = yh + (yl + yh (A - Y) / (q Y)), exactly by Fast2Sum, for the
    double-word A = a = _dw_power(...) and Y = y^q.  Needs y within a
    relative 2^-39 of A^(1/q) and below 2^62, and q < _DW_MAX_DEN.
    """
    ah, al, ak = a
    ym, yk = np.frexp(yh)
    bh, bl, bk = _dw_pow(ym, np.ldexp(yl, -yk), yk, q)
    s = bk - ak  # -1, 0 or 1, since A / Y is within q 2^-38 < 2^-14 of 1
    bh, bl = np.ldexp(bh, s), np.ldexp(bl, s)
    t = yl + yh * (((ah - bh) + (al - bl)) / bh) / q
    hi = yh + t
    return hi, t - (hi - yh)


def _root_rel_err(q: int, ratio: float, steps: int) -> float:
    """Relative bound on |hi + lo - P| after _dw_root's steps (1 or 2) from a
    float guess, for ratio = (e + e2) / q (argument in _dw_floors)."""
    chain = (ratio + 2) * _DW_MUL_ERR / 4
    err = q * _FLOAT_REL_ERR ** 2 / 2 + 6 * _U * _FLOAT_REL_ERR + chain
    if steps == 2:
        err = q * err ** 2 / 2 + 8 * _U * err + chain + _U ** 2
    return err


def _dw_root(a, y0: np.ndarray, q: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo): steps Newton steps on y^q = A from the float guesses y0, each
    from the last one's double word."""
    hi, lo = y0, np.zeros(y0.size)
    for _ in range(steps):
        hi, lo = _newton(a, hi, lo, q)
    return hi, lo


def _dw_floors(bs: np.ndarray, y0: np.ndarray | None, e: int, q: int, steps: int, b2: int = 1, e2: int = 0):
    """Yield (idx, floors, g, err, ok) for each chunk of _DW_CHUNK elements of
    the int64 array bs: the one double-word stage, of floor_pow_batch
    (steps=1) and _certified_frac_batch (steps=2), for P = (b^e * b2^e2)^(1/q).

    y0 holds the float guesses _float_pow(b), or is None to have them
    computed chunk by chunk.  An element takes part when b > 1 and y0 is
    below 2^62; needs e + e2 < 62 q, q < _DW_MAX_DEN and b2 < 2^62.
    A = b^e * b2^e2 is formed once (_dw_power), and steps Newton steps on
    y^q = A from y0 (_dw_root, each step _newton) give the double word
    hi + lo, within

      E = hi * _root_rel_err(q, (e + e2) / q, steps)

    of P.  F = floor(hi) + floor(f) and g = f - floor(f) for
    f = (hi - floor(hi)) + lo.  Each element that takes part is yielded,
    with its index idx into bs, F as int64 and g and E as float64; ok marks
    where hi < 2^62 and g lies farther than E + 2^-52 from an integer, and
    there F = floor(P) and F + g is within E + 2^-52 of P.  Every other
    element, perfect powers included, is left to the caller's exact stage
    (Ziv, ACM TOMS 17(3), 1991).

    A step from y = yh + yl is (hi, lo) = two_sum(yh, yl + yh (A - Y) / (q Y))
    for Y = y^q, both powers by square-and-multiply in double words (_dw_pow).

    Error argument, with y = P, w = (e + e2) / q, ε0 = 2^-39, u = 2^-53,
    u' = 2^-52 and m = 2^-100.  The first step's bound is

      e1 = q ε0^2 / 2 + 6 u ε0 + (w + 2) m / 4,

    and the second step's is q e1^2 / 2 + 8 u e1 + (w + 2) m / 4 + u^2.

    * The guess.  y0 = y (1 + δ) with |δ| <= ε0: floor_pow_batch's stage 1
      argument with Y = ln(y) < ln(2^62) < 43 gives (44 k + 43) u' <=
      6643 u' < 2^-39 for k <= 150 (b >= 2^53 rounded to a float adds
      w u' / 2 more, within the slack).  A second base's term and the sum
      add (k + 1) u' Y, and (43 (k + 2) + k) u' <= 6686 u' < 2^-39.
    * Newton's quadratic term.  The exact step from y (1 + ε) gives
      y (1 + f(ε)) with 0 <= f(ε) <= (q - 1) ε^2 / 2 (1 - |ε|)^-(q + 1),
      below q ε^2 / 2: the first term, with ε = δ for the first step and
      |ε| <= e1 for the second.
    * The chains.  Each double-word product (Dekker, Numer. Math. 18, 1971)
      is off by a relative 8 u^2 (1 + 4 u) < m / 8: two rounded cross terms
      (u^2 each), their rounded sum (2 u^2), the dropped lo * lo (u^2) and
      the rounded sum with the exact two-product error (3 u^2) (cf. the FMA
      variants in Joldes, Muller and Popescu, ACM TOMS 44(2), 2017).
      Square-and-multiply raises the error of a product that reaches
      exponent k to the power e / k, and the partial exponents at least
      double per bit, so x^e is off by below 2 e m / 8: A by below
      (2 e + 2 e2 + 1) m / 8 (one product more for the second base) and Y
      by below 2 q m / 8.  They move the step by their difference over q,
      below (2 w + 3) m / 8 of y: the (w + 2) m / 4 term, whose rounded-up
      constant also holds rounding al - bl (below 2.1 u^2 y / q).
    * The correction, below 1.01 ε0 y, takes five roundings: the sum of the
      differences (ah - bh is exact by Sterbenz), the division by Y's high
      part (dropping its low part), the product with yh and the division
      by q; a relative 5.01 u, the 6 u ε0 term.  The second step's
      correction, below 1.01 e1 y, takes the same roundings, with the
      product taken with hi1 in place of hi1 + lo1, and adding lo1 rounds
      by below u (u y + 1.01 e1 y): together below 8 u e1 y + u^2 y.
    * two_sum is exact, and y < hi (1 + 2^-30) after one step (2^-52 after
      two), which q / 2 over (q - 1) / 2 and the rounded-up constants absorb.
    * The floor.  f is lo itself when hi is an integer and otherwise rounds
      by at most 2^-53 inside (0, 1).  g = f - floor(f) is exact, the
      distance is min(g, 1 - g), and 1 - g rounds by at most 2^-53 more:
      the 2^-52.
    """
    rel = _root_rel_err(q, (e + e2) / q, steps)
    for i in range(0, bs.size, _DW_CHUNK):
        b = bs[i : i + _DW_CHUNK]
        y = _float_pow(b, e, q, b2, e2) if y0 is None else y0[i : i + _DW_CHUNK]
        sel = np.flatnonzero((b > 1) & (y < _TWO62))
        hi, lo = _dw_root(_dw_power(b[sel], e, b2, e2), y[sel], q, steps)
        fh = np.floor(hi)
        f = (hi - fh) + lo
        fl = np.floor(f)
        g = f - fl
        err = hi * rel
        ok = (hi < _TWO62) & (np.minimum(g, 1.0 - g) > err + 2.0 ** -52)
        yield i + sel, fh.astype(np.int64) + fl.astype(np.int64), g, err, ok


def floor_pow_batch(ns, c, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """Certified floor(n**c) for an int64 array of n, in three stages.

    1. Float: v = exp(c * log(n)) in float64.  Its floor stands when v is
       finite and lies farther than v * 1e-12 from an integer.
    2. Double word, for den <= 64: an element the float stage leaves, with
       n > 1 and v < 2^62, takes one Newton step on y^den = n^num from
       y0 = v to hi + lo (_dw_floors, whose docstring holds the argument).
       Its floor stands when hi < 2^62 and hi + lo lies farther than
       B = hi * _root_rel_err(den, c, 1) + 2^-52, about den 2^-79 v, from
       an integer.
    3. Exact: every other element is recomputed by floor_pow.  From c >= 62
       on, where stage 1 could overflow and stage 2 never applies, every
       element takes this stage.

    Stage 1 error argument.  From v ~ 5e11 on the margin exceeds 1/2, so an
    accepted v is below 5e11 < 2^39.  The margin bounds the float error
    there, with u' = 2^-52 and Y = ln(n^c) < 39 ln 2 < 27.1:

    * c rounded to a float, the product c * log(n) and the floor step each
      round correctly (relative error <= u'/2; v - floor(v) is exact);
    * log and exp add at most k ulps each (relative error <= k u');
    * so c * log(n) is off by at most Y (1 + k) u' in absolute terms, which
      exp turns into a relative error, and v is off by a relative
      (Y (1 + k) + k) u' < (28.1 k + 27.1) u'.

    1e-12 exceeds that for any k <= 150 ulps, far beyond numpy's libm.  A
    float whose distance to the nearest integer exceeds the error has the
    true floor.

    An element within the bound of an integer escalates to stage 3, so
    _floor_root stays the one certifier.  n = 1 is a perfect power, left to
    stage 3.  Raises Overflow when a floor reaches 2^63, decided on the
    recomputed exact floors.
    """
    c = as_exponent(c)
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size == 0:
        return np.zeros(0, dtype=np.int64)
    if int(ns.min()) < 1:
        raise OutOfRange("floor_pow_batch needs n >= 1")
    if c.num >= 62 * c.den:  # n^c >= 2^62 for every n > 1: stage 3 decides all
        out, bad = np.zeros(ns.shape, dtype=np.int64), np.ones(ns.shape, dtype=bool)
    else:
        out, bad, v = _float_floors(ns, c)
        if c.den <= _EXACT_ROOT_MAX_DEN:
            flagged = np.flatnonzero(bad)
            for idx, floors, _, _, ok in _dw_floors(ns[flagged], v[flagged], c.num, c.den, 1):
                idx = flagged[idx[ok]]
                out[idx] = floors[ok]
                bad[idx] = False
        del v
    idx = np.flatnonzero(bad)
    exact = [floor_pow(n, c, caps) for n in ns[idx].tolist()]
    if exact and max(exact) >= 1 << 63:
        raise Overflow(f"floor(n^{c}) reaches 2^63, beyond int64")
    out[idx] = exact
    return out


def _certified_frac_batch(
    pairs, tol: float, caps: Caps, bs: np.ndarray, e: int, q: int, b2: int = 1, e2: int = 0
):
    """Yield (values, bounds) for each (h, d) of pairs: certified {h * P / d}
    for each b of the int64 array bs, P = (b^e * b2^e2)^(1/q) as in
    _certified_frac, with every bound <= tol.

    For h >= 1, d < 2^31, h < 2^53, b2 < 2^62, e + e2 < 62 q and
    q < _DW_MAX_DEN; stages 1 and 2 do not depend on (h, d), so they run
    once, for the first pair that takes them, and every later pair reuses
    them.  h = 0 gives zeros.

    1. Float: y0 = exp((e/q) log b + (e2/q) log b2) (_float_pow).
    2. Double word: two Newton steps from y0 in _dw_floors, which certifies
       F = floor(P) and F + g within E + 2^-52 of P, g in [0, 1), for the
       elements with b > 1 and hi < 2^62 whose g lies farther than
       E + 2^-52 from an integer (which sends every perfect power on), with

         E = hi * _root_rel_err(q, (e + e2) / q, 2),

       about ((e + e2) / q + 2) 2^-102 P; its docstring holds the argument.
    3. Phase: r = (h mod d) (F mod d) mod d in int64; t = (r + h g) / d and
       phase = t - floor(t).  Its bound is

         B = (h / d) (E + 2^-50) + 2^-51.

    An element stands when stage 2 certifies it, B <= tol, and
    B < phase < 1 - B, so the enclosure excludes every integer.  Every other
    element, n = 1 and P >= 2^62 included, is recomputed by _certified_frac
    (Ziv, ACM TOMS 17(3), 1991), which stays the one certifier.  While more
    pairs follow, the fixed-point roots it computes for an element are kept
    (_certified_frac's roots), and a later pair takes _certified_frac's
    first step on the kept root itself, calling it only when that step
    decides nothing.  So an element that escalates for every pair, as every
    P >= 2^62 and every P with q >= _DW_MAX_DEN does, has its root computed
    once, not once per pair.

    Stage 3 error argument: F + g is within E + 2^-52 of y = P, and
    h F = r mod d exactly, so T = (r + h (y - F)) / d has {T} = {h y / d}.
    h g rounds by u h (u = 2^-53; h < 2^53 is exact in a float), the sum by
    u (d + h), the division by u (d + h) / d, and t - floor(t) is exact for
    t >= 0, so |t - T| <= (h / d) (E + 2^-52 + 3.01 u) + 2.01 u, below B.
    When [phase - B, phase + B] holds no integer, neither does
    [t - B, t + B], so floor(t) = floor(T) and the phase is within B of
    {h y / d}.  phase + B < 1 is tested as a rounded sum, which rounds to 1
    whenever the exact sum reaches it.
    """
    n = bs.size
    stage = None
    kept: dict[int, dict[int, int]] = {}
    pairs = iter(pairs)
    pair = next(pairs, None)
    while pair is not None:
        h, d = pair
        pair = next(pairs, None)  # None on the last pair, which keeps no roots
        if h == 0:
            yield np.zeros(n), np.zeros(n)
            continue
        values = np.zeros(n)
        bounds = np.zeros(n)
        good = np.zeros(n, dtype=bool)
        if q < _DW_MAX_DEN and e + e2 < 62 * q and d < 1 << 31 and h < 1 << 53 and b2 < 1 << 62:
            if stage is None:
                stage = list(_dw_floors(bs, None, e, q, 2, b2, e2))
            for idx, floors, g, err, ok in stage:
                r = h % d * (floors % d) % d
                t = (r + h * g) / d
                phase = t - np.floor(t)
                bound = h / d * (err + 2.0 ** -50) + 2.0 ** -51
                sel = ok & (bound <= tol) & (bound < phase) & (phase + bound < 1.0)
                idx = idx[sel]
                values[idx] = phase[sel]
                bounds[idx] = bound[sel]
                good[idx] = True
        s = _frac_bits(h, tol)
        low = (1 << s) - 1
        m = d << s
        err = h / (2.0 * m) + 2.0 ** -52
        idx = np.flatnonzero(~good)
        keys = idx.tolist()
        # _certified_frac's first step, taken here on the roots that earlier
        # pairs kept, decides most phases without a call
        us = [kept[i].get(s) if i in kept and err <= tol else None for i in keys]
        vals = [frac_from_fixed(u, m, h) if u is not None and u & low else None for u in us]
        errs = [err] * len(keys)
        for k, value in enumerate(vals):
            if value is None:
                i = keys[k]
                roots = kept.get(i) if pair is None else kept.setdefault(i, {})
                res = _certified_frac(h, d, tol, caps, int(bs[i]), e, q, b2, e2, roots)
                vals[k], errs[k] = res.value, res.error_bound
        values[idx] = vals
        bounds[idx] = errs
        yield values, bounds


def _check_frac_args(n_min: int, h: int, d: int, tol: float) -> None:
    if n_min < 1 or h < 0 or d < 1:
        raise OutOfRange("frac_scaled_pow needs n >= 1, h >= 0, d >= 1")
    if not 2.0 ** -52 < tol < math.inf:
        raise OutOfRange("tol must be finite and above 2^-52")
    # _certified_frac takes its first modulus d 2^s to a float
    try:
        float(d << _frac_bits(h, tol))
    except OverflowError:
        raise OutOfRange("h or d too large: the phase modulus d * 2^s passes the float range") from None


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
    _check_frac_args(n, h, d, tol)
    if h == 0:
        return CertifiedReal(0.0, 0.0)
    return _certified_frac(h, d, tol, caps, n, c.num, c.den)


def frac_scaled_pow_batch(
    ns,
    c,
    h: int,
    d: int,
    tol: float = DEFAULT_FRAC_TOL,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[np.ndarray, np.ndarray]:
    """(values, bounds): frac_scaled_pow's certified {h * n**c / d} for each n
    of an int64 array, as two float64 arrays (_certified_frac_batch).

    Each value lies within its bound, at most tol, of the phase; the values
    may differ from frac_scaled_pow's in the last bits of their rounding.
    """
    return next(_frac_scaled_pow_pairs(ns, c, [(h, d)], tol, caps))


def _frac_scaled_pow_pairs(ns, c, pairs, tol: float = DEFAULT_FRAC_TOL, caps: Caps = DEFAULT_CAPS):
    """Yield frac_scaled_pow_batch(ns, c, h, d, tol, caps) for each (h, d) of
    the iterable pairs, in turn; one _certified_frac_batch serves them all,
    so each root of ns is computed once for every pair."""
    c = as_exponent(c)
    ns = np.asarray(ns, dtype=np.int64)
    n_min = int(ns.min()) if ns.size else 1

    def checked():
        for h, d in pairs:
            _check_frac_args(n_min, h, d, tol)
            yield h, d

    return _certified_frac_batch(checked(), tol, caps, ns, c.num, c.den)


def _phase_root(z_min: int, c, n_base: int, delta) -> tuple[int, int, int]:
    """(e, q, e2) with z**c * n_base**delta = (z^e * n_base^e2)^(1/q)."""
    c = as_exponent(c)
    delta = as_ratio(delta)
    if z_min < 1 or n_base < 2 or delta <= 0:
        raise OutOfRange("frac_phase needs z >= 1, n_base >= 2, delta > 0")
    dn, dd = delta.numerator, delta.denominator
    q = math.lcm(c.den, dd)
    return c.num * (q // c.den), q, dn * (q // dd)


def frac_phase(z: int, c, n_base: int, delta, caps: Caps = DEFAULT_CAPS) -> CertifiedReal:
    """Certified {z**c * n_base**delta} with error_bound <= 2^-48.

    delta is an exact positive rational; working precision scales with the
    magnitude of the product.
    """
    e, q, e2 = _phase_root(z, c, n_base, delta)
    return _certified_frac(1, 1, PHASE_TOL, caps, z, e, q, n_base, e2)


def frac_phase_batch(zs, c, n_base: int, delta, caps: Caps = DEFAULT_CAPS) -> tuple[np.ndarray, np.ndarray]:
    """(values, bounds): frac_phase's certified {z**c * n_base**delta} for each
    z of an int64 array, as two float64 arrays, every bound <= 2^-48
    (_certified_frac_batch)."""
    zs = np.asarray(zs, dtype=np.int64)
    e, q, e2 = _phase_root(int(zs.min()) if zs.size else 1, c, n_base, delta)
    return next(_certified_frac_batch([(1, 1)], PHASE_TOL, caps, zs, e, q, n_base, e2))


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
