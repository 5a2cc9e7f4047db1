import math
import random
from dataclasses import replace
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pclab import _intmath
from pclab import exactpow as ep
from pclab.errors import DEFAULT_CAPS, IntegerExponent, NotAFraction, OutOfRange, Overflow

# floor_exact_bits=0 sends every power through the interval path
INTERVAL_CAPS = replace(DEFAULT_CAPS, floor_exact_bits=0)


def bisect_root(x, k):
    """Independent k-th root oracle (binary search, no Newton)."""
    lo, hi = 0, 1
    while hi**k <= x:
        hi <<= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------- parsing

def test_parse_decimal():
    c = ep.parse_exponent("1.0521")
    assert (c.num, c.den) == (10521, 10000)


def test_parse_fraction():
    c = ep.parse_exponent("3/2")
    assert (c.num, c.den) == (3, 2)


def test_parse_rejects_integer():
    with pytest.raises(IntegerExponent):
        ep.parse_exponent("2")
    with pytest.raises(IntegerExponent):
        ep.parse_exponent("4/2")


def test_parse_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        ep.parse_exponent("0.5")
    with pytest.raises(OutOfRange):
        ep.parse_exponent("1/2")


def test_parse_rejects_garbage_and_floats():
    with pytest.raises(NotAFraction):
        ep.parse_exponent("three halves")
    with pytest.raises(NotAFraction):
        ep.as_exponent(1.5)
    for bad in ("1/0", "1/x", "", "inf", 1.5, (1, 0)):
        with pytest.raises(NotAFraction):
            ep.as_ratio(bad)


@given(st.integers(2, 40), st.integers(2, 40))
def test_parse_roundtrip(num, den):
    f = F(num, den)
    if f.denominator == 1 or f <= 1:
        return
    c = ep.parse_exponent(f"{num}/{den}")
    assert c.as_fraction == f


# ---------------------------------------------------------------- floor_pow

def test_floor_pow_examples():
    assert ep.floor_pow(3, "3/2") == 5
    assert ep.floor_pow(2, "3/2") == 2
    assert ep.floor_pow(97, "6/5") == 242


def test_floor_pow_perfect_power_exact():
    assert ep.floor_pow(4, "3/2") == 8
    assert ep.floor_pow(27, "5/3") == 243


def test_floor_pow_huge_denominator():
    # forces the certified interval path inside the batch helper
    n = 999983
    got = ep.floor_pow(n, "10521/10000")
    assert got**10000 <= n**10521 < (got + 1) ** 10000


@given(st.integers(2, 10**5), st.integers(2, 16) | st.sampled_from((63, 64, 65)), st.integers(0, 10**6))
@example(99991, 63, 0)
@example(99991, 64, 0)
@example(99991, 65, 0)
def test_floor_pow_matches_root_oracle(n, den, k):
    # den 63/64 take the exact root and 65 intervals, either side of the path rule
    num = den + 1 + k % (2 * den - 1)
    if math.gcd(num, den) > 1:
        return
    got = ep.floor_pow(n, F(num, den))
    assert got == bisect_root(n**num, den)
    assert got**den <= n**num < (got + 1) ** den


def test_large_denominator_floor_takes_no_large_root(monkeypatch):
    # the den-10^4 floor is decided by intervals, with no 10000th root
    ks = []

    def counting_iroot(x, k, _iroot=_intmath.iroot):
        ks.append(k)
        return _iroot(x, k)

    monkeypatch.setattr(ep, "iroot", counting_iroot)
    monkeypatch.setattr(_intmath, "iroot", counting_iroot)
    n = 3626033
    got = ep.floor_pow(n, "10521/10000")
    assert all(k <= 64 for k in ks)
    assert got == ep.floor_pow(n, "10521/10000", INTERVAL_CAPS)
    assert got**10000 <= n**10521 < (got + 1) ** 10000


def test_iroot_brackets_the_root():
    # both seeds: the float seed while the root is below 2^1000, the bit
    # length seed above it; exact powers and their predecessors included
    rng = random.Random(7)
    for i in range(20_000):
        k = rng.choice((3, 4, 5, 7, 11, 64, rng.randint(2, 300)))
        r = 1 + rng.getrandbits(rng.choice((4, 30, 53, 200, 999, 1000, 1100)) if k <= 5 else rng.randint(1, 64))
        x = (r**k, r**k - 1, r**k + rng.randrange((r + 1) ** k - r**k), rng.getrandbits(r.bit_length() * k))[i % 4]
        got = _intmath.iroot(x, k)
        assert got**k <= x < (got + 1) ** k, (x, k)


def test_floor_pow_monotone_in_n():
    c = ep.parse_exponent("7/5")
    vals = [ep.floor_pow(n, c) for n in range(2, 400)]
    assert vals == sorted(vals)


def test_floor_pow_batch_agrees_with_scalar():
    ns = np.arange(2, 3000, dtype=np.int64)
    for cc in ("3/2", "10521/10000", "7/5"):
        batch = ep.floor_pow_batch(ns, cc)
        for i in (0, 1, 17, 500, 2500):
            assert int(batch[i]) == ep.floor_pow(int(ns[i]), cc)


@pytest.mark.parametrize("cc", ["10521/10000", "3/2", "5/2"])
@pytest.mark.parametrize("cut_bits", [38, 52])
def test_floor_pow_batch_at_the_float_cut(cc, cut_bits, monkeypatch):
    # from about 2^39 on the float path's margin exceeds 1/2 and every element
    # escalates, so 2^38 is the largest v it decides itself; 2^52, where the
    # float spacing reaches 1, lies well inside the escalated range
    c = ep.as_exponent(cc)
    lo, hi = 1, 2**cut_bits
    while hi - lo > 1:  # largest n with n^c < 2^cut_bits
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**c.num < 2 ** (cut_bits * c.den) else (lo, mid)
    ns = np.arange(lo - 1499, lo + 2, dtype=np.int64)
    want = [ep.floor_pow(int(n), c) for n in ns]
    assert want[-3] < 2**cut_bits <= want[-1]
    escalated = []
    monkeypatch.setattr(ep, "floor_pow", lambda n, c, caps: escalated.append(n) or want[n - int(ns[0])])
    assert ep.floor_pow_batch(ns, c).tolist() == want
    assert (len(escalated) < len(ns)) == (cut_bits == 38)


@pytest.mark.filterwarnings("error")
def test_floor_pow_batch_overflow_is_decided_exactly():
    # (2^42)^(3/2) = 2^63 exactly, one past int64; (2^42 - 1)^(3/2) still fits
    n = 2**42
    assert ep.floor_pow_batch([n - 1], "3/2").tolist() == [ep.floor_pow(n - 1, "3/2")]
    for ns, cc in (([n - 1, n], "3/2"), ([10**7], "31/10"), ([2, 3 * 10**18], "35/2")):
        with pytest.raises(Overflow):
            ep.floor_pow_batch(ns, cc)


# ---------------------------------------------------------------- fractional parts

def test_frac_scaled_pow_exact_integer_case():
    r = ep.frac_scaled_pow(4, "3/2", 1, 1)
    assert r.value == 0.0 and r.error_bound == 0.0


def test_frac_scaled_pow_values():
    with mpmath.workdps(40):
        want1 = float(mpmath.mpf(2) ** mpmath.mpf("1.5") - 2)
        want2 = float(mpmath.mpf(3) ** mpmath.mpf("1.5") / 2 - 2)
    r1 = ep.frac_scaled_pow(2, "3/2", 1, 1)
    assert abs(r1.value - want1) <= r1.error_bound + 1e-15
    r2 = ep.frac_scaled_pow(3, "3/2", 1, 2)
    assert abs(r2.value - want2) <= r2.error_bound + 1e-15
    assert abs(r2.value - 0.5980762113533159) < 1e-12


@given(st.integers(2, 10**4), st.integers(1, 10**3))
def test_frac_scaled_pow_h_zero(n, d):
    assert ep.frac_scaled_pow(n, "5/3", 0, d) == ep.CertifiedReal(0.0, 0.0)


@given(st.integers(2, 2000), st.integers(1, 50), st.integers(1, 40))
def test_frac_scaled_pow_certified_interval(n, h, d):
    r = ep.frac_scaled_pow(n, "8/5", h, d, tol=1e-13)
    assert 0.0 <= r.value < 1.0
    assert r.error_bound <= 1e-13
    # the certified interval never contains an integer in its interior
    if r.error_bound > 0.0:
        assert r.error_bound < r.value and r.value + r.error_bound < 1.0 + 1e-18


def test_frac_phase_integer_case():
    # 1^c * 4^(1/2) = 2 is an integer
    assert ep.frac_phase(1, "3/2", 4, F(1, 2)) == ep.CertifiedReal(0.0, 0.0)
    # cross-base cancellation: 2^(3/2) * 2^(1/2) = 4
    assert ep.frac_phase(2, "3/2", 2, F(1, 2)) == ep.CertifiedReal(0.0, 0.0)


def test_frac_phase_values():
    r = ep.frac_phase(2, "5/2", 4, F(1, 2))
    assert abs(r.value - 0.3137084989847603) < 1e-12
    assert r.error_bound <= 2.0**-48
    r2 = ep.frac_phase(10, "5/2", 100, F(3, 10))
    with mpmath.workdps(40):
        want = mpmath.mpf(10) ** mpmath.mpf("2.5") * mpmath.mpf(100) ** mpmath.mpf("0.3")
        want = float(want - mpmath.floor(want))
    assert abs(r2.value - want) < 1e-12


@given(st.integers(1, 500), st.integers(2, 200))
def test_frac_phase_kernels_cross_check(z, nb):
    # denominators up to 64 take the exact root by default; forced through
    # intervals, the kernel returns the same certified floor, so floors,
    # fixed-point entries and fractional parts are all identical
    for cc in ("5/3", "65/64"):
        assert ep.floor_pow(nb, cc) == ep.floor_pow(nb, cc, INTERVAL_CAPS)
        assert ep.scaled_floor_table([nb], cc) == ep.scaled_floor_table([nb], cc, caps=INTERVAL_CAPS)
        assert ep.frac_scaled_pow(nb, cc, z, 7) == ep.frac_scaled_pow(nb, cc, z, 7, caps=INTERVAL_CAPS)
    assert ep.frac_phase(z, "5/3", nb, F(1, 3)) == ep.frac_phase(z, "5/3", nb, F(1, 3), INTERVAL_CAPS)


def test_frac_from_fixed_enclosure():
    # m = 16, h = 2: u = 5 puts the phase in [10, 12] / 16
    assert ep.frac_from_fixed(5, 16, 2) == 11 / 16
    # an enclosure reaching past 1 contains an integer: undecided
    m = 7 << 64
    assert ep.frac_from_fixed((m - 1) // 3, m, 3) is None  # [m - 1, m + 2] / m
    # one touching 1 is decided, and its midpoint stays below 1
    assert ep.frac_from_fixed(m - 1, m, 1) == math.nextafter(1.0, 0.0)


def test_frac_tol_must_exceed_float_rounding():
    with pytest.raises(OutOfRange):
        ep.frac_scaled_pow(2, "3/2", 1, 3, tol=2.0**-52)
    r = ep.frac_scaled_pow(2, "3/2", 1, 3, tol=2.0**-51)
    assert r.error_bound <= 2.0**-51


def test_scaled_floor_table_paths():
    t = ep.scaled_floor_table([4, 5], "3/2", 64)
    tag4, v4 = t[4]
    assert tag4 == "exact" and v4 == 8
    tag5, u5 = t[5]
    assert tag5 == "fixed"
    v = 5**3 * 2**128  # (5^1.5 * 2^64)^2
    assert u5**2 <= v < (u5 + 1) ** 2
    # perfect powers are exact on the interval path too
    big = 3**65
    assert ep.scaled_floor_table([big], "66/65") == {big: ("exact", 3**66)}
    assert ep.floor_pow(big, "66/65") == 3**66
