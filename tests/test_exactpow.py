import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, strategies as st

from pclab import exactpow as ep
from pclab.errors import IntegerExponent, NotAFraction, OutOfRange


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


@given(st.integers(2, 10**5), st.integers(2, 16), st.data())
def test_floor_pow_matches_root_oracle(n, den, data):
    num = data.draw(st.integers(den + 1, 3 * den - 1))
    if math.gcd(num, den) > 1:
        return
    got = ep.floor_pow(n, F(num, den))
    assert got == bisect_root(n**num, den)
    assert got**den <= n**num < (got + 1) ** den


def test_floor_pow_monotone_in_n():
    c = ep.parse_exponent("7/5")
    vals = [ep.floor_pow(n, c) for n in range(2, 400)]
    assert vals == sorted(vals)


def test_floor_pow_batch_agrees_with_scalar():
    import numpy as np

    ns = np.arange(2, 3000, dtype=np.int64)
    for cc in ("3/2", "10521/10000", "7/5"):
        batch = ep.floor_pow_batch(ns, cc)
        for i in (0, 1, 17, 500, 2500):
            assert int(batch[i]) == ep.floor_pow(int(ns[i]), cc)


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


@given(st.integers(2, 500), st.integers(2, 200))
def test_frac_phase_kernels_cross_check(z, nb):
    # small-denominator inputs take the scaled-root path; the same value
    # recomputed through the interval kernel must agree within both bounds
    delta = F(1, 3)
    a = ep.frac_phase(z, "5/3", nb, delta)
    if a.error_bound == 0.0:
        return  # exact rational case, nothing to cross-check
    b = ep._frac_via_intervals([(z, F(5, 3)), (nb, delta)], 1, 1, ep.PHASE_TOL, ep.DEFAULT_CAPS)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-15


def test_scaled_floor_table_paths():
    t = ep.scaled_floor_table([4, 5], "3/2", 64)
    tag4, v4 = t[4]
    assert tag4 == "exact" and v4 == 8
    tag5, u5 = t[5]
    assert tag5 == "fixed"
    v = 5**3 * 2**128  # (5^1.5 * 2^64)^2
    assert u5**2 <= v < (u5 + 1) ** 2
