import math
import random
from dataclasses import replace
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pclab import exactpow as ep
from pclab import factor
from pclab.errors import DEFAULT_CAPS, IntegerExponent, NotAFraction, OutOfRange, Overflow
from pclab.primes import primes_in

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


def test_floor_pow_exponent_terms_past_the_float_range():
    # num and den past 1e308 are not floats, but c and the result are small;
    # a huge c past the precision cap is Overflow, decided in integers
    assert ep.floor_pow(3, F(10**401 + 1, 10**400)) == 3**10
    assert ep.floor_pow(1, F(10**400 + 1, 3)) == 1
    with pytest.raises(Overflow):
        ep.floor_pow(3, F(10**400 + 1, 3))


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

    def counting_iroot(x, k, _iroot=factor.iroot):
        ks.append(k)
        return _iroot(x, k)

    monkeypatch.setattr(ep, "iroot", counting_iroot)
    monkeypatch.setattr(factor, "iroot", counting_iroot)
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
        got = factor.iroot(x, k)
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
    # from about 2^39 on the float stage's margin exceeds 1/2, so 2^38 is the
    # largest v it decides itself; at 2^52, where the float spacing reaches 1,
    # the double-word stage decides den <= 64 and every den-10^4 floor escalates
    c = ep.as_exponent(cc)
    lo, hi = 1, 2**cut_bits
    while hi - lo > 1:  # largest n with n^c < 2^cut_bits
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**c.num < 2 ** (cut_bits * c.den) else (lo, mid)
    ns = np.arange(lo - 1499, lo + 2, dtype=np.int64)
    want = [ep.floor_pow(int(n), c) for n in ns]
    assert want[-3] < 2**cut_bits <= want[-1]
    flagged, escalated = [], []
    real_float_floors = ep._float_floors

    def float_floors(ns, c):
        out = real_float_floors(ns, c)
        flagged.append(int(out[1].sum()))
        return out

    monkeypatch.setattr(ep, "_float_floors", float_floors)
    monkeypatch.setattr(ep, "floor_pow", lambda n, c, caps: escalated.append(n) or want[n - int(ns[0])])
    assert ep.floor_pow_batch(ns, c).tolist() == want
    if cut_bits == 38:
        assert flagged[0] < len(ns)
    elif c.den <= 64:
        assert flagged[0] == len(ns) and len(escalated) <= 3
    else:
        assert len(escalated) == len(ns)


@pytest.mark.filterwarnings("error")
def test_floor_pow_batch_overflow_is_decided_exactly():
    # (2^42)^(3/2) = 2^63 exactly, one past int64; (2^42 - 1)^(3/2) still fits
    n = 2**42
    assert ep.floor_pow_batch([n - 1], "3/2").tolist() == [ep.floor_pow(n - 1, "3/2")]
    for ns, cc in (([n - 1, n], "3/2"), ([10**7], "31/10"), ([2, 3 * 10**18], "35/2")):
        with pytest.raises(Overflow):
            ep.floor_pow_batch(ns, cc)


@pytest.mark.filterwarnings("error")
def test_floor_pow_batch_past_the_float_range():
    # from c >= 62 on, every n > 1 has n^c >= 2^62 and the exact stage decides
    # all, so c's num past 1e308 never reaches a float
    big = F(10**400 + 1, 3)
    assert ep.floor_pow_batch([1], big).tolist() == [1]
    with pytest.raises(Overflow):
        ep.floor_pow_batch([2], big)
    # 2^62.5 is below 2^63, so it fits
    assert ep.floor_pow_batch([1, 2], "125/2").tolist() == [1, 6521908912666391106]


def is_exact_floor(n: int, c, r: int) -> bool:
    return r**c.den <= n**c.num < (r + 1) ** c.den


@pytest.mark.parametrize("x, cc", [(2 * 10**6, "11/5"), (2 * 10**6, "5/2")])
def test_floor_pow_batch_escalation_count(x, cc, monkeypatch):
    # every member above v ~ 5e11 takes the double-word stage, in many
    # chunks; none is near enough an integer to reach floor_pow
    c = ep.as_exponent(cc)
    ps = primes_in(0, x)
    escalated = []
    real_floor_pow = ep.floor_pow
    monkeypatch.setattr(ep, "floor_pow", lambda n, c, caps: escalated.append(n) or real_floor_pow(n, c, caps))
    out = ep.floor_pow_batch(ps, c)
    assert escalated == []
    assert all(is_exact_floor(n, c, r) for n, r in zip(ps.tolist(), out.tolist()))


def test_floor_pow_batch_perfect_powers_escalate(monkeypatch):
    # k^den makes n^c the integer k^num, which no margin certifies; its
    # neighbours need not escalate, but come back exact too
    real_floor_pow = ep.floor_pow
    for cc, kmax in (("3/2", 2**20), ("5/2", 2**12), ("11/5", 48), ("7/3", 2**8)):
        c = ep.as_exponent(cc)
        ks = sorted({2, 3, kmax, *random.Random(cc).sample(range(2, kmax), 40)})
        powers = [k**c.den for k in ks]
        ns = np.array([m for p in powers for m in (p - 1, p, p + 1)], dtype=np.int64)
        escalated = []
        monkeypatch.setattr(ep, "floor_pow", lambda n, c, caps: escalated.append(n) or real_floor_pow(n, c, caps))
        out = ep.floor_pow_batch(ns, c).tolist()
        assert set(powers) <= set(escalated)
        assert all(is_exact_floor(n, c, r) for n, r in zip(ns.tolist(), out))
        assert [out[3 * i + 1] for i in range(len(ks))] == [k**c.num for k in ks]


def test_floor_pow_batch_is_bit_identical_in_any_chunking(monkeypatch):
    # three runs of 2^14 + 1 elements at 3/2, shuffled: v near 5e11, where the
    # float stage stops certifying, v near 2^52, and the perfect powers k^2,
    # whose integer floors k^3 escalate to floor_pow
    c = ep.as_exponent("3/2")
    rng = np.random.default_rng(27)
    run = 2**14 + 1
    ks = rng.integers(1, 2**17, run)
    ns = np.concatenate((
        bisect_root((5 * 10**11) ** 2, 3) + rng.integers(-3 * 10**7, 3 * 10**7, run),  # n^(3/2) = 5e11 at n ~ 6.3e7
        bisect_root(2**104, 3) + rng.integers(-10**7, 10**7, run),  # and 2^52 at n ~ 2.6e10
        ks * ks,
        [1, 2],
    )).astype(np.int64)
    ns = rng.permutation(ns)
    assert ns.size == 3 * 2**14 + 5
    want = ep.floor_pow_batch(ns, c)
    monkeypatch.setattr(ep, "_DW_CHUNK", 7)
    got = ep.floor_pow_batch(ns, c)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for i in rng.choice(ns.size, 300, replace=False).tolist():
        assert int(got[i]) == ep.floor_pow(int(ns[i]), c), int(ns[i])


@pytest.mark.parametrize("cc", ["11/5", "5/2", "3/2", "127/64", "255/64", "65/64"])
def test_floor_pow_batch_sample_is_exact(cc):
    # log-uniform n up to the int64 range of n^c: 127/64 and 255/64 take
    # n^num far past 2^1023, 65/64 takes n past 2^53, and the top elements
    # pass 2^62, where the double-word stage hands over to floor_pow
    c = ep.as_exponent(cc)
    top = bisect_root(2 ** (63 * c.den) - 1, c.num)  # largest n with n^c < 2^63
    rng = random.Random(f"sample {cc}")
    ns = np.array([top, *(min(top, round(2 ** rng.uniform(1, math.log2(top)))) for _ in range(399))],
                  dtype=np.int64)
    out = ep.floor_pow_batch(ns, c)
    assert all(is_exact_floor(n, c, r) for n, r in zip(ns.tolist(), out.tolist()))


# ---------------------------------------------------------------- fractional parts

def test_frac_scaled_pow_exact_integer_case():
    r = ep.frac_scaled_pow(4, "3/2", 1, 1)
    assert r.value == 0.0 and r.error_bound == 0.0


def test_frac_scaled_pow_modulus_past_the_float_range():
    # tol 1e-12 and h = 1 start at s = 64; d 2^64 = the largest float is kept
    top = ((1 << 1024) - (1 << 971)) >> 64
    assert ep.frac_scaled_pow(2, "3/2", 1, top).error_bound <= 1e-12
    for h, d in ((1, (1 << 960) - 1), (10**400, 7), (1, 10**400)):
        with pytest.raises(OutOfRange):
            ep.frac_scaled_pow_batch([2, 3], "3/2", h, d)


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


# ---------------------------------------------------------------- batch fractional parts

def exact_phase(h: int, d: int, b: int, e: int, q: int, b2: int = 1, e2: int = 0) -> F:
    """{h P / d} to within h / (d 2^128), from the 128-bit fixed-point floor of P."""
    u = ep._floor_root(b, e, q, 128, DEFAULT_CAPS, b2, e2)
    return F(h * u, d << 128) % 1


def phase_ratios(values, bounds, h, d, bs, e, q, b2=1, e2=0) -> list[F]:
    """|value - phase| / bound per element (0 for an exact value); each must be <= 1."""
    out = []
    for b, v, bound in zip(np.asarray(bs).tolist(), values.tolist(), bounds.tolist()):
        err = abs(F(v) - exact_phase(h, d, b, e, q, b2, e2))
        assert err <= F(bound) + F(h, d << 128), (b, v, bound)
        out.append(err / F(bound) if bound else F(0))
    return out


@pytest.fixture
def escalated(monkeypatch):
    """The bases that the batch hands to _certified_frac, in order."""
    out = []
    real = ep._certified_frac

    def counting(h, d, tol, caps, b, *rest):
        out.append(b)
        return real(h, d, tol, caps, b, *rest)

    monkeypatch.setattr(ep, "_certified_frac", counting)
    return out


@pytest.mark.parametrize("cc", ["3/2", "11/5", "5/2", "127/64", "255/64", "10521/10000"])
def test_frac_scaled_pow_batch_sample_within_bounds(cc, escalated):
    # log-uniform n up to P = 2^62; 127/64 and 255/64 take n^num past 2^1023.
    # Below P = 2^50 only perfect powers escalate; above it E can pass tol.
    # At (h, d) = (3, 7) the worst error of the accepted values reaches
    # past an eighth of their bound (0.14 to 0.25 measured)
    c = ep.as_exponent(cc)
    rng = random.Random(f"phase {cc}")
    ns = np.array([round(2 ** rng.uniform(1, 62 / float(c))) for _ in range(150)], dtype=np.int64)
    for h, d in ((3, 7), (1, 1), (10, 3)):
        escalated.clear()
        values, bounds = ep.frac_scaled_pow_batch(ns, c, h, d)
        assert ((0 <= values) & (values < 1) & (bounds <= ep.DEFAULT_FRAC_TOL)).all()
        ratios = phase_ratios(values, bounds, h, d, ns, c.num, c.den)
        for n in escalated:
            assert n**c.num >= 2 ** (50 * c.den) or factor.perfect_root(n, c.den) is not None
        assert len(escalated) < len(ns) // 4
        if (h, d) == (3, 7):
            accepted = [r for n, r in zip(ns.tolist(), ratios) if n not in escalated]
            assert F(1, 8) < max(accepted) <= 1


def test_frac_scaled_pow_batch_edge_cases(escalated):
    # n = 1 and the perfect squares escalate, in one array with their
    # neighbours; h >= d, h = 0 and empty input
    c = ep.as_exponent("5/2")
    powers = [k * k for k in (2, 3, 17, 1000)]
    ns = np.array([1, *(m for p in powers for m in (p - 1, p, p + 1))], dtype=np.int64)
    for h, d in ((3, 7), (7, 7), (12, 5), (1, 1)):
        escalated.clear()
        values, bounds = ep.frac_scaled_pow_batch(ns, c, h, d)
        assert escalated == [1, *powers]
        for i in (0, *range(2, ns.size, 3)):
            assert ep.CertifiedReal(values[i], bounds[i]) == ep.frac_scaled_pow(int(ns[i]), c, h, d)
        phase_ratios(values, bounds, h, d, ns, c.num, c.den)
    escalated.clear()
    values, bounds = ep.frac_scaled_pow_batch(ns, c, 0, 7)
    assert not values.any() and not bounds.any() and escalated == []
    for out in (ep.frac_scaled_pow_batch([], c, 3, 7), ep.frac_phase_batch([], c, 10, F(1, 3))):
        assert [a.size for a in out] == [0, 0]
    for args in (([0, 2], c, 1, 3), ([2], c, -1, 3), ([2], c, 1, 0), ([2], c, 1, 3, 2.0**-52)):
        with pytest.raises(OutOfRange):
            ep.frac_scaled_pow_batch(*args)
    with pytest.raises(OutOfRange):
        ep.frac_phase_batch([0, 2], c, 10, F(1, 3))


def test_frac_scaled_pow_batch_tol_near_the_float_rounding_escalates(escalated):
    ns = np.arange(2, 60, dtype=np.int64)
    tol = 2.0**-51.5
    values, bounds = ep.frac_scaled_pow_batch(ns, "11/5", 3, 7, tol)
    assert escalated == ns.tolist()
    assert values.tolist() == [ep.frac_scaled_pow(n, "11/5", 3, 7, tol).value for n in ns.tolist()]
    assert (bounds <= tol).all()


@pytest.mark.parametrize("size", [2**14 - 1, 2**14, 2**14 + 1])
def test_frac_scaled_pow_batch_chunk_edges(size, escalated):
    ns = primes_in(0, 2 * 10**5)[:size]
    values, bounds = ep.frac_scaled_pow_batch(ns, "11/5", 3, 7)
    assert escalated == [] and values.size == size
    idx = sorted({0, 1, size - 2, size - 1, *range(2**14 - 2, min(size, 2**14 + 2))})
    phase_ratios(values[idx], bounds[idx], 3, 7, ns[idx], 11, 5)


@pytest.mark.parametrize("cc", ["3/2", "77/10", "100000001/100000000"])
def test_frac_pairs_compute_each_root_once(cc, monkeypatch):
    # every n^(77/10) here passes 2^62 and den 10^8 skips the double-word
    # stage, so both escalate for every pair; at 3/2 only the squares 32^2
    # and 33^2 do.  The pairs share each root and each matches its own batch.
    ns = np.arange(1000, 1100, dtype=np.int64)
    pairs = [(h, d) for h in (1, 2, 5) for d in (3, 4)]
    expected = [ep.frac_scaled_pow_batch(ns, cc, h, d) for h, d in pairs]
    roots = []
    real = ep._floor_root
    monkeypatch.setattr(ep, "_floor_root", lambda *args: roots.append(args[0]) or real(*args))
    got = list(ep._frac_scaled_pow_pairs(ns, cc, iter(pairs)))
    assert len(got) == len(pairs)
    for (values, bounds), (want_values, want_bounds) in zip(got, expected):
        assert values.tolist() == want_values.tolist() and bounds.tolist() == want_bounds.tolist()
    assert sorted(roots) == ([32**2, 33**2] if cc == "3/2" else ns.tolist())


def test_frac_phase_batch_two_bases(escalated):
    # 5/2 with delta 3/10 take q = 10; only z = 1 escalates
    zs = np.array([1, *random.Random("weyl").sample(range(2, 10**5), 200)], dtype=np.int64)
    values, bounds = ep.frac_phase_batch(zs, "5/2", 40000, F(3, 10))
    assert escalated == [1] and (bounds <= ep.PHASE_TOL).all()
    phase_ratios(values, bounds, 1, 1, zs, 25, 10, 40000, 3)
    # 2^(3/2) * 2^(1/2) = 4 cancels across the bases and is exact
    escalated.clear()
    values, bounds = ep.frac_phase_batch([2, 3], "3/2", 2, F(1, 2))
    assert escalated == [2] and (values[0], bounds[0]) == (0.0, 0.0)
    phase_ratios(values, bounds, 1, 1, [2, 3], 3, 2, 2, 1)


def root_err_case(steps, cc, floor):
    c = ep.as_exponent(cc)
    return pytest.param(steps, c.num, c.den, 1, 0, floor, id=cc if steps == 2 else f"one step {cc}")


# From y0 = y (1 +- 0.999 2^-39) one step leaves Newton's quadratic term,
# which reaches (q - 1) / q of the bound; the second leaves the double-word
# products, whose worst case the bound takes (the worst errors measured are
# 1/90 to 1/33 of it).  The last case is the Weyl phase z^(5/2) 40000^(3/10).
ROOT_ERR_CASES = [
    *(root_err_case(1, cc, 0.4) for cc in ["5/2", "11/5", "127/64", "255/64", "65/64"]),
    *(root_err_case(2, cc, 2.0**-8) for cc in ["5/2", "11/5", "127/64", "255/64", "10521/10000"]),
    pytest.param(2, 25, 10, 40000, 3, 2.0**-8, id="weyl 5/2 3/10"),
]


@pytest.mark.parametrize("steps, e, q, b2, e2, floor", ROOT_ERR_CASES)
def test_root_rel_err_covers_the_worst_float_guess(steps, e, q, b2, e2, floor):
    rng = random.Random(f"root {steps} {e}/{q} {b2}^{e2}")
    top = (61.9 - e2 * math.log2(b2) / q) * q / e  # P < 2^61.9
    ns = np.array([round(2 ** rng.uniform(1, top)) for _ in range(100)], dtype=np.int64)
    rel = ep._root_rel_err(q, (e + e2) / q, steps)
    a = ep._dw_power(ns, e, b2, e2)
    with mpmath.workdps(60):
        ys = [mpmath.root(mpmath.mpf(n) ** e * mpmath.mpf(b2) ** e2, q) for n in ns.tolist()]
        for side in (1, -1):
            y0 = np.array([float(y * (1 + side * 0.999 * 2.0**-39)) for y in ys])
            hi, lo = ep._dw_root(a, y0, q, steps)
            worst = max(abs(mpmath.mpf(h) + mpmath.mpf(l) - y) / (h * rel) for h, l, y in zip(hi, lo, ys))
            assert floor < worst <= 1


# ------------------------------------------- double-word products, oracle

def normalising_dw_mul(xh, xl, yh, yl):
    """The product normalised after every use: h in [1/2, 1) again."""
    p = xh * yh
    t = ep._SPLIT * xh
    ah = t - (t - xh)
    al = xh - ah
    t = ep._SPLIT * yh
    bh = t - (t - yh)
    bl = yh - bh
    e = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + (xh * yl + xl * yh)
    h = p + e
    m, k = np.frexp(h)
    return m, np.ldexp(e - (h - p), -k), k


def normalising_dw_pow(h, l, k, e):
    rh, rl, rk = h, l, k
    for bit in bin(e)[3:]:
        rh, rl, s = normalising_dw_mul(rh, rl, rh, rl)
        rk = 2 * rk + s
        if bit == "1":
            rh, rl, s = normalising_dw_mul(rh, rl, h, l)
            rk = rk + k + s
    return rh, rl, rk


def dw_outputs(bs, e, q, b2, e2):
    """Every array the double-word stage returns for bs, flattened in order."""
    arrays = list(ep._dw_power(bs, e, b2, e2))
    y0 = ep._float_pow(bs, e, q, b2, e2)
    sel = np.flatnonzero((bs > 1) & (y0 < 2.0**62))
    for steps in (1, 2):
        arrays += ep._dw_root(ep._dw_power(bs[sel], e, b2, e2), y0[sel], q, steps)
        arrays += [a for chunk in ep._dw_floors(bs, None, e, q, steps, b2, e2) for a in chunk]
    return arrays


@pytest.mark.parametrize("size", [0, 1, ep._DW_CHUNK + 1])
@pytest.mark.parametrize(
    "e, q, b2, e2", [(11, 5, 1, 0), (11, 2, 1, 0), (25, 10, 40000, 3), (1000, 999, 1, 0), (1000, 10000, 7, 11),
                     (10521, 10000, 1, 0)],
)
def test_dw_stage_is_bit_identical_to_normalising_every_product(e, q, b2, e2, size, monkeypatch):
    # bases just above a power of two keep the high parts near 1/2, so the
    # unnormalised powers fall fastest there; the rest take part in the stage
    rng = np.random.default_rng(e * q + size)
    top = min(62.0, (61.9 - e2 * math.log2(b2) / q) * q / e)
    near = (np.int64(1) << rng.integers(1, 62, size)) + rng.integers(0, 4, size)
    bs = np.where(rng.random(size) < 0.25, near, (2.0 ** rng.uniform(1, top, size)).astype(np.int64))
    if size > 1:
        bs[:4] = [1, 2, (1 << 62) - 1, 1 << 62]
    got = dw_outputs(bs, e, q, b2, e2)
    monkeypatch.setattr(ep, "_dw_mul", normalising_dw_mul)
    monkeypatch.setattr(ep, "_dw_pow", normalising_dw_pow)
    want = dw_outputs(bs, e, q, b2, e2)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), i


def test_dw_pow_needs_a_positive_exponent():
    h, l, k = ep._dw_split(np.array([3], dtype=np.int64))
    assert ep._dw_pow(h, l, k, 1)[0].tobytes() == h.tobytes()
    with pytest.raises(ValueError):
        ep._dw_pow(h, l, k, 0)
