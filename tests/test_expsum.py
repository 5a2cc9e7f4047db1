import cmath
import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from pclab import exactpow, expsum as es
from pclab.factor import iroot
from pclab import experiments as ex
from pclab.errors import Caps, NonPositiveRho, OutOfRange, RangeTooLarge
from pclab.exactpow import frac_phase, frac_scaled_pow


def mp_e_sum(fracs, weights=None):
    re = im = 0.0
    for i, fr in enumerate(fracs):
        w = 1.0 if weights is None else weights[i]
        re += w * math.cos(2 * math.pi * fr)
        im += w * math.sin(2 * math.pi * fr)
    return complex(re, im)


def test_weyl_single_term():
    # floor(4^(1/4)) = 1, so the range (1, 2] holds a single term
    r = es.weyl_sum("5/2", F(1, 4), F(1, 2), 4)
    assert abs(abs(r.value) - 1.0) < 1e-12
    assert r.trivial_bound == 1.0


def test_weyl_value_and_bound():
    r = es.weyl_sum("5/2", 1, F(3, 10), 100)
    assert r.params["k"] == 3
    assert r.analytic_bound == pytest.approx(100 ** (1 - 1 / 60))
    assert abs(r.value) <= r.trivial_bound + 1e-6
    # reversed-order recomputation from certified phases
    fracs = [frac_phase(z, "5/2", 100, F(3, 10)).value for z in range(200, 100, -1)]
    again = mp_e_sum(fracs)
    assert abs(r.value - again) <= 1e-9 * max(1.0, abs(again))


def test_weyl_needs_degree_3():
    with pytest.raises(NonPositiveRho):
        es.weyl_sum("3/2", 1, F(1, 10), 100)  # k = 2


def test_weyl_term_cap():
    with pytest.raises(RangeTooLarge):
        es.weyl_sum("3/2", 1, F(1, 2), 10**9)


@pytest.mark.parametrize("cap", [63, 64, 100])
@pytest.mark.parametrize("theta", [F(1), F(1, 2), F(2, 3)])
def test_weyl_term_cap_is_decided_on_floor_n_theta(cap, theta):
    # the bit-length test ahead of the power rejects only what the cap would
    caps = Caps(weyl_terms=cap)
    for n in {max(2, round(b ** (1 / theta)) + j) for b in (cap, cap + 1, 64, 128) for j in (-1, 0, 1)}:
        m = iroot(n ** theta.numerator, theta.denominator)
        if m > cap:
            with pytest.raises(RangeTooLarge):
                es.weyl_sum("5/2", theta, 1, n, caps=caps)
        else:
            assert es.weyl_sum("5/2", theta, 1, n, caps=caps).params["terms"] == m


def test_prime_expsum_single_term():
    r = es.prime_expsum(2, "3/2", 3, 7)
    assert abs(abs(r.value) - 1.0) < 1e-12
    assert r.analytic_bound is None  # c < 11/5


def test_prime_expsum_small_oracle():
    r = es.prime_expsum(10, "3/2", 1, 1)
    with mpmath.workdps(40):
        re = im = mpmath.mpf(0)
        for p in (2, 3, 5, 7):
            t = mpmath.mpf(p) ** mpmath.mpf("1.5")
            fr = t - mpmath.floor(t)
            re += mpmath.cos(2 * mpmath.pi * fr)
            im += mpmath.sin(2 * mpmath.pi * fr)
        want = complex(float(re), float(im))
    assert abs(r.value - want) < 1e-10


def test_prime_expsum_bound_regime():
    r = es.prime_expsum(1000, "11/5", 3, 7)
    assert r.analytic_bound is not None and r.ratio is not None
    assert r.ratio == pytest.approx(abs(r.value) / r.analytic_bound)


def test_prime_expsum_conjugation():
    # negating h conjugates every term, so |value| is unchanged
    plus = [frac_scaled_pow(p, "3/2", 3, 7).value for p in (2, 3, 5, 7, 11)]
    v_plus = mp_e_sum(plus)
    v_minus = mp_e_sum([(1.0 - f) % 1.0 for f in plus])
    assert v_minus == pytest.approx(v_plus.conjugate(), abs=1e-12)


def test_trilinear_bound_examples():
    b = es.trilinear_bound(1, 1, 1, 1.0)
    assert b.value == pytest.approx(2 * math.log(2))
    assert b.x_ge_dl
    lo = es.trilinear_bound(2, 2, 2, 1.0)
    hi = es.trilinear_bound(2, 2, 2, 64.0)
    assert hi.value >= lo.value
    assert not lo.x_ge_dl and hi.x_ge_dl


def test_trilinear_x_formula():
    x = es.trilinear_x_size(1, 2, 4, 8, "3/2")
    assert x == pytest.approx(0.5 * 8 * 8**1.5)
    assert x == pytest.approx(90.50966799187809)


def test_trilinear_single_cell():
    r = es.trilinear_sum(1, 1, 1, 1, "3/2")
    assert abs(abs(r.value) - 1.0) < 1e-12
    assert r.trivial_bound == 1.0


def test_trilinear_seeded_weights_reproducible():
    a = es.trilinear_sum(2, 4, 4, 1, "8/5", "pm1", seed=11)
    b = es.trilinear_sum(2, 4, 4, 1, "8/5", "pm1", seed=11)
    c = es.trilinear_sum(2, 4, 4, 1, "8/5", "pm1", seed=12)
    assert a.value == b.value
    assert a.value != c.value


def test_trilinear_interval_weights():
    r = es.trilinear_sum(2, 4, 8, 1, "8/5", "interval")
    assert r.trivial_bound == 2 * 4 * 4  # b_l supported on (L, 3L/2]


def test_trilinear_against_direct_loop():
    d_s, m_s, l_s, h = 2, 3, 3, 2
    r = es.trilinear_sum(d_s, m_s, l_s, h, "7/4", "pm1", seed=5)
    from pclab.prng import pm1_weights

    stream = pm1_weights(5, d_s + m_s + l_s)
    cd, am, bl = stream[:d_s], stream[d_s : d_s + m_s], stream[d_s + m_s :]
    total = 0j
    for di, dd in enumerate(range(d_s + 1, 2 * d_s + 1)):
        for mi, mm in enumerate(range(m_s + 1, 2 * m_s + 1)):
            for li, ll in enumerate(range(l_s + 1, 2 * l_s + 1)):
                fr = frac_scaled_pow(ll * mm, "7/4", h, dd).value
                total += cd[di] * am[mi] * bl[li] * cmath.exp(2j * math.pi * fr)
    assert abs(r.value - total) <= 1e-9 * max(1.0, abs(total))


def test_triple_sum_h_zero():
    r = es.triple_sum(100, 2, 0, "3/2")
    assert r.value == 0j


def test_triple_sum_bounds():
    # H*D*x is checked before the von Mangoldt table of 2x is built
    with pytest.raises(RangeTooLarge, match="H\\*D\\*x"):
        es.triple_sum(10**7, 1, 10**3, "3/2")
    # x itself is bounded by the table's cap, at mangoldt_x / 2
    caps = Caps(mangoldt_x=200)
    assert es.triple_sum(100, 1, 1, "3/2", caps=caps).params["prime_powers"] > 0
    with pytest.raises(RangeTooLarge, match="von Mangoldt"):
        es.triple_sum(101, 1, 1, "3/2", caps=caps)
    # H = 0 is the empty sum, but a negative H would give a negative trivial bound
    with pytest.raises(OutOfRange, match="H >= 0"):
        es.triple_sum(100, 2, -1, "3/2")
    # with H = 0 the budget does not bound D: the d range is never stored, and
    # a D whose comparator passes the float range is refused
    r = es.triple_sum(100, 10**19, 0, "3/2")
    assert (r.value, r.trivial_bound, r.ratio) == (0, 0, 0)
    with pytest.raises(OutOfRange, match="float range"):
        es.triple_sum(100, 10**400, 0, "3/2")


def test_triple_sum_loop_order_invariance():
    r = es.triple_sum(100, 2, 2, "3/2")
    # recompute with the (h, d) loops swapped from certified phases
    table_total = []
    from pclab.primes import mangoldt_table

    t = mangoldt_table(200)
    sel = [(int(n), float(w)) for n, w in zip(t.ns, t.logs) if 100 < n <= 200]
    for dd in (3, 4):
        for h in (1, 2):
            fr = [frac_scaled_pow(n, "3/2", h, dd).value for n, _ in sel]
            table_total.append(abs(mp_e_sum(fr, [w for _, w in sel])))
    assert r.value.real == pytest.approx(math.fsum(table_total), rel=1e-9)
    assert r.analytic_bound == pytest.approx(2 * 100 / math.log(100) ** 3)


def test_sumeval_json_shape():
    r = es.weyl_sum("5/2", 1, F(3, 10), 50)
    j = r.to_json()
    assert set(j) == {"kind", "params", "value", "trivial_bound", "analytic_bound", "ratio"}
    assert isinstance(j["value"], list) and len(j["value"]) == 2


@given(st.integers(2, 40), st.integers(1, 6), st.integers(1, 9))
@settings(max_examples=25)
def test_trivial_bound_invariant(x, h, d):
    r = es.prime_expsum(x, "5/3", h, d)
    assert abs(r.value) <= r.trivial_bound + 1e-6


@pytest.mark.parametrize(
    "run, escalations",
    [
        (lambda: es.prime_expsum(10**5, "11/5", 3, 7), 0),
        (lambda: es.prime_expsum(10**5, "10521/10000", 3, 7), 0),
        (lambda: ex.star_discrepancy(10**5, "10521/10000", 1, 7), 0),
        (lambda: es.weyl_sum("5/2", 1, F(3, 10), 10**4), 0),
        # the largest phases, near 2^49, have E past 2^-48 and escalate
        (lambda: es.weyl_sum("5/2", 1, F(3, 10), 10**5), 41),
        (lambda: es.trilinear_sum(8, 32, 32, 1, "10521/10000", "pm1", seed=42), 0),
        # the squares 121 and 169 are exact, once per (h, d) pair of 2 x 2
        (lambda: es.triple_sum(100, 2, 2, "3/2"), 8),
    ],
    ids=[
        "prime_11_5",
        "prime_10521_10000",
        "discrepancy_10521_10000",
        "weyl_1e4",
        "weyl_1e5",
        "trilinear_10521_10000",
        "triple_3_2",
    ],
)
def test_sum_phases_escalate_as_pinned(run, escalations, monkeypatch):
    # the batch phases hand only these to the per-point certifier
    calls = []
    real = exactpow._certified_frac
    monkeypatch.setattr(exactpow, "_certified_frac", lambda *args: calls.append(args) or real(*args))
    run()
    assert len(calls) == escalations
