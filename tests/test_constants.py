import ast
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pclab import constants as cn
from pclab.errors import InvalidR, NoCrossing, NonPositiveRho, OutOfRange


def test_greaves_delta_values():
    assert cn.greaves_delta(2) == 0.044560
    assert cn.greaves_delta(3) == 0.074267
    assert cn.greaves_delta(4) == 0.103974
    assert cn.greaves_delta(5) == 0.124820
    assert cn.greaves_delta(100) == 0.124820
    with pytest.raises(InvalidR):
        cn.greaves_delta(1)


def test_greaves_min_R_examples():
    assert cn.greaves_min_R(4.8) == 5
    assert cn.greaves_min_R(4.9) == 6
    assert cn.greaves_min_R(0.5) == 2


@given(st.fractions(min_value=F(1, 10), max_value=F(3000)))
@settings(max_examples=80)
def test_greaves_min_R_matches_scan(rho):
    got = cn.greaves_min_R(rho)
    r = 2
    while not (r - cn.greaves_delta_frac(r) > rho):
        r += 1
    assert got == r


def test_admissible_pairs_table():
    pairs = cn.admissible_pairs()
    assert len(pairs) == 12
    assert (pairs[0].R, pairs[0].c_R) == (8, 1.0521)
    assert (pairs[-1].R, pairs[-1].c_R) == (19, 1.2273)
    assert [p.R for p in pairs] == list(range(8, 20))


def test_feasibility_example_near_one():
    params = cn.feasibility_params("1.0521", "0.12", F(1, 10**4))
    reps = cn.feasibility_check(params)
    assert len(reps) == 11
    assert all(r.holds for r in reps)


def test_feasibility_example_failure():
    params = cn.feasibility_params("1.3", "0.12", F(1, 10**4))
    by_id = {r.id: r for r in cn.feasibility_check(params)}
    assert not by_id["iii"].holds
    assert by_id["iii"].lhs == pytest.approx(365 / 3 + 32 * 1.3 + 147 * 0.12)


@given(
    st.fractions(min_value=F(101, 100), max_value=F(3, 2)),
    st.fractions(min_value=F(1, 1000), max_value=F(1, 3)),
    st.fractions(min_value=F(1, 10**6), max_value=F(1, 100)),
)
def test_feasibility_vi_vii_always_hold(c, theta, kappa):
    # theta < 2*alpha holds for every positive theta, kappa
    params = cn.FeasibilityParams(c, theta, kappa)
    by_id = {r.id: r for r in cn.feasibility_check(params)}
    assert by_id["vi"].holds
    assert by_id["vii"].holds


def test_feasible_interval_consistent_with_check():
    kappa = F(1, 10**6)
    for pair in cn.admissible_pairs():
        iv = cn.feasible_theta_interval(pair.c_R_exact, pair.R, kappa)
        assert iv is not None
        witness = (iv[0] + iv[1]) / 2
        assert witness < F(1, pair.R)
        reps = cn.feasibility_check(cn.feasibility_params(pair.c_R_exact, witness, kappa))
        assert all(r.holds for r in reps)


def test_feasible_interval_is_tight():
    # each end is a stated bound or the zero of one inequality's slack, and
    # every inequality holds at the midpoint
    seen = 0
    for c in [F(1) + F(i, 60) for i in range(1, 21)] + [p.c_R_exact for p in cn.admissible_pairs()]:
        for R in (3, 8, 12, 19):
            for kappa in (F(1, 10**9), F(1, 10**4), F(1, 50)):
                for greaves in (False, True):
                    iv = cn.feasible_theta_interval(c, R, kappa, greaves)
                    if iv is None:
                        continue
                    seen += 1
                    named = {F(0), F(1, 20) - kappa, F(1, R), c / (R - cn.greaves_delta_frac(R))}
                    for end in set(iv) - named:
                        alpha = cn.FeasibilityParams(c, end, kappa).alpha
                        assert 0 in [r - l for _, l, r in cn._near_one_system(c, end, alpha)]
                    mid = cn.FeasibilityParams(c, (iv[0] + iv[1]) / 2, kappa)
                    assert all(r.holds for r in cn.feasibility_check(mid))
    assert seen > 100, seen


def test_near_one_slacks_are_affine_in_theta_on_both_pieces():
    for c in (F(101, 100), F(1052, 1000), F(6, 5), F(7, 4)):
        for kappa in (F(1, 10**9), F(1, 100)):
            for alpha in (lambda th: F(1, 20), lambda th: th + kappa):
                s = [[r - l for _, l, r in cn._near_one_system(c, F(th), alpha(F(th)))] for th in (0, 1, 2)]
                assert s[2] == [2 * b - a for a, b in zip(s[0], s[1])]


@pytest.mark.parametrize("kappa", [0, F(-1, 10**6), -1])
def test_kappa_must_be_positive(kappa):
    with pytest.raises(OutOfRange):
        cn.feasible_theta_interval(F(21, 20), 8, kappa)
    with pytest.raises(OutOfRange):
        cn.max_c_feasible(8, kappa=kappa)


def test_max_c_feasible_bounds():
    vals = [cn.max_c_feasible(r, 1e-4) for r in range(8, 20)]
    for pair, v in zip(cn.admissible_pairs(), vals):
        assert v >= pair.c_R
    # without the Greaves degree, (iv) c < 4/3 - 2 theta binds as theta -> 0
    for v in vals:
        assert v == pytest.approx(4 / 3, abs=1e-4)
    deg = [cn.max_c_feasible(r, 1e-4, greaves_degree=True) for r in range(8, 20)]
    assert all(a < b for a, b in zip(deg, deg[1:]))  # strictly increasing in R


def test_max_c_feasible_degree_mode_differs():
    base = cn.max_c_feasible(8, 1e-4)
    deg = cn.max_c_feasible(8, 1e-4, greaves_degree=True)
    assert deg < base


def test_regime_constants_examples():
    rc = cn.regime_constants(F(11, 5))
    assert float(rc.sigma) == pytest.approx(0.0021244, abs=1e-7)
    assert float(rc.beta) == pytest.approx(0.0998, abs=1e-4)
    assert rc.coeff == 179
    rc3 = cn.regime_constants(3)
    assert float(rc3.sigma) == pytest.approx(0.0024533, abs=1e-7)
    assert float(rc3.beta) == pytest.approx(0.04907, abs=1e-5)
    assert rc3.coeff == 88
    assert rc3.beta < F(1, 10)


def test_regime_constants_fields():
    rc = cn.regime_constants(F(5, 2))
    assert rc.c1 == rc.c + rc.sigma
    assert rc.c2 == rc.c - 1 + 3 * rc.sigma
    assert rc.beta == 47 * rc.sigma


def test_sigma_positive_and_decreasing():
    cs = [F(11, 5) + F(i, 40) for i in range(0, 30)]
    sig = [cn.regime_constants(c).sigma for c in cs if c < 3]
    assert all(s > 0 for s in sig)
    assert all(a > b for a, b in zip(sig, sig[1:]))


def test_r_bound_examples():
    rb = cn.r_bound(F(11, 5))
    assert rb.exact_bound == F(129591, 125)
    assert rb.real_bound == pytest.approx(1036.728)
    assert cn.r_bound(3).real_bound == 432 + 792
    with pytest.raises(OutOfRange):
        cn.r_bound(2)


def test_r_bound_identity_random_rationals():
    rng = random.Random(7)
    for _ in range(100):
        c = F(rng.randint(2200000, 2999999), 10**6)
        rc = cn.regime_constants(c)
        assert c / rc.sigma + F(23, 20) == 16 * c**3 + 179 * c**2
    for _ in range(100):
        c = F(rng.randint(3000000, 50000000), 10**6)
        rc = cn.regime_constants(c)
        assert c / rc.sigma + F(23, 20) == 16 * c**3 + 88 * c**2


def test_regime_inequalities_at_quoted_points():
    at_2081 = {r.id: r.holds for r in cn.regime_inequalities(F(2081, 1000))}
    assert at_2081["3.2"]
    at_2198 = {r.id: r.holds for r in cn.regime_inequalities(F(2198, 1000))}
    assert at_2198["3.3"] and at_2198["3.4"]


def test_regime_inequalities_are_the_printed_displays():
    # 3.2-3.4 written out in closed form, against the eps = 0 corner minorants
    for i in range(0, 400, 7):
        c = F(101, 100) + F(i, 7)
        rc = cn.regime_constants(c)
        s, b, c1, c2 = rc.sigma, rc.beta, rc.c1, rc.c2
        t, u = F(1, 2) - b, 1 - 2 * b
        printed = {
            "3.2": (s, (c1 * t**3 - t**4) / ((c1 + t) * (c1 + 1 - 2 * b) * (2 * c1 + t))),
            "3.3": (2 * s, (F(8, 27) * c2 - F(16, 81)) / ((c2 + F(4, 3)) * (c2 + 2) * (2 * c2 + 2))),
            "3.4": (2 * s, (c2 * u**3 - u**4) / ((c2 + 2 - 4 * b) * (c2 + 3 - 6 * b) * (2 * c2 + 3 - 6 * b))),
        }
        for ineq_id, want in printed.items():
            assert cn._large_regime_lhs(ineq_id, rc) == want


def test_threshold_of_bilinear_inequalities():
    t33 = cn.threshold("3.3", F(9, 5), F(12, 5), 1e-3)
    t34 = cn.threshold("3.4", F(9, 5), F(12, 5), 1e-3)
    assert 2.196 <= max(t33.value, t34.value) <= 2.200
    assert not t33.multi_crossing and not t34.multi_crossing


def test_threshold_no_crossing_when_already_holds():
    with pytest.raises(NoCrossing):
        cn.threshold("3.2", F(5, 2), F(3), 1e-3)


def test_narrow_inequality_crossing_is_low():
    # the printed narrow-window inequality already holds from about 1.42 on;
    # its true crossing sits far below the quoted 2.081
    t = cn.threshold("3.2", F(13, 10), F(3, 2), 1e-3)
    assert 1.40 <= t.value <= 1.44
    with pytest.raises(NoCrossing):
        cn.threshold("3.2", F(3, 2), F(11, 5), 1e-3)


def test_beta_cap_threshold():
    t = cn.threshold("beta-cap", F(2), F(12, 5), 1e-3)
    assert 2.19 <= t.value <= 2.20


def textbook_minorants(t, c, eps):
    """(m1(t), m2(t)) as displayed, one Fraction operation at a time."""
    rc = cn.regime_constants(c)
    c1, c2 = rc.c1, rc.c2
    m1 = (c1 * t**3 - (1 + eps) * t**4) / ((c1 + t) * (c1 + 2 * t) * (2 * c1 + t))
    m2 = ((c2 + 2 * eps) * t**3 - (1 + eps) * t**4) / (
        (c2 + 2 * t + 2 * eps) * (c2 + 3 * t + 2 * eps) * (2 * c2 + 3 * t + 4 * eps)
    )
    return m1, m2


def test_minorants_match_the_textbook_formula():
    # both sides of the coeff switch at c = 3, and eps as an int, a Fraction 0
    # and two positive values
    for c in (F(8, 5), F(11, 5), F(5, 2), F(3), F(7, 2), F(10), F(10521, 10000)):
        rc = cn.regime_constants(c)
        b = rc.beta
        ts = [F(i, 1000) for i in range(1001)] + [F(1, 2) - b, F(2, 3), 1 - 2 * b]
        for eps in (0, F(0), F(1, 1000), F(1, 100)):
            for t in ts:
                assert cn._minorants(t, rc, eps) == textbook_minorants(t, c, eps), (c, eps, t)
        assert cn.weyl_margin_minorants("1/3", c, "1/100") == textbook_minorants(F(1, 3), c, F(1, 100))


def test_minorants_vanish_at_zero():
    m1, m2 = cn._minorants(F(0), cn.regime_constants(F(5, 2)), F(1, 100))
    assert m1 == 0 and m2 == 0


def test_minorant_f1_increasing_grids():
    n = 1000
    for cc in (F(8, 5), F(11, 5), F(3), F(10)):
        rc = cn.regime_constants(cc)
        for eps in (F(0), F(1, 100)):
            vals = [cn._minorants(F(i, n), rc, eps)[0] for i in range(0, n + 1, 10)]
            assert all(a < b for a, b in zip(vals, vals[1:]))


def test_minorant_f2_unimodal_grids():
    n = 1000
    for cc in (F(11, 5), F(5, 2), F(3)):
        rc = cn.regime_constants(cc)
        vals = [cn._minorants(F(i, n), rc, F(1, 100))[1] for i in range(0, n + 1, 10)]
        rising = True
        drops = 0
        for a, b in zip(vals, vals[1:]):
            if b < a and rising:
                rising = False
                drops += 1
            assert b != a
            if not rising:
                assert b < a
        assert drops <= 1


def test_margin_verify_passing_cases():
    for cc in (F(11, 5), F(5, 2)):
        m = cn.margin_verify(cc, F(1, 1000))
        assert m.ok
        assert m.type1_worst >= 0 and m.type2_worst >= 0


def test_margin_verify_small_eps_large_c():
    # the window margins close up for every c once eps is small enough
    for cc in (F(11, 5), F(5, 2), F(3), F(5)):
        m = cn.margin_verify(cc, F(1, 10000))
        assert m.ok


def test_margin_verify_boundary_report():
    m = cn.margin_verify(F(11, 5), F(1, 100))
    assert isinstance(m.ok, bool)
    assert m.sigma == pytest.approx(0.0021244, abs=1e-6)


def test_margin_verify_domain():
    with pytest.raises(OutOfRange):
        cn.margin_verify(F(2), F(1, 1000))


def _margin_windows(c, eps):
    """(th_lo, th_hi, Delta_lo, Delta_max, target) of the two margin families."""
    rc = cn.regime_constants(c)
    s, b = rc.sigma, rc.beta
    return (
        (F(1, 2) - b, F(1), lambda t: (1 - t) * c - s, lambda t: (1 - t) * c + s, s + eps),
        (
            F(2, 3), 1 - 2 * b,
            lambda t: (1 - t) * (c - 1) - s,
            lambda t: (1 - t) * (c - 1) + 3 * s + 2 * eps,
            2 * s + 3 * eps,
        ),
    )


def _margin(c, eps, theta, delta, target):
    return theta * cn.vinogradov_saving(cn.vinogradov_degree(c, theta, delta), eps) - target


def test_margin_verify_exact_right_limit_below_grid():
    # at eps = 1/2, rho(3) < rho(4), so the least degree binds in the bilinear
    # window, approached from the right of Theta* where c + Delta_lo/Theta
    # reaches 3: (1 - T)(c - 1) - sigma = (3 - c) T, i.e. T = (c - 1 - sigma)/2
    c, eps = F(12, 5), F(1, 2)
    sigma = cn.regime_constants(c).sigma
    theta = (c - 1 - sigma) / 2
    exact = theta * (1 - eps) / 60 - (2 * sigma + 3 * eps)
    m = cn.margin_verify(c, eps)
    assert m.type2_worst == float(exact) == -1.4980113633033165
    assert m.type2_worst < -1.498002226625772  # the 64-point grid's sample
    assert m.type2_at[0] == float(theta)


def test_margin_verify_small_eps_binds_at_the_corner():
    # for eps <= 1/4, rho(k) falls with k from k = 3 on, so the largest degree
    # at the least Theta, the corner (th_lo, Delta_max(th_lo)), binds
    for eps in (F(1, 10**4), F(1, 1000), F(1, 100), F(1, 10), F(1, 4)):
        for i in range(0, 200, 9):
            c = F(11, 5) + F(i, 10)
            m = cn.margin_verify(c, eps)
            for (th_lo, _, _, d_max, target), worst in zip(
                _margin_windows(c, eps), (m.type1_worst, m.type2_worst)
            ):
                assert worst == float(_margin(c, eps, th_lo, d_max(th_lo), target))


@pytest.mark.parametrize("c,eps", [
    (F(11, 5), F(1, 1000)), (F(5, 2), F(1, 1000)), (F(3), F(1, 1000)), (F(5), F(1, 1000)),
    (F(12, 5), F(1, 2)), (F(5, 2), F(9, 10)), (F(27, 10), F(9, 10)), (F(7, 2), F(3, 10)),
    (F(9, 2), F(3, 2)),
    (3 - F(10004, 10**16), F(9, 10)),  # the 1e-12 floor on Delta sets Theta_3
])
def test_margin_verify_worst_is_the_window_infimum(c, eps):
    rng = random.Random(20261018)
    m = cn.margin_verify(c, eps)
    for (th_lo, th_hi, d_lo, d_max, target), worst, at in zip(
        _margin_windows(c, eps), (m.type1_worst, m.type2_worst), (m.type1_at, m.type2_at)
    ):
        for _ in range(300):
            theta = th_lo + (th_hi - th_lo) * F(rng.random())
            lo = max(d_lo(theta), F(1, 10**12))
            delta = lo + (d_max(theta) - lo) * F(rng.random())
            assert _margin(c, eps, theta, delta, target) >= worst - 1e-15
        # the reported point reaches the infimum, or, when the infimum is a
        # right-limit, the point just to its right does
        theta, delta = F(at[0]), F(at[1])
        assert float(th_lo) <= at[0] <= float(th_hi)
        near = [_margin(c, eps, t, delta, target) for t in (theta, theta + F(1, 10**12))]
        assert min(abs(v - F(worst)) for v in near) <= F(1, 10**9)


def _full_window_margins(c, eps, th_lo, th_hi, lo, hi, target):
    """_window_margins over every degree of the window, the reference."""
    (a, b), (a_hi, b_hi) = lo, hi

    def delta_lo(th):
        return max(a - b * th, cn._DELTA_FLOOR)

    k_hi = cn.vinogradov_degree(c, th_lo, a_hi - b_hi * th_lo)
    k_lo = cn.vinogradov_degree(c, th_hi, delta_lo(th_hi))
    worst = at = None
    for k in range(k_hi, k_lo - 1, -1):
        th = max(th_lo, a / (k - c + b), cn._DELTA_FLOOR / (k - c))
        margin = th * cn.vinogradov_saving(k, eps) - target
        if worst is None or margin < worst:
            worst, at = margin, (cn.float_mirror(th), cn.float_mirror(max(delta_lo(th), (k - 1 - c) * th)))
    return worst, at


def _margin_outcome(c, eps):
    try:
        return repr(cn.margin_verify(c, eps))
    except (NonPositiveRho, OutOfRange) as e:
        return repr(e)


def test_window_margins_match_the_full_degree_loop(monkeypatch):
    # only k_hi and the degrees below 2(2 + eps) can bind; the full loop agrees
    # on every value, point and error
    rng = random.Random(20261018)
    cs = [F(11, 5) + F(rng.randrange(1, 1000), rng.choice((7, 10, 1000))) for _ in range(40)]
    cs += [F(11, 5), F(5, 2), F(3), F(5), F(6), F(41, 5), F(1000)]
    epss = (F(1, 1000), F(1, 2), F(9, 10), F(3, 2), F(7))
    fast = {(c, eps): _margin_outcome(c, eps) for c in cs for eps in epss}
    monkeypatch.setattr(cn, "_window_margins", _full_window_margins)
    assert fast == {(c, eps): _margin_outcome(c, eps) for c in cs for eps in epss}
    assert any("NonPositiveRho" in v for v in fast.values())
    assert any("MarginReport" in v for v in fast.values())


def test_margin_verify_at_large_c_returns():
    m = cn.margin_verify(F(10**6))
    assert not m.ok and m.type1_at[1] > 10**5


def test_strictness_margin():
    # verdicts use slack > 1e-12: an exactly-tied inequality must not hold
    rep = cn._report("tie", F(1), F(1))
    assert not rep.holds
    rep2 = cn._report("thin", F(1), F(1) + F(1, 10**13))
    assert not rep2.holds


def test_degree_examples():
    assert cn.vinogradov_degree("5/2", 1, F(3, 10)) == 3
    assert cn.vinogradov_degree("11/5", F(1, 2), 1) == 5
    assert cn.vinogradov_degree("3/2", 1, F(1, 2)) == 3  # exact boundary 2.0


@given(st.integers(1, 60), st.integers(1, 60))
def test_degree_homogeneous(tn, td):
    t = F(tn, td)
    base = cn.vinogradov_degree("7/3", F(2, 5), F(3, 7))
    assert cn.vinogradov_degree("7/3", t * F(2, 5), t * F(3, 7)) == base


def test_saving_examples():
    assert cn.vinogradov_saving(3, 0) == F(1, 60)
    assert cn.vinogradov_saving(4, 0) == F(1, 70)
    with pytest.raises(NonPositiveRho):
        cn.vinogradov_saving(3, 1)
    with pytest.raises(NonPositiveRho):
        cn.vinogradov_saving(2, 0)


def test_saving_decreasing_in_k():
    vals = [cn.vinogradov_saving(k, F(1, 1000)) for k in range(3, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_constants_imports_nothing_from_expsum():
    # read the source: importing any pclab module first runs pclab/__init__,
    # which loads every module, expsum included
    names = set()
    for node in ast.walk(ast.parse(Path(cn.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert names and not any("expsum" in name for name in names)


def test_expsum_has_one_phase_path():
    # every sum takes its phases from the batch kernels, none from the
    # fixed-point table or the per-point certifier's public entry
    tree = ast.parse(Path(cn.__file__).with_name("expsum.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "frac_scaled_pow_batch" in names
    assert not names & {"scaled_floor_table", "frac_from_fixed", "frac_scaled_pow"}


def test_exactpow_has_one_double_word_stage():
    # floor_pow_batch and the phase batches share one double-word stage,
    # _dw_floors: _newton is used only by _dw_root, and _dw_root only by it;
    # the squaring kernel serves only _dw_pow, and the unnormalised product
    # only _dw_pow and the normalised _dw_mul
    tree = ast.parse(Path(cn.__file__).with_name("exactpow.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    users: dict[str, set[str]] = {}
    for name, fn in defs.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                users.setdefault(node.id, set()).add(name)
    assert users["_newton"] == {"_dw_root"}
    assert users["_dw_root"] == {"_dw_floors"}
    assert users["_dw_sqr"] == {"_dw_pow"}
    assert users["_dw_prod"] == {"_dw_pow", "_dw_mul"}
    assert not defs.keys() & {"_newton_floors", "_dw_phase_roots", "_newton_margin"}


def test_census_pipeline_has_one_sieve_and_one_layout_switch():
    # primes_in is the one sieve, and primes.py has one block-sieve function;
    # factor is the one integer-arithmetic module:
    # it alone defines primality, is_prime and iroot, and it reads no private
    # name of another pclab module; the censuses reach the member layout only
    # through experiments._count
    src = Path(cn.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    assert "_intmath" not in trees
    for stem, tree in trees.items():
        defs = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_simple_sieve" not in defs, stem
        assert stem == "factor" or not defs & {"primality", "is_prime", "iroot"}, stem
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("primes", "pclab.primes"):
                assert not [a.name for a in node.names if a.name.startswith("_")], stem
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any("_intmath" in name for name in names), stem
    # one block sieve: only one function of primes.py strikes mask entries
    strikers = {
        fn.name
        for fn in ast.walk(trees["primes"])
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Subscript)
        and isinstance(node.value, ast.Constant) and node.value.value is False
    }
    assert len(strikers) == 1, strikers
    for node in ast.walk(trees["factor"]):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pclab")):
            assert not [a.name for a in node.names if a.name.startswith("_")]
            assert node.module, "factor reaches other pclab modules only by name imports"
    defs = {node.name: node for node in trees["experiments"].body if isinstance(node, ast.FunctionDef)}
    for name in ("almost_prime_census", "squarefree_census", "ps_prime_count"):
        names = {node.attr for node in ast.walk(defs[name]) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)}
        names |= {node.arg for node in ast.walk(defs[name]) if isinstance(node, ast.keyword)}
        assert "dtype" not in names, name
        assert "_count" in names, name
