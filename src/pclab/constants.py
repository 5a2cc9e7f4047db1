"""Exact evaluation of the explicit constants, inequalities and thresholds.

Inputs are coerced to exact rationals (floats convert via their exact
binary value) and every verdict is computed in Fraction arithmetic with a
fixed strictness margin, so re-running at higher precision can never flip a
verdict at the demanded tolerances.

Each inequality system is stated once.  The eleven near-one inequalities
live in _near_one_system, which feasibility_check reports and
feasible_theta_interval solves for theta; inequalities 3.2-3.4 are the
eps = 0 window minorants of _minorants at the window corners.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._json import Report, jsonable
from .errors import InvalidR, NoCrossing, NonPositiveRho, NotAFraction, OutOfRange, PCLabError
from .exactpow import as_ratio

F = Fraction

# verdicts require this much slack
STRICTNESS = F(1, 10**12)

# Greaves sieve constants
_DELTA = {2: F("0.044560"), 3: F("0.074267"), 4: F("0.103974")}
_DELTA_TAIL = F("0.124820")

# admissible (R, c_R) pairs for the near-one regime
_PAIRS = (
    (8, F("1.0521")),
    (9, F("1.1056")),
    (10, F("1.1308")),
    (11, F("1.1494")),
    (12, F("1.1649")),
    (13, F("1.1780")),
    (14, F("1.1891")),
    (15, F("1.1988")),
    (16, F("1.2073")),
    (17, F("1.2148")),
    (18, F("1.2214")),
    (19, F("1.2273")),
)


def _frac(x) -> Fraction:
    """as_ratio, plus finite floats at their exact binary value."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise NotAFraction(f"{x!r} is not a finite number")
        return F(x)
    return as_ratio(x)


def float_mirror(q) -> float:
    """float(q) for an exact value q; OutOfRange where q is beyond float range."""
    try:
        return float(q)
    except OverflowError:
        raise OutOfRange("an exact value exceeds the float range (about 1.8e308)") from None


def greaves_delta_frac(r: int) -> Fraction:
    if r < 2:
        raise InvalidR(f"need R >= 2, got {r}")
    return _DELTA.get(r, _DELTA_TAIL)


def greaves_delta(r: int) -> float:
    """The sieve constant delta_R: 0.044560 / 0.074267 / 0.103974 for
    R = 2, 3, 4 and 0.124820 for R >= 5."""
    return float_mirror(greaves_delta_frac(r))


def greaves_min_R(rho) -> int:
    """Least R >= 2 with R - delta_R > rho."""
    rho = _frac(rho)
    if rho <= 0:
        raise OutOfRange("need rho > 0")
    for r in (2, 3, 4):
        if r - _DELTA[r] > rho:
            return r
    base = rho + _DELTA_TAIL
    r = base.numerator // base.denominator + 1
    return max(5, r)


@dataclass(frozen=True)
class AdmissiblePair:
    R: int
    c_R: float

    @property
    def c_R_exact(self) -> Fraction:
        return dict(_PAIRS)[self.R]


def admissible_pairs() -> list[AdmissiblePair]:
    """The stored (R, c_R) table for R = 8..19."""
    return [AdmissiblePair(r, float_mirror(c)) for r, c in _PAIRS]


@dataclass(frozen=True)
class InequalityReport(Report):
    id: str
    lhs: float
    rhs: float
    slack: float      # rhs - lhs
    holds: bool       # slack > strictness margin, decided exactly


def _holds(lhs: Fraction, rhs: Fraction) -> bool:
    """lhs < rhs by more than STRICTNESS, the verdict of every inequality."""
    return rhs - lhs > STRICTNESS


def _report(ineq_id: str, lhs: Fraction, rhs: Fraction) -> InequalityReport:
    return InequalityReport(ineq_id, float_mirror(lhs), float_mirror(rhs), float_mirror(rhs - lhs), _holds(lhs, rhs))


@dataclass(frozen=True)
class FeasibilityParams:
    """Parameters (c, theta, kappa) of the near-one feasibility system."""

    c: Fraction
    theta: Fraction
    kappa: Fraction

    def __post_init__(self):
        if self.theta <= 0 or self.kappa <= 0:
            raise OutOfRange("need theta > 0 and kappa > 0")

    @property
    def alpha(self) -> Fraction:
        return max(F(1, 20), self.theta + self.kappa)


def feasibility_params(c, theta, kappa) -> FeasibilityParams:
    return FeasibilityParams(_frac(c), _frac(theta), _frac(kappa))


def _near_one_system(c: Fraction, th: Fraction, a: Fraction) -> tuple:
    """(id, lhs, rhs) of the eleven inequalities lhs < rhs of the near-one
    reduction, at theta = th and alpha = a."""
    return (
        ("i", 2 * th + 2 * a, c),
        ("ii", c + 5 * th + 2 * a, F(2)),
        ("iii", F(365, 3) + 32 * c + 147 * th, F(174)),
        ("iv", F(8, 3) + c + 2 * th, F(4)),
        ("v", 2 + c + 4 * th, F(4)),
        ("vi", 1 + th - 2 * a, F(1)),
        ("vii", 1 + th / 2 - a, F(1)),
        ("viii", F(2, 3) + th, F(1)),
        ("ix", 1 - c / 2 + 3 * th / 2, F(1)),
        ("x", 2 * th + (1 + a) / 2, c),
        ("xi", 2 * c + 6 * th + a, F(3)),
    )


def feasibility_check(params: FeasibilityParams) -> list[InequalityReport]:
    """The eleven inequalities of the near-one reduction, evaluated exactly."""
    return [_report(*item) for item in _near_one_system(params.c, params.theta, params.alpha)]


def feasible_theta_interval(
    c,
    R: int,
    kappa=F(1, 10**9),
    greaves_degree: bool = False,
) -> tuple[Fraction, Fraction] | None:
    """An open theta interval on which all eleven inequalities hold, or None.

    The default constraint set caps theta below 1/R; with greaves_degree the
    cap is replaced by the sieve degree condition theta > c / (R - delta_R).
    The system is solved on two alpha pieces, alpha = 1/20 up to theta =
    1/20 - kappa and alpha = theta + kappa beyond, and the first piece's
    interval is returned when it is not empty.  Every inequality of
    _near_one_system is linear in theta and alpha, so on a piece each slack
    rhs - lhs is affine in theta: its values at theta = 0 and 1 give its
    zero, an upper bound on theta for a negative slope and a lower bound for
    a positive one; a zero slope with slack <= 0 empties the piece.
    """
    c, kappa = _frac(c), _frac(kappa)
    if kappa <= 0:
        raise OutOfRange("need kappa > 0")
    if not 2 <= R:
        raise InvalidR(f"need R >= 2, got {R}")
    lo, caps = F(0), [F(1, R)]
    if greaves_degree:
        lo, caps = c / (R - greaves_delta_frac(R)), []
    split = F(1, 20) - kappa
    # (alpha at theta = 0, alpha at theta = 1, lower bounds, upper bounds)
    for a0, a1, lows, highs in ((F(1, 20), F(1, 20), [lo], caps + [split]), (kappa, 1 + kappa, [lo, split], caps)):
        for (_, l0, r0), (_, l1, r1) in zip(_near_one_system(c, F(0), a0), _near_one_system(c, F(1), a1)):
            s0 = r0 - l0
            slope = r1 - l1 - s0
            if slope:
                (highs if slope < 0 else lows).append(-s0 / slope)
            elif s0 <= 0:
                break
        else:
            if min(highs) > max(lows):
                return max(lows), min(highs)
    return None


def max_c_feasible(
    R: int,
    tol: float = 1e-6,
    *,
    kappa=F(1, 10**9),
    greaves_degree: bool = False,
) -> float:
    """Supremum (within tol) of c admitting a feasible theta.

    kappa is a fixed positive guard standing in for the limit kappa -> 0+.
    """
    if not 8 <= R <= 19:
        raise InvalidR(f"need R in [8, 19], got {R}")
    if tol <= 0:
        raise OutOfRange("tol must be positive")
    tol = _frac(tol)

    def ok(c: Fraction) -> bool:
        return feasible_theta_interval(c, R, kappa, greaves_degree) is not None

    lo, hi = F(1) + F(1, 10**6), F(2)
    if not ok(lo):
        raise NoCrossing(f"no feasible c just above 1 for R={R}")
    if ok(hi):
        raise NoCrossing("feasible at the upper end of the bisection range")
    return float_mirror(_bisect(ok, lo, hi, tol))


def _bisect(ok, lo: Fraction, hi: Fraction, tol: Fraction) -> Fraction:
    """Halve [lo, hi], keeping ok(lo) and not ok(hi), to width tol; its midpoint."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class RegimeConstants(Report):
    """sigma, beta and the shifted exponents for a fixed c."""

    c: Fraction
    coeff: int       # 179 below c = 3, else 88
    sigma: Fraction
    beta: Fraction
    c1: Fraction     # c + sigma
    c2: Fraction     # c - 1 + 3 sigma

    def to_json(self) -> dict:
        """coeff first, then each exact value with its float mirror."""
        out: dict = {"coeff": self.coeff}
        for name in ("c", "sigma", "beta", "c1", "c2"):
            q = getattr(self, name)
            out[name], out[f"{name}_float"] = jsonable(q), float_mirror(q)
        return out


def regime_constants(c) -> RegimeConstants:
    """sigma = 1/(16c^2 + coeff*c - 1.15/c); beta = 47 sigma (coeff 179)
    or 20 sigma (coeff 88, used from c = 3 up)."""
    c = _frac(c)
    if c <= 1:
        raise OutOfRange("need c > 1")
    coeff, bmul = (179, 47) if c < 3 else (88, 20)
    sigma = 1 / (16 * c * c + coeff * c - F(23, 20) / c)
    beta = bmul * sigma
    return RegimeConstants(c, coeff, sigma, beta, c + sigma, c - 1 + 3 * sigma)


@dataclass(frozen=True)
class RBound(Report):
    real_bound: float
    exact_bound: Fraction
    integer_R: int


def r_bound(c) -> RBound:
    """The cubic bound 16c^3 + coeff*c^2 on the almost-prime order, plus the
    least admissible integer R from the sieve constants.

    In exact arithmetic c/sigma + 1.15 equals the cubic identically; this is
    checked on every call.
    """
    c = _frac(c)
    if c < F(11, 5):
        raise OutOfRange("need c >= 11/5")
    rc = regime_constants(c)
    exact = 16 * c**3 + rc.coeff * c**2
    if c / rc.sigma + F(23, 20) != exact:
        raise PCLabError(f"cubic identity c/sigma + 1.15 fails at c = {c}")
    integer_r = greaves_min_R(c / rc.sigma + F(1, 10**9))
    return RBound(float_mirror(exact), exact, integer_r)


def _large_regime_lhs(ineq_id: str, rc: RegimeConstants) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the large-c inequality lhs < rhs.

    3.2, 3.3 and 3.4 are the eps = 0 window minorants at the window corners
    t = 1/2 - beta (m1 > sigma), 2/3 and 1 - 2 beta (m2 > 2 sigma);
    beta-cap is beta < 1/10.
    """
    sigma, beta = rc.sigma, rc.beta
    if ineq_id == "3.2":
        return sigma, _minorants(F(1, 2) - beta, rc, 0)[0]
    if ineq_id == "3.3":
        return 2 * sigma, _minorants(F(2, 3), rc, 0)[1]
    if ineq_id == "3.4":
        return 2 * sigma, _minorants(1 - 2 * beta, rc, 0)[1]
    if ineq_id == "beta-cap":
        return beta, F(1, 10)
    raise OutOfRange(f"unknown inequality id {ineq_id!r}")


_REGIME_IDS = ("3.2", "3.3", "3.4", "beta-cap")


def regime_inequalities(c) -> list[InequalityReport]:
    """Exact verdicts for the three large-c inequalities and the beta cap."""
    rc = regime_constants(c)
    return [_report(i, *_large_regime_lhs(i, rc)) for i in _REGIME_IDS]


@dataclass(frozen=True)
class ThresholdResult(Report):
    value: float
    multi_crossing: bool


_THRESHOLD_SCAN = 100


def threshold(ineq_id: str, lo, hi, tol: float = 1e-3) -> ThresholdResult:
    """Least c (within tol) at which the inequality begins to hold.

    A pre-pass over _THRESHOLD_SCAN evenly spaced points checks
    single-crossing; with several sign changes the smallest upward crossing
    is bisected and flagged.  NoCrossing is raised when the indicator is
    constant on [lo, hi].
    """
    lo, hi, tol = _frac(lo), _frac(hi), _frac(tol)
    if not lo < hi:
        raise OutOfRange("need lo < hi")
    if tol <= 0:
        raise OutOfRange("tol must be positive")

    def holds(c: Fraction) -> bool:
        return _holds(*_large_regime_lhs(ineq_id, regime_constants(c)))

    xs = [lo + (hi - lo) * i / (_THRESHOLD_SCAN - 1) for i in range(_THRESHOLD_SCAN)]
    vals = [holds(x) for x in xs]
    transitions = [i for i in range(1, len(xs)) if vals[i] != vals[i - 1]]
    upward = [i for i in transitions if vals[i]]
    if not upward:
        state = "already holds" if vals[0] else "never holds"
        raise NoCrossing(f"{ineq_id} {state} on [{float_mirror(lo)}, {float_mirror(hi)}]")
    i = upward[0]
    c = _bisect(lambda c: not holds(c), xs[i - 1], xs[i], tol)
    return ThresholdResult(float_mirror(c), len(transitions) > 1)


def vinogradov_degree(c, theta, delta) -> int:
    """floor(c + delta/theta) + 1, exactly in rational arithmetic."""
    c, theta, delta = _frac(c), _frac(theta), _frac(delta)
    if theta <= 0 or delta <= 0:
        raise OutOfRange("vinogradov_degree needs theta > 0 and delta > 0")
    v = c + delta / theta
    return v.numerator // v.denominator + 1


def vinogradov_saving(k: int, epsilon=0) -> Fraction:
    """The exponent saving (k-2-eps) / (k(k+1)(2k-1)) as an exact Fraction."""
    eps = _frac(epsilon)
    if k < 3:
        raise NonPositiveRho(f"degree k={k} is below 3")
    if eps >= k - 2:
        raise NonPositiveRho(f"epsilon={float_mirror(eps)} >= k-2={k - 2}")
    if eps < 0:
        raise OutOfRange("epsilon must be >= 0")
    return (k - 2 - eps) / F(k * (k + 1) * (2 * k - 1))


def _minorants(t: Fraction, rc: RegimeConstants, eps) -> tuple[Fraction, Fraction]:
    """(m1(t), m2(t)): the two window minorants at t for the constants rc,
    exactly.

    m1(t) = (c1 t^3 - (1+eps) t^4) / ((c1+t)(c1+2t)(2c1+t)),
    m2(t) = ((c2+2eps) t^3 - (1+eps) t^4)
            / ((c2+2t+2eps)(c2+3t+2eps)(2c2+3t+4eps)),
    with c1 = c + sigma and c2 = c - 1 + 3 sigma.

    Both are t^3 (u - (1+eps) t) / ((u + k1 t)(u + k2 t)(2u + k3 t)), with
    (u, k1, k2, k3) = (c1, 1, 2, 1) and (c2 + 2eps, 2, 3, 3).  For t = a/b,
    u = p/q and 1 + eps = r/s that is the one fraction
    (psb - rqa) a^3 q^2 / (sb (pb + k1 aq)(pb + k2 aq)(2pb + k3 aq)),
    built from integers and normalized once.
    """
    a, b = t.numerator, t.denominator
    one = 1 + eps
    r, s = one.numerator, one.denominator
    a3 = a**3

    def minorant(u, k1, k2, k3):
        p, q = u.numerator, u.denominator
        pb, aq = p * b, a * q
        return F((pb * s - r * aq) * a3 * q * q, s * b * (pb + k1 * aq) * (pb + k2 * aq) * (2 * pb + k3 * aq))

    return minorant(rc.c1, 1, 2, 1), minorant(rc.c2 + 2 * eps, 2, 3, 3)


def weyl_margin_minorants(t, c, epsilon) -> tuple[Fraction, Fraction]:
    """(m1(t), m2(t)) of _minorants at t in [0, 1] for the regime constants
    of c."""
    t = _frac(t)
    eps = _frac(epsilon)
    if not 0 <= t <= 1:
        raise OutOfRange("need t in [0, 1]")
    return _minorants(t, regime_constants(c), eps)


_DELTA_FLOOR = F(1, 10**12)  # positive clamp for window Delta values


@dataclass(frozen=True)
class MarginReport(Report):
    c: float
    epsilon: float
    sigma: float
    beta: float
    type1_worst: float
    type1_at: tuple
    type1_ok: bool
    type2_worst: float
    type2_at: tuple
    type2_ok: bool
    minorant1: float
    minorant1_ok: bool
    minorant2: float
    minorant2_ok: bool
    ok: bool  # both exact window infima non-negative


def _window_margins(c, eps, th_lo, th_hi, lo, hi, target):
    """Exact infimum of Theta*rho(k) - target over a (Theta, Delta) window.

    The window is th_lo <= Theta <= th_hi, max(a - b Theta, _DELTA_FLOOR)
    <= Delta <= a' - b' Theta, for lo = (a, b) and hi = (a', b') with a > 0,
    b > 0.  The degree k = floor(c + Delta/Theta) + 1 grows with Delta and,
    along either bound, shrinks as Theta grows, so every k from k(th_hi,
    Delta_lo) to k(th_lo, Delta_max) is reached on one Theta interval.  Its
    left end Theta_k is th_lo or the right-limit of the transition where
    c + Delta_lo(Theta)/Theta = k.  Theta*rho(k) - target increases on the
    interval (rho > 0), so the infimum is the least Theta_k*rho(k) - target.
    Returns it with the least Theta, then least Delta, reaching that degree
    (the limit point itself when the infimum is a right-limit).

    Only k_hi and the degrees below 2s, s = 2 + eps, can set it, so the work
    does not grow with c.  Theta_k is non-increasing in k.  With
    rho(k) = (k - s) / (k (k + 1) (2k - 1)), the sign of rho'(k) is that of
    -4k^3 + (6s - 1) k^2 + 2sk - s, which is negative for k >= 2s:
    -4k^3 + 6sk^2 <= -k^3 and -k^2 + 2sk <= 0 there.  So rho > 0 strictly
    decreases from 2s on, and each degree in [2s, k_hi) has a larger margin
    than k_hi.  The degrees are taken in descending order, k_hi first, so
    ties go as over the full range, and those skipped never raise
    NonPositiveRho (which needs k <= s), so any error is the same one.
    """
    (a, b), (a_hi, b_hi) = lo, hi

    def delta_lo(th):
        return max(a - b * th, _DELTA_FLOOR)

    k_hi = vinogradov_degree(c, th_lo, a_hi - b_hi * th_lo)
    k_lo = vinogradov_degree(c, th_hi, delta_lo(th_hi))
    # the first degree k <= s the descent meets raises NonPositiveRho; it is
    # raised before the degrees above it, which may be as many as s, are taken
    first_bad = min(k_hi, math.floor(2 + eps))
    if first_bad >= k_lo:
        vinogradov_saving(first_bad, eps)
    below = min(k_hi, math.ceil(4 + 2 * eps))  # the degrees below it are < 2s
    worst = at = None
    # Theta_k ascends as k descends
    for k in itertools.chain(range(k_hi, k_lo - 1, -1)[:1], range(below - 1, k_lo - 1, -1)):
        # c + Delta_lo(Theta)/Theta < k on both pieces of Delta_lo
        th = max(th_lo, a / (k - c + b), _DELTA_FLOOR / (k - c))
        margin = th * vinogradov_saving(k, eps) - target
        if worst is None or margin < worst:
            worst, at = margin, (float_mirror(th), float_mirror(max(delta_lo(th), (k - 1 - c) * th)))
    return worst, at


def margin_verify(c, epsilon=F(1, 1000)) -> MarginReport:
    """Check the window margins Theta*rho >= sigma + eps (narrow-factor
    family) and Theta*rho >= 2 sigma + 3 eps (bilinear family) over their
    (Theta, Delta) windows, plus the closed-form minorant values.

    The worst margins are the exact window infima, decided in Fraction
    arithmetic; ok reflects them only, and the minorant checks are reported
    alongside (they are strictly more conservative).
    """
    c = _frac(c)
    if c < F(11, 5):
        raise OutOfRange("need c >= 11/5")
    eps = _frac(epsilon)
    if eps <= 0:
        raise OutOfRange("need epsilon > 0")
    rc = regime_constants(c)
    sigma, beta = rc.sigma, rc.beta
    if 1 - 2 * beta < F(2, 3):
        raise OutOfRange("bilinear window is empty: beta >= 1/6")

    # Delta bounds as (a, b) in Delta = a - b Theta
    w1, at1 = _window_margins(
        c, eps, F(1, 2) - beta, F(1), (c - sigma, c), (c + sigma, c), sigma + eps
    )
    w2, at2 = _window_margins(
        c, eps, F(2, 3), 1 - 2 * beta,
        (c - 1 - sigma, c - 1), (c - 1 + 3 * sigma + 2 * eps, c - 1),
        2 * sigma + 3 * eps,
    )
    m1, _ = _minorants(F(1, 2) - beta, rc, eps)
    _, m2a = _minorants(F(2, 3), rc, eps)
    _, m2b = _minorants(1 - 2 * beta, rc, eps)
    m2 = min(m2a, m2b)
    t1_ok, t2_ok = w1 >= 0, w2 >= 0
    return MarginReport(
        c=float_mirror(c),
        epsilon=float_mirror(eps),
        sigma=float_mirror(sigma),
        beta=float_mirror(beta),
        type1_worst=float_mirror(w1),
        type1_at=at1,
        type1_ok=t1_ok,
        type2_worst=float_mirror(w2),
        type2_at=at2,
        type2_ok=t2_ok,
        minorant1=float_mirror(m1),
        minorant1_ok=m1 >= sigma + eps,
        minorant2=float_mirror(m2),
        minorant2_ok=m2 >= 2 * sigma + 3 * eps,
        ok=t1_ok and t2_ok,
    )
