"""The acceptance suite: every gate criterion as a callable check.

Each criterion returns a CriterionResult whose verdict and `values` are
fully deterministic (no timing), so two runs at different worker counts can
be compared byte for byte.  `passed` also demands the stated runtime budget,
which the compared payload leaves out.
"""
from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import repeat

import numpy as np

from . import constants as cn
from . import experiments as ex
from . import expsum as es
from .errors import DEFAULT_CAPS, NoCrossing
from .exactpow import as_exponent, as_ratio, floor_pow
from .factor import factor_signature, iroot
from .primes import mangoldt_table
from .prng import pm1_weights

_SEED = 20260808


@dataclass
class CriterionResult:
    cid: int
    title: str
    verdict: bool  # the timing-free check
    values: dict
    elapsed_s: float = 0.0
    budget_s: float = math.inf

    @property
    def in_budget(self) -> bool:
        return self.elapsed_s <= self.budget_s

    @property
    def passed(self) -> bool:
        return self.verdict and self.in_budget

    def payload(self) -> dict:
        """The timing-free part: verdict and values, never the budget outcome."""
        return {"criterion": self.cid, "title": self.title, "verdict": self.verdict, "values": self.values}

    def report(self) -> dict:
        """pass, the values, and the budget when it was exceeded."""
        out = {"pass": self.passed, **self.values}
        if not self.in_budget:
            out.update(runtime_budget_exceeded=True, budget_s=self.budget_s)
        return out


@dataclass
class LabContext:
    jobs: int = 1
    caps: object = DEFAULT_CAPS


# ---------------------------------------------------------------- criteria

def criterion_1(ctx: LabContext):
    got = [cn.greaves_delta(r) for r in (2, 3, 4, 5, 100)]
    want = [0.044560, 0.074267, 0.103974, 0.124820, 0.124820]
    return got == want, {"got": got}


def criterion_2(ctx: LabContext):
    rng = random.Random(_SEED)
    bad = 0
    for _ in range(100):
        c = F(rng.randint(2200000, 2999999), 10**6)
        rc = cn.regime_constants(c)
        if c / rc.sigma + F(23, 20) != 16 * c**3 + 179 * c**2:
            bad += 1
    for _ in range(100):
        c = F(rng.randint(3000000, 50000000), 10**6)
        rc = cn.regime_constants(c)
        if c / rc.sigma + F(23, 20) != 16 * c**3 + 88 * c**2:
            bad += 1
    return bad == 0, {"mismatches": bad}


def criterion_3(ctx: LabContext):
    values: dict = {}
    try:
        t32 = cn.threshold("3.2", F(3, 2), F(11, 5), 1e-3)
        values["threshold_32"] = t32.value
        ok32 = 2.079 <= t32.value <= 2.083
    except NoCrossing as e:
        values["threshold_32"] = None
        values["threshold_32_note"] = str(e)
        # where the printed inequality actually starts to hold
        values["threshold_32_actual"] = cn.threshold("3.2", F(13, 10), F(3, 2), 1e-3).value
        ok32 = False
    t33 = cn.threshold("3.3", F(9, 5), F(12, 5), 1e-3)
    t34 = cn.threshold("3.4", F(9, 5), F(12, 5), 1e-3)
    hi = max(t33.value, t34.value)
    values.update({"threshold_33": t33.value, "threshold_34": t34.value, "max_33_34": hi})
    ok34 = 2.196 <= hi <= 2.200
    values.update({"ok_32": ok32, "ok_33_34": ok34})
    return ok32 and ok34, values


def criterion_4(ctx: LabContext):
    per_c = {}
    ok = True
    for cc in ("3", "3.5", "5", "10", "100"):
        c = as_ratio(cc)
        rc = cn.regime_constants(c)
        reps = {r.id: r.holds for r in cn.regime_inequalities(c)}
        good = rc.coeff == 88 and rc.beta < F(1, 10) and all(reps.values())
        per_c[cc] = {"beta": float(rc.beta), **reps, "ok": good}
        ok = ok and good
    return ok, per_c


def criterion_5(ctx: LabContext):
    kappa = F(1, 10**6)
    out = {}
    ok = True
    for pair in cn.admissible_pairs():
        c = pair.c_R_exact
        iv = cn.feasible_theta_interval(c, pair.R, kappa)
        good = iv is not None
        if good:
            witness = (iv[0] + iv[1]) / 2
            good = all(r.holds for r in cn.feasibility_check(
                cn.feasibility_params(c, witness, kappa)))
            out[str(pair.R)] = {"theta_lo": float(iv[0]), "theta_hi": float(iv[1]), "ok": good}
        else:
            out[str(pair.R)] = {"ok": False}
        ok = ok and good
    return ok, out


def _root_bisect(x: int, k: int) -> int:
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


def criterion_6(ctx: LabContext):
    rng = random.Random(_SEED + 6)
    bad = 0
    for _ in range(1000):
        while True:
            den = rng.randint(2, 16)
            num = rng.randint(den + 1, 3 * den - 1)
            if math.gcd(num, den) == 1:
                break
        n = rng.randint(2, 10**5)
        got = floor_pow(n, F(num, den))
        want = _root_bisect(n**num, den)
        if got != want or not (got**den <= n**num < (got + 1) ** den):
            bad += 1
    return bad == 0, {"mismatches": bad}


def _omega_oracle(limit: int):
    """(Omega(n), n squarefree) for 0 <= n <= limit from a sieve of its own,
    independent of primes_in and factor."""
    omega = np.zeros(limit + 1, dtype=np.int16)
    sf = np.ones(limit + 1, dtype=bool)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    root = math.isqrt(limit)
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    for p in np.flatnonzero(sieve[: root + 1]):
        pk = p
        while pk <= limit:
            omega[pk::pk] += 1
            pk *= p
        sf[p * p :: p * p] = False
    # a prime p > sqrt(limit) divides each n <= limit at most once, at n = k*p
    # with k < p; for one k the n = k*p are distinct, so one fancy-indexed
    # add per k counts them all
    large = np.flatnonzero(sieve[root + 1 :])
    large += root + 1
    del sieve  # freed before the products, so they add nothing to the peak
    for k in range(1, limit // (root + 1) + 1):
        omega[k * large[: np.searchsorted(large, limit // k, side="right")]] += 1
    return omega, sf


def _compare_chunk(args):
    """Mismatches between factor_signature(n) and the oracle's (om, sf)
    slices for lo <= n < hi; the slices become lists once, so each n is
    compared in Python ints and bools."""
    lo, hi, om, sf = args
    bad = 0
    for n, o, q in zip(range(lo, hi), om.tolist(), sf.tolist()):
        s = factor_signature(n)
        if s.omega_big != o or s.squarefree != q:
            bad += 1
    return bad


def criterion_7(ctx: LabContext):
    limit = 10**6
    om, sf = _omega_oracle(limit)
    step = 1 << 16
    chunks = []
    for lo in range(1, limit + 1, step):
        hi = min(lo + step, limit + 1)
        chunks.append((lo, hi, om[lo:hi], sf[lo:hi]))
    bad = int(sum(ex._map_ordered(_compare_chunk, chunks, ctx.jobs)))
    return bad == 0, {"limit": limit, "mismatches": bad}


def criterion_8(ctx: LabContext):
    r = ex.squarefree_census(10**6, "7/5", jobs=ctx.jobs, caps=ctx.caps)
    ok = r.deviation <= 0.01
    return ok, {"count": r.count, "pi_x": r.pi_x, "ratio": r.ratio, "deviation": r.deviation}


def criterion_9(ctx: LabContext):
    r = ex.almost_prime_census(10**6, "10521/10000", 8, jobs=ctx.jobs, caps=ctx.caps)
    ok = r.eta_hat >= 1.0
    return ok, {"count": r.count, "pi_x": r.pi_x, "eta_hat": r.eta_hat}


def criterion_10(ctx: LabContext):
    r = ex.ps_prime_count(10**6, "3/2", jobs=ctx.jobs, caps=ctx.caps)
    ok = 0.5 * r.balog_ref <= r.count <= 2.0 * r.balog_ref
    return ok, {"count": r.count, "balog_ref": r.balog_ref, "ratio": r.count / r.balog_ref}


def criterion_11(ctx: LabContext):
    _, vals = ex.members(10**6, "10521/10000", caps=ctx.caps)
    n = len(vals)
    worst = 0.0
    worst_at = (0, 0)
    tables = dict(ex._residue_tables(vals, 50))
    for d in range(1, 51):  # ascending, so the first d of the worst deviation is kept
        counts = tables[d]
        expected = n / d
        dev = np.abs(counts - expected) / expected
        j = int(np.argmax(dev))
        if float(dev[j]) > worst:
            worst = float(dev[j])
            worst_at = (d, j)
    lv = ex.level_error(10**6, "10521/10000", 1, caps=ctx.caps)
    ok = worst <= 0.1 and lv.E == 0.0
    return ok, {"worst_rel_dev": worst, "worst_at_d_s": list(worst_at), "level_D1": lv.E}


# Criterion 12's oracles sum w e(t) at mpmath's working precision for 60
# digits, _K bits, through one fixed-point kernel on raw mpmath.libmp calls:
# _oracle_terms reads frac(t) exactly off the low _K bits of 2^_K t and takes
# e(frac t) from one mpf_cos_sin_pi, and _oracle_sum adds the weighted cos and
# sin as exact ints, so the order of the terms does not matter.  mpmath loads
# on an oracle's first call, never at import.
_K = 203  # bits at mpmath.workdps(60)
# c = a/b with b up to this takes one root of an exact integer, about a
# fifth quicker than mpf_pow's log and exp at 11/5 and p near 1e5; a larger
# b, as in 10521/10000, would make that integer huge
_ROOT_MAX_DEN = 8


def _power(ce, h):
    """n -> h n^c as a raw mpf at _K bits: the b-th root of h^b n^a for
    c = a/b with b <= _ROOT_MAX_DEN, else mpf_pow times h."""
    from mpmath.libmp import from_int, from_rational, mpf_mul, mpf_nthroot, mpf_pow, round_nearest

    a, b = ce.num, ce.den
    if b <= _ROOT_MAX_DEN:
        hb = h**b
        return lambda n: mpf_nthroot(from_int(hb * n**a), b, _K, round_nearest)
    cexp, fh = from_rational(a, b, _K, round_nearest), from_int(h)
    return lambda n: mpf_mul(mpf_pow(from_int(n), cexp, _K, round_nearest), fh, _K, round_nearest)


def _oracle_terms(phases):
    """(u, cos, sin) for each raw mpf phase t, all ints scaled by 2^_K:
    u = floor(2^_K t) mod 2^_K, so u / 2^_K is frac(t) cut to _K bits, and
    cos, sin are those of 2 pi u / 2^_K, from mpf_cos_sin_pi at _K bits."""
    from mpmath.libmp import from_man_exp, mpf_cos_sin_pi, round_nearest, to_fixed

    mask = (1 << _K) - 1
    for t in phases:
        u = to_fixed(t, _K) & mask
        cos, sin = mpf_cos_sin_pi(from_man_exp(u, 1 - _K), _K, round_nearest)
        yield u, to_fixed(cos, _K), to_fixed(sin, _K)


def _oracle_sum(weights, phases) -> tuple[int, int]:
    """(sum w cos, sum w sin) over the int weights w and _oracle_terms(phases),
    exact: scaled by 2^_K times the weights' own scale."""
    re = im = 0
    for w, (_, cos, sin) in zip(weights, _oracle_terms(phases)):
        re += w * cos
        im += w * sin
    return re, im


def _oracle_weyl(c, theta, delta, n_scale):
    """sum of e(z^c n_scale^delta) over m < z <= 2m, m = floor(n_scale^theta),
    through _oracle_sum, as the nearest complex double."""
    from mpmath.libmp import from_int, from_rational, mpf_mul, mpf_pow, round_nearest

    th, de = F(theta), F(delta)
    m = iroot(n_scale ** th.numerator, th.denominator)
    scale = mpf_pow(from_int(n_scale), from_rational(de.numerator, de.denominator, _K, round_nearest),
                    _K, round_nearest)
    power = _power(as_exponent(c), 1)
    re, im = _oracle_sum(repeat(1), (mpf_mul(power(z), scale, _K, round_nearest) for z in range(m + 1, 2 * m + 1)))
    return complex(re / 2**_K, im / 2**_K)


def _oracle_prime(x, c, h, d):
    """sum of e(h p^c / d) over the primes p <= x through _oracle_sum, as the
    nearest complex double."""
    from mpmath.libmp import from_int, mpf_div, round_nearest

    from .primes import primes_in

    power, fd = _power(as_exponent(c), h), from_int(d)
    ps = primes_in(0, x).tolist()
    re, im = _oracle_sum(repeat(1), (mpf_div(power(p), fd, _K, round_nearest) for p in ps))
    return complex(re / 2**_K, im / 2**_K)


def _oracle_trilinear(d_scale, m_scale, l_scale, h, c, seed):
    """sum of c_d a_m b_l e(h (l m)^c / d) over d_scale < d <= 2 d_scale and
    likewise m and l, with pm1_weights(seed) weights, through _oracle_sum, as
    the nearest complex double."""
    from mpmath.libmp import from_int, mpf_div, round_nearest

    stream = pm1_weights(seed, d_scale + m_scale + l_scale)
    cd = stream[:d_scale]
    am = stream[d_scale : d_scale + m_scale]
    bl = stream[d_scale + m_scale :]
    power = _power(as_exponent(c), h)
    # (a_m b_l, h (l m)^c), shared by every d
    pw = [(am[mi] * bl[li], power((l_scale + 1 + li) * (m_scale + 1 + mi)))
          for mi in range(m_scale) for li in range(l_scale)]
    fds = [from_int(d_scale + 1 + di) for di in range(d_scale)]
    re, im = _oracle_sum((cw * w for cw in cd for w, _ in pw),
                         (mpf_div(t, fd, _K, round_nearest) for fd in fds for _, t in pw))
    return complex(re / 2**_K, im / 2**_K)


def _oracle_triple(x, d_scale, h_count, c):
    """sum over h <= h_count and d_scale < d <= 2 d_scale of
    |sum of Lambda(n) e(h n^c / d) over x < n <= 2x|, each inner sum from
    _oracle_sum with log p at _K bits as its weight, as the nearest double."""
    from mpmath.libmp import from_int, mpf_div, mpf_log, round_nearest, to_fixed

    ce = as_exponent(c)
    table = mangoldt_table(2 * x)
    sel = (table.ns > x) & (table.ns <= 2 * x)
    ns = table.ns[sel].tolist()
    logs = [to_fixed(mpf_log(from_int(p), _K, round_nearest), _K) for p in table.ps[sel].tolist()]
    total = 0  # scaled by 4^_K: each |sum| is the floor of an exact int's square root
    for h in range(1, h_count + 1):
        power = _power(ce, h)
        for dd in range(d_scale + 1, 2 * d_scale + 1):
            fd = from_int(dd)
            re, im = _oracle_sum(logs, (mpf_div(power(n), fd, _K, round_nearest) for n in ns))
            total += math.isqrt(re * re + im * im)
    return total / 4**_K


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(b), 1.0)


def criterion_12(ctx: LabContext):
    out = {}
    ok = True

    w = es.weyl_sum("5/2", 1, F(3, 10), 100, caps=ctx.caps)
    ow = _oracle_weyl("5/2", F(1), F(3, 10), 100)
    good = _close(w.value, ow) and abs(w.value) <= w.trivial_bound + 1e-6
    out["weyl"] = {"value": [w.value.real, w.value.imag], "ok": good}
    ok &= good

    p = es.prime_expsum(10**5, "11/5", 3, 7, caps=ctx.caps)
    op = _oracle_prime(10**5, "11/5", 3, 7)
    good = _close(p.value, op) and abs(p.value) <= p.trivial_bound + 1e-6
    out["prime"] = {"value": [p.value.real, p.value.imag], "ratio": p.ratio, "ok": good}
    ok &= good

    t = es.trilinear_sum(8, 32, 32, 1, "10521/10000", "pm1", seed=42, caps=ctx.caps)
    ot = _oracle_trilinear(8, 32, 32, 1, "10521/10000", 42)
    good = _close(t.value, ot) and abs(t.value) <= t.trivial_bound + 1e-6
    out["trilinear"] = {"value": [t.value.real, t.value.imag], "ok": good}
    ok &= good

    tr = es.triple_sum(100, 2, 2, "3/2", caps=ctx.caps)
    otr = _oracle_triple(100, 2, 2, "3/2")
    good = abs(tr.value.real - otr) <= 1e-9 * max(otr, 1.0) and tr.value.real <= tr.trivial_bound + 1e-6
    out["triple"] = {"value": tr.value.real, "ok": good}
    ok &= good

    return bool(ok), out


def _local_max_count(vals) -> int:
    n = len(vals)
    count = 0
    for i in range(n):
        left = vals[i - 1] if i > 0 else None
        right = vals[i + 1] if i < n - 1 else None
        if (left is None or vals[i] > left) and (right is None or vals[i] > right):
            count += 1
    return count


def criterion_13(ctx: LabContext):
    out = {}
    ok = True
    for cc in ("2.2", "2.5", "3", "5"):
        m = cn.margin_verify(as_ratio(cc), F(1, 1000))
        out[cc] = {
            "ok": m.ok,
            "type1_worst": m.type1_worst,
            "type2_worst": m.type2_worst,
            "minorant1_ok": m.minorant1_ok,
            "minorant2_ok": m.minorant2_ok,
        }
        ok = ok and m.ok
    grid = [F(i, 1000) for i in range(1001)]
    f1_ok = True
    for cc in ("1.6", "2.2", "3", "10"):
        rc = cn.regime_constants(as_ratio(cc))
        for eps in (F(0), F(1, 100)):
            vals = [cn._minorants(t, rc, eps)[0] for t in grid]
            f1_ok = f1_ok and all(a < b for a, b in zip(vals, vals[1:]))
    f2_ok = True
    for cc in ("2.2", "2.5", "3"):
        rc = cn.regime_constants(as_ratio(cc))
        vals = [cn._minorants(t, rc, F(1, 100))[1] for t in grid]
        f2_ok = f2_ok and _local_max_count(vals) == 1
    out["f1_grid_increasing"] = f1_ok
    out["f2_grid_unimodal"] = f2_ok
    return ok and f1_ok and f2_ok, out


_CRITERIA = [
    (1, "Greaves sieve constants, exact", criterion_1, 0.001),
    (2, "cubic identity c/sigma + 1.15 in exact rationals", criterion_2, 1.0),
    (3, "inequality thresholds 2.081 / 2.198", criterion_3, 1.0),
    (4, "88-regime: beta cap and large-c inequalities", criterion_4, 1.0),
    (5, "admissible-pair feasibility (analytic theta interval)", criterion_5, 1.0),
    (6, "floor_pow vs independent root oracle", criterion_6, 10.0),
    (7, "factor signatures vs enumeration oracle to 1e6", criterion_7, 30.0),
    (8, "squarefree density at x=1e6, c=7/5", criterion_8, 120.0),
    (9, "almost-prime density at x=1e6, R=8", criterion_9, 120.0),
    (10, "prime-member count at x=1e6, c=3/2", criterion_10, 120.0),
    (11, "residue equidistribution to d=50 at x=1e6", criterion_11, 120.0),
    (12, "exponential sums vs exact 203-bit fixed-point oracles", criterion_12, 60.0),
    (13, "window margin argument and minorant grids", criterion_13, 10.0),
]


def run_criteria(jobs: int = 1, caps=DEFAULT_CAPS) -> list[CriterionResult]:
    """Run criteria 1-13; the determinism criterion (14) compares two runs."""
    ctx = LabContext(jobs=jobs, caps=caps)
    results = []
    for cid, title, fn, budget in _CRITERIA:
        t0 = time.perf_counter()
        verdict, values = fn(ctx)
        results.append(CriterionResult(cid, title, bool(verdict), values, time.perf_counter() - t0, budget))
    return results


def payload_text(results: list[CriterionResult]) -> str:
    """Canonical deterministic serialization (no timing) for comparisons."""
    return json.dumps([r.payload() for r in results], sort_keys=True, separators=(",", ":"))


def determinism_check(caps, jobs_pair) -> tuple[bool, list[CriterionResult]]:
    """Criterion 14: byte-identical payloads at both worker counts, and the first count's results."""
    a = run_criteria(jobs=jobs_pair[0], caps=caps)
    b = run_criteria(jobs=jobs_pair[1], caps=caps)
    return payload_text(a) == payload_text(b), a
