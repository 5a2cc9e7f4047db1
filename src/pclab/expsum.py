"""Direct numerical evaluation of the exponential sums under study.

Every evaluator returns a SumEval carrying the complex value, the trivial
bound (sum of absolute weights, i.e. the term count for unimodular
weights), and, where the theory supplies one, an analytic comparator bound
together with the ratio |value| / bound.  The comparators carry unknown
implied constants, so ratios are reported and never hard-fail.

Every sum takes its phases from the certified batch kernels
(frac_scaled_pow_batch, frac_phase_batch), whose one per-point certifier
decides what their bound cannot; trilinear_sum and triple_sum run one batch
over all their (h, d) pairs (_frac_scaled_pow_pairs), so each root is
computed once.  Accumulation is exactly-rounded per fixed index chunk,
which makes the results independent of evaluation order and worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._json import Report
from .constants import regime_constants, vinogradov_degree, vinogradov_saving
from .errors import DEFAULT_CAPS, Caps, OutOfRange, RangeTooLarge
from .exactpow import (
    _floor_root,
    _frac_scaled_pow_pairs,
    as_exponent,
    as_ratio,
    frac_phase_batch,
    frac_scaled_pow_batch,
)
from .primes import mangoldt_table, primes_in
from .prng import pm1_weights

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SumEval(Report):
    kind: str
    params: dict  # inputs and derived sizes; ratios stay exact until to_json
    value: complex
    trivial_bound: float
    analytic_bound: float | None
    ratio: float | None


def _e_sum(fracs, weights=None) -> complex:
    """Sum of w * e(frac); exactly rounded per fixed chunk, order stable."""
    re_parts: list[float] = []
    im_parts: list[float] = []
    n = len(fracs)
    for start in range(0, n, _CHUNK):
        f = np.asarray(fracs[start : start + _CHUNK], dtype=np.float64)
        ang = 2.0 * np.pi * f
        cr = np.cos(ang)
        ci = np.sin(ang)
        if weights is not None:
            w = np.asarray(weights[start : start + _CHUNK], dtype=np.float64)
            cr = cr * w
            ci = ci * w
        re_parts.append(math.fsum(memoryview(cr)))
        im_parts.append(math.fsum(memoryview(ci)))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def weyl_sum(c, theta, delta, n_scale: int, *, epsilon=0, caps: Caps = DEFAULT_CAPS) -> SumEval:
    """Sum of e(z^c * N^delta) over z in (floor(N^theta), 2 floor(N^theta)].

    The comparator is N^(theta * (1 - rho)) with rho the Vinogradov saving
    at degree k = floor(c + delta/theta) + 1; requires k >= 3.
    """
    c = as_exponent(c)
    theta = as_ratio(theta)
    delta = as_ratio(delta)
    if n_scale < 2:
        raise OutOfRange("weyl_sum needs N >= 2")
    k = vinogradov_degree(c.as_fraction, theta, delta)
    rho = vinogradov_saving(k, epsilon)
    # N^num >= 2^(num (bits(N) - 1)) >= 2^(den bits(cap + 1)) > (cap + 1)^den
    # decides m > cap before the floor is taken.  _floor_root forms N^num only
    # for den <= 64 within caps.floor_exact_bits and encloses N^theta in
    # intervals otherwise, so a huge den costs no huge power.
    num, den = theta.numerator, theta.denominator
    too_many = num * (n_scale.bit_length() - 1) >= den * (caps.weyl_terms + 1).bit_length()
    m = None if too_many else _floor_root(n_scale, num, den, 0, caps)
    if too_many or m > caps.weyl_terms:
        raise RangeTooLarge(f"N^theta terms exceed cap {caps.weyl_terms}")
    fracs, _ = frac_phase_batch(np.arange(m + 1, 2 * m + 1, dtype=np.int64), c, n_scale, delta, caps)
    value = _e_sum(fracs)
    bound = math.exp(float(theta) * (1.0 - float(rho)) * math.log(n_scale))
    params = {
        "c": c,
        "theta": theta,
        "delta": delta,
        "N": n_scale,
        "k": k,
        "rho": float(rho),
        "epsilon": float(epsilon),
        "terms": m,
    }
    return SumEval("weyl", params, value, float(m), bound, abs(value) / bound)


def prime_expsum(x: int, c, h: int, d: int, *, caps: Caps = DEFAULT_CAPS) -> SumEval:
    """Sum of e(h * p^c / d) over primes p <= x.

    The comparator x^(1 - sigma(c)) applies for c >= 11/5 and is omitted
    below that.
    """
    c = as_exponent(c)
    if h < 1 or d < 1:
        raise OutOfRange("prime_expsum needs h >= 1 and d >= 1")
    ps = primes_in(0, x, caps=caps)
    fracs, _ = frac_scaled_pow_batch(ps, c, h, d, caps=caps)
    value = _e_sum(fracs)
    n_terms = float(fracs.size)
    bound = None
    if c.as_fraction >= Fraction(11, 5):
        sigma = regime_constants(c.as_fraction).sigma
        bound = math.exp((1.0 - float(sigma)) * math.log(x)) if x >= 2 else 1.0
    ratio = abs(value) / bound if bound else None
    params = {"x": x, "c": c, "h": h, "d": d, "terms": fracs.size}
    return SumEval("prime", params, value, n_terms, bound, ratio)


@dataclass(frozen=True)
class TrilinearBound:
    value: float
    x_ge_dl: bool  # the comparator's precondition X >= DL


def trilinear_bound(d_scale: int, l_scale: int, m_scale: int, x_size: float) -> TrilinearBound:
    """D*L*M * ((DL)^(-1/2) + (X/(D*L*M^2))^(1/6)) * log(2*D*L).

    Flags (without failing) when the precondition X >= DL is violated.
    """
    if d_scale < 1 or l_scale < 1 or m_scale < 1:
        raise OutOfRange("scales must be >= 1")
    dl = d_scale * l_scale
    dlm = dl * m_scale
    value = dlm * (dl ** -0.5 + (x_size / (dlm * m_scale)) ** (1.0 / 6.0)) * math.log(2 * dl)
    return TrilinearBound(value, x_size >= dl)


def _trilinear_weights(kind: str, d_scale: int, m_scale: int, l_scale: int, seed: int):
    """Weight vectors (c_d, a_m, b_l) over the dyadic ranges.

    unit: all ones.  interval: b_l is the characteristic function of
    (L, 3L/2], the other two are ones.  pm1: independent +-1 weights from
    the splitmix64 stream, in d-then-m-then-l order.
    """
    if kind == "unit":
        return [1.0] * d_scale, [1.0] * m_scale, [1.0] * l_scale
    if kind == "interval":
        b = [1.0 if l <= l_scale + (l_scale // 2) else 0.0 for l in range(l_scale + 1, 2 * l_scale + 1)]
        return [1.0] * d_scale, [1.0] * m_scale, b
    if kind == "pm1":
        stream = pm1_weights(seed, d_scale + m_scale + l_scale)
        cd = [float(w) for w in stream[:d_scale]]
        am = [float(w) for w in stream[d_scale : d_scale + m_scale]]
        bl = [float(w) for w in stream[d_scale + m_scale :]]
        return cd, am, bl
    raise OutOfRange(f"unknown weight kind {kind!r}")


def trilinear_x_size(h: int, d_scale: int, l_scale: int, m_scale: int, c) -> float:
    """X = h * D^(-1) * L^c * M^c, the comparator's size parameter."""
    cf = float(as_exponent(c))
    return h / d_scale * l_scale ** cf * m_scale ** cf


def trilinear_sum(
    d_scale: int,
    m_scale: int,
    l_scale: int,
    h: int,
    c,
    weights: str = "unit",
    *,
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
) -> SumEval:
    """The weighted triple sum of e(h * d^(-1) * (l*m)^c) over dyadic ranges.

    d ~ D, m ~ M, l ~ L all mean the half-open ranges (D, 2D] etc.  The
    comparator is trilinear_bound at X = h * D^(-1) * L^c * M^c.
    """
    c = as_exponent(c)
    if h < 1 or min(d_scale, m_scale, l_scale) < 1:
        raise OutOfRange("trilinear_sum needs h >= 1 and scales >= 1")
    n_terms = d_scale * m_scale * l_scale
    if n_terms > caps.trilinear_terms:
        raise RangeTooLarge(f"{n_terms} terms exceeds cap {caps.trilinear_terms}")
    cd, am, bl = _trilinear_weights(weights, d_scale, m_scale, l_scale, seed)

    prod_weight: dict[int, float] = {}
    for mi, m in enumerate(range(m_scale + 1, 2 * m_scale + 1)):
        for li, l in enumerate(range(l_scale + 1, 2 * l_scale + 1)):
            w = am[mi] * bl[li]
            if w:
                key = m * l
                prod_weight[key] = prod_weight.get(key, 0.0) + w

    # phase {h (l m)^c / d} over the distinct products, in prod_weight's order
    products = np.fromiter(prod_weight, dtype=np.int64, count=len(prod_weight))
    ws = np.fromiter(prod_weight.values(), dtype=np.float64, count=len(prod_weight))
    dws = [(w, dd) for w, dd in zip(cd, range(d_scale + 1, 2 * d_scale + 1)) if w]
    phases = _frac_scaled_pow_pairs(products, c, ((h, dd) for _, dd in dws), caps=caps)
    re_parts: list[float] = []
    im_parts: list[float] = []
    for (w, _), (fracs, _) in zip(dws, phases):
        part = _e_sum(fracs, ws)
        re_parts.append(w * part.real)
        im_parts.append(w * part.imag)
    value = complex(math.fsum(re_parts), math.fsum(im_parts))

    trivial = (
        math.fsum(abs(w) for w in cd)
        * math.fsum(abs(w) for w in am)
        * math.fsum(abs(w) for w in bl)
    )
    x_size = trilinear_x_size(h, d_scale, l_scale, m_scale, c)
    comparator = trilinear_bound(d_scale, l_scale, m_scale, x_size)
    params = {
        "D": d_scale,
        "M": m_scale,
        "L": l_scale,
        "h": h,
        "c": c,
        "weights": weights,
        "seed": seed,
        "X": x_size,
        "x_ge_dl": comparator.x_ge_dl,
    }
    return SumEval("trilinear", params, value, trivial, comparator.value, abs(value) / comparator.value)


def triple_sum(x: int, d_scale: int, h_count: int | None, c, *, caps: Caps = DEFAULT_CAPS) -> SumEval:
    """Sum over h <= H, d ~ D of |sum over n ~ x of Lambda(n) e(h n^c / d)|.

    h_count=None selects the preset H = D * ceil(log^3 x) (usually far too
    large to evaluate; the cap will object).  The comparator is
    D * x / log^3 x.
    """
    c = as_exponent(c)
    if x < 2 or d_scale < 1 or (h_count is not None and h_count < 0):
        raise OutOfRange("triple_sum needs x >= 2, D >= 1 and H >= 0")
    if h_count is None:
        h_count = d_scale * math.ceil(math.log(x) ** 3)
    evals = h_count * d_scale * x
    if evals > caps.triple_term_evals:
        raise RangeTooLarge(f"H*D*x = {evals} exceeds cap {caps.triple_term_evals}")
    try:  # reached with H = 0, where the budget does not bound D
        bound = d_scale * x / math.log(x) ** 3
    except OverflowError:
        raise OutOfRange("triple_sum: D * x passes the float range") from None
    table = mangoldt_table(2 * x, caps=caps)  # caps x at mangoldt_x / 2
    sel = (table.ns > x) & (table.ns <= 2 * x)
    ns = table.ns[sel]
    logs = table.logs[sel]

    # lazy: itertools.product would first store all D values of d, even with H = 0
    pairs = ((h, d) for h in range(1, h_count + 1) for d in range(d_scale + 1, 2 * d_scale + 1))
    total = math.fsum(abs(_e_sum(fracs, logs)) for fracs, _ in _frac_scaled_pow_pairs(ns, c, pairs, caps=caps))
    value = complex(total, 0.0)
    psi_mass = float(math.fsum(logs.tolist()))
    trivial = h_count * d_scale * psi_mass
    params = {"x": x, "D": d_scale, "H": h_count, "c": c, "prime_powers": len(ns)}
    return SumEval("triple", params, value, trivial, bound, total / bound)
