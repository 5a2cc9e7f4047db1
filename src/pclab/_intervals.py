"""The interval kernel on mpmath's libmp: directed rounding plus ulp padding.

Only exactpow._floor_via_intervals calls it, and imports it on first use, so
mpmath loads on the first floor that takes the interval path and never on
the exact root or the float and double-word batches.

The kernel encloses P = (b**e * b2**e2)**(1/q), ints b, b2 >= 1 and
e, e2 >= 0, as exactpow defines it for its floors.
"""
from __future__ import annotations

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

# ulps of outward widening applied after every log/exp call
_ULP_PAD = 8


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


def floor_bounds(b: int, e: int, q: int, b2: int, e2: int, s: int, prec: int) -> tuple[int, int]:
    """(floor(2^s lo), floor(2^s hi)) for the enclosure [lo, hi] of P at prec bits."""
    lo, hi = _root_interval(b, e, q, b2, e2, prec)
    return to_int(mpf_shift(lo, s), round_floor), to_int(mpf_shift(hi, s), round_floor)
