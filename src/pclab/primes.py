"""Segmented prime generation, prime counting, and von Mangoldt weights.

``primes_in`` is the package's one sieve.  It covers the odd integers only:
index i of a segment's mask stands for the odd number start + 2i.  Segments
are sieved independently (Bays and Hudson, BIT 17, 1977) and their primes
written in segment order into one int64 buffer per call, 2 first; the base
primes up to isqrt(hi) come from ``primes_in`` itself.  The buffer is sized
by ``_count_bound``, an upper bound on the primes in the range (Rosser and
Schoenfeld; Montgomery and Vaughan), and shrunk to its count at the end, so
no prime is held twice: ``primes_in(0, x)`` holds its primes once, and a
census, which sieves one range of integers per block, holds one block of
them.

Each mask starts as a copy of one pre-sieve pattern (Pritchard, Acta
Informatica 17, 1982), filled from two stored periods by doubling.  Entry j
of the pattern is true exactly when 2j + 1 is prime to
W = 3 * 5 * 7 * 11 * 13 = 15015.  For an odd prime q | W,
2(j + W) + 1 = (2j + 1) + 2W is congruent to 2j + 1 mod q, so the pattern
has period W in j, and the odd number start + 2i = 2((start - 1) / 2 + i) + 1
reads entry ((start - 1) / 2 + i) mod W.  So the copy is false exactly on
the odd multiples of 3, 5, 7, 11 and 13.  Those five primes are set true
again; 1 is set false.  Every odd composite n of the segment has a least
prime factor q with q^2 <= n: either q <= 13 and the pattern removed n, or
q >= 17 is a base prime and n is an odd multiple of q at least q^2, which
the striking loop removes.  Striking never touches a prime, so the mask is
true exactly on the odd primes of the segment.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_CAPS, Caps, RangeTooLarge

SEGMENT_WIDTH = 1 << 18          # odd numbers per segment, so 2^19 integers
_WHEEL = (3, 5, 7, 11, 13)
_PERIOD = 3 * 5 * 7 * 11 * 13    # 15015


@functools.cache
def _pattern() -> np.ndarray:
    """One period of the wheel pattern, twice over, so that every rotation
    of it is one slice."""
    odd = np.arange(1, 2 * _PERIOD, 2, dtype=np.int16)  # 2j + 1 < 2^15
    period = np.ones(_PERIOD, dtype=bool)
    for q in _WHEEL:
        period &= odd % q != 0
    twice = np.concatenate((period, period))
    twice.flags.writeable = False  # shared by every call; segments copy it
    return twice


def _pattern_from(offset: int, width: int) -> np.ndarray:
    """Entries offset .. offset + width - 1 of the periodic pattern, filled
    by doubling: a copy to a multiple of _PERIOD keeps the period."""
    mask = np.empty(width, dtype=bool)
    filled = min(_PERIOD, width)
    mask[:filled] = _pattern()[offset : offset + filled]
    while filled < width:
        n = min(filled, width - filled)
        mask[filled : filled + n] = mask[:n]
        filled += n
    return mask


def _odd_segments(lo: int, hi: int, caps: Caps) -> Iterator[tuple[int, np.ndarray]]:
    """(start, mask) per segment over the odd n in (lo, hi]; mask[i] is true
    exactly when start + 2i is prime.  The cap is checked and the base
    primes are sieved here, before the first segment is asked for."""
    if hi > caps.primes_hi:
        raise RangeTooLarge(f"hi={hi} exceeds the sieve cap {caps.primes_hi}")
    first = max(lo, 0) + 1 | 1
    if first > hi or hi < 3:  # no odd prime; this also ends the recursion
        return iter(())
    base = primes_in(0, math.isqrt(hi), caps=caps)
    base = base[np.searchsorted(base, _WHEEL[-1], side="right"):].tolist()
    return (_segment(start, hi, base) for start in range(first, hi + 1, 2 * SEGMENT_WIDTH))


def _segment(start: int, hi: int, base: list[int]) -> tuple[int, np.ndarray]:
    width = min(SEGMENT_WIDTH, (hi - start) // 2 + 1)
    last = start + 2 * (width - 1)
    offset = (start - 1) // 2 % _PERIOD
    mask = _pattern_from(offset, width)
    for p in base:
        p2 = p * p
        if p2 > last:
            break
        m = max(p2, -(-start // p) * p)
        if not m & 1:
            m += p
        mask[(m - start) >> 1 :: p] = False
    if start <= _WHEEL[-1]:
        for q in _WHEEL:
            if start <= q <= last:
                mask[(q - start) >> 1] = True
        if start == 1:
            mask[0] = False
    return start, mask


_COUNT_SLACK = 4


def _count_bound(lo: int, hi: int) -> int:
    """An upper bound on the number of primes in (lo, hi].

    pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld, Illinois J.
    Math. 6, 1962, (3.6)), and for lo > 0 and y = hi - lo > 1 also
    pi(lo + y) - pi(lo) < 2 y / ln y (Montgomery and Vaughan, Mathematika
    20, 1973); never more than y.  The bounds are evaluated in floats, and
    _COUNT_SLACK entries absorb their rounding: pi(113) = 30 lies within
    4e-4 of the first.
    """
    lo = max(lo, 0)
    y = hi - lo
    if hi < 2 or y < 1:
        return 0
    bound = 1.25506 * hi / math.log(hi)
    if lo > 0 and y > 1:
        bound = min(bound, 2 * y / math.log(y))
    return min(y, math.ceil(bound) + _COUNT_SLACK)


def primes_in(lo: int, hi: int, *, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """The primes in the half-open range (lo, hi], ascending, as int64.

    The package's one buffer-filling loop over the sieve's segments.  The
    buffer is allocated once, to hold _count_bound(lo, hi) primes, after the
    cap is checked; it is filled segment by segment and shrunk to its count
    at the end.  Pages never written cost no resident memory.
    """
    segments = _odd_segments(lo, hi, caps)
    buf, k = np.empty(_count_bound(lo, hi), dtype=np.int64), 0
    if lo < 2 <= hi:
        buf[0], k = 2, 1
    for start, mask in segments:
        found = np.flatnonzero(mask)
        part = np.left_shift(found, 1, out=buf[k : k + found.size])
        part += start
        k += found.size
    found = mask = part = None  # the last segment is not held past the call
    buf.resize(k, refcheck=False)  # in place: no view of buf is left
    return buf


def prime_count(x: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """pi(x), the number of primes not exceeding x, counted segment by segment."""
    return int(x >= 2) + sum(int(np.count_nonzero(mask)) for _, mask in _odd_segments(0, x, caps))


@dataclass(frozen=True)
class MangoldtTable:
    """All prime powers n = p^k <= x with their base primes.

    Lambda(n) = log p exactly on the listed n and 0 elsewhere.
    """

    ns: np.ndarray       # prime powers, ascending
    ps: np.ndarray       # matching base primes
    logs: np.ndarray     # log(p) per entry


def mangoldt_table(x: int, *, caps: Caps = DEFAULT_CAPS) -> MangoldtTable:
    if x > caps.mangoldt_x:
        raise RangeTooLarge(f"x={x} exceeds the von Mangoldt cap {caps.mangoldt_x}")
    primes = primes_in(0, x, caps=caps)
    ns, ps = [primes], [primes]
    # the higher powers: power * p <= x exactly when power <= x // p, so no product passes x
    base = primes[: np.searchsorted(primes, math.isqrt(max(x, 0)), side="right")]
    power = base
    while base.size:
        keep = power <= x // base
        base, power = base[keep], power[keep] * base[keep]
        ns.append(power)
        ps.append(base)
    ns_a, ps_a = np.concatenate(ns), np.concatenate(ps)
    order = np.argsort(ns_a, kind="stable")
    ns_a, ps_a = ns_a[order], ps_a[order]
    return MangoldtTable(ns_a, ps_a, np.log(ps_a.astype(np.float64)))
