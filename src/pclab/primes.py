"""Segmented prime generation, prime counting, and von Mangoldt weights.

Segments are sieved independently (numpy boolean blocks) and concatenated
in segment order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_CAPS, Caps, RangeTooLarge

SEGMENT_WIDTH = 1 << 18


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def _sieve_block(start: int, stop: int, base: np.ndarray) -> np.ndarray:
    """Primality mask for [start, stop)."""
    width = stop - start
    mask = np.ones(width, dtype=bool)
    if start < 2:
        mask[: min(width, 2 - start)] = False
    for p in base.tolist():
        p2 = p * p
        if p2 >= stop:
            break
        first = max(p2, ((start + p - 1) // p) * p)
        mask[first - start :: p] = False
    return mask


def primes_in(lo: int, hi: int, *, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """The primes in the half-open range (lo, hi], ascending, as int64."""
    if hi > caps.primes_hi:
        raise RangeTooLarge(f"hi={hi} exceeds the sieve cap {caps.primes_hi}")
    if hi <= lo or hi < 2:
        return np.zeros(0, dtype=np.int64)
    base = _simple_sieve(math.isqrt(hi) + 1)
    parts = []
    start = max(lo, 0) + 1
    while start <= hi:
        stop = min(start + SEGMENT_WIDTH, hi + 1)
        parts.append(start + np.flatnonzero(_sieve_block(start, stop, base)).astype(np.int64))
        start = stop
    return np.concatenate(parts)


def prime_count(x: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """pi(x), the number of primes not exceeding x."""
    if x < 2:
        return 0
    return int(primes_in(0, x, caps=caps).size)


@dataclass(frozen=True)
class MangoldtTable:
    """All prime powers n = p^k <= limit with their base primes.

    Lambda(n) = log p exactly on the listed n and 0 elsewhere.
    """

    limit: int
    ns: np.ndarray       # prime powers, ascending
    ps: np.ndarray       # matching base primes
    logs: np.ndarray     # log(p) per entry

    @property
    def entries(self) -> list[tuple[int, int]]:
        return list(zip(self.ns.tolist(), self.ps.tolist()))

    def weight(self, n: int) -> float:
        i = int(np.searchsorted(self.ns, n))
        if i < self.ns.size and int(self.ns[i]) == n:
            return float(self.logs[i])
        return 0.0


def mangoldt_table(x: int, *, caps: Caps = DEFAULT_CAPS) -> MangoldtTable:
    if x > caps.mangoldt_x:
        raise RangeTooLarge(f"x={x} exceeds the von Mangoldt cap {caps.mangoldt_x}")
    ns: list[int] = []
    ps: list[int] = []
    for p in primes_in(0, x, caps=caps).tolist():
        n = p
        while n <= x:
            ns.append(n)
            ps.append(p)
            n *= p
    order = np.argsort(np.array(ns, dtype=np.int64), kind="stable")
    ns_a = np.array(ns, dtype=np.int64)[order]
    ps_a = np.array(ps, dtype=np.int64)[order]
    return MangoldtTable(x, ns_a, ps_a, np.log(ps_a.astype(np.float64)))
