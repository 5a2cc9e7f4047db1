"""Empirical censuses and distribution measurements over floor(p^c), p <= x.

Every census counts block by block.  A block is the primes of one range
(a, a + ``_SPAN``] of (0, x], sieved on its own (``primes.primes_in``), so
it depends on its range alone; a range that holds no prime gives no block.
Each block is laid out by the exact floor of its last prime: below 2^62
(``factor.TWO62``) its members come from ``floor_pow_batch`` as one int64
array, above it from ``floor_pow`` one by one as Python ints.  So a census
holds one block of members, not all of them, and the early blocks of a run
whose last members pass 2^62 stay int64.  The 2^127 ``Overflow`` is decided
from the largest prime <= x (``_top_floor``) before any block is.
``members`` sieves (0, x] once and returns the blocks' floors one after
another, with one layout for all (int64 when the largest floor is below
2^62, Python ints otherwise).

Census counts are exact, and they are integer sums over the blocks, so the
block size never changes a result.  ``_count`` decides both layouts for
every census, given the census's array test and member test.  It decides
an int64 block all at once, through the array test.  The squarefree and
almost-prime censuses use ``factor.signature_arrays`` there: trial division
to the cube root of the block's largest member leaves a cofactor with at
most two prime factors, so squarefreeness follows from a perfect-square
test, and Omega <= R needs ``factor.is_prime_array`` only on the cofactors
whose primality decides it.  ``ps_prime_count`` decides its members with
``is_prime_array`` itself.  Object members (2^62 and above) go one by one
through the member test, in chunks of the block's members; with
``jobs > 1`` the chunks of each block run in a process pool of their own,
and their counts are combined in fixed chunk order, so worker count never
changes a result.  ``residue_histogram`` and ``level_error`` add up their
residue tables block by block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._json import Report
from .errors import DEFAULT_CAPS, Caps, OutOfRange, Overflow, RangeTooLarge
from .exactpow import DEFAULT_FRAC_TOL, RationalExponent, as_exponent, floor_pow, floor_pow_batch, frac_scaled_pow_batch
from .factor import TWO62, TWO127, factor_signature, is_prime, is_prime_array, signature_arrays
from .primes import primes_in

_CHUNK = 1 << 13
# integers per block: a census holds the members of one range (a, a + _SPAN] at a time
_SPAN = 1 << 24


@dataclass(frozen=True)
class CensusReport(Report):
    x: int
    c: RationalExponent
    R: int
    count: int
    pi_x: int
    eta_hat: float  # count * log^2 x / x, the measured density surrogate


@dataclass(frozen=True)
class SquarefreeReport(Report):
    x: int
    c: RationalExponent
    count: int
    pi_x: int
    ratio: float
    deviation: float  # |ratio - 6/pi^2|


@dataclass(frozen=True)
class PsPrimeReport(Report):
    x: int
    c: RationalExponent
    count: int
    pi_x: int
    balog_ref: float  # x / (c log^2 x)


@dataclass(frozen=True)
class ResidueHistogram(Report):
    x: int
    c: RationalExponent
    d: int
    counts: tuple

    @property
    def pi_x(self) -> int:
        return int(sum(self.counts))


@dataclass(frozen=True)
class LevelReport(Report):
    x: int
    c: RationalExponent
    D: int
    f_model: str = field(default="unit", init=False)  # f = 1: members equidistributed mod d
    E: float
    normalized: float  # E * log^2 N / N with N = pi(x)
    all_residues: bool = False


@dataclass(frozen=True)
class DiscrepancyReport(Report):
    x: int
    c: RationalExponent
    h: int
    d: int
    n_points: int
    value: float


def members(x: int, c, *, caps: Caps = DEFAULT_CAPS) -> tuple[np.ndarray, np.ndarray]:
    """(primes p <= x, floor(p^c)); certified floors.

    The floors are int64 when the largest is below 2^62, Python ints in an
    object array otherwise; Overflow from 2^127 on, where factor stops.
    They are the census blocks' floors, one block after another.
    """
    c = as_exponent(c)
    top = _top_floor(x, c, caps)
    ps = primes_in(0, x, caps=caps)
    if top < TWO62:  # so is every block's: their floors are one batch
        return ps, floor_pow_batch(ps, c, caps)
    blocks = np.split(ps, np.searchsorted(ps, range(_SPAN, x, _SPAN), side="right"))
    return ps, np.concatenate([_block_floors(b, c, caps).astype(object, copy=False) for b in blocks if b.size])


def _top_floor(x: int, c: RationalExponent, caps: Caps) -> int:
    """floor(p^c) for the largest prime p <= x, found in windows below x that
    double until one holds a prime; Overflow from 2^127 on.  The check that
    members and every census make before any block is decided."""
    if x < 2:
        raise OutOfRange("need x >= 2")
    width = 64
    while (found := primes_in(x - width, x, caps=caps)).size == 0:
        width *= 2
    p = int(found[-1])
    top = floor_pow(p, c, caps)
    if top >= TWO127:
        raise Overflow(f"floor(p^c) reaches 2^127 at p={p}")
    return top


def _block_floors(ps: np.ndarray, c: RationalExponent, caps: Caps) -> np.ndarray:
    """floor(p^c) for a block of primes, laid out by the floor of its last
    prime: int64 below 2^62, Python ints in an object array above."""
    if floor_pow(int(ps[-1]), c, caps) < TWO62:
        return floor_pow_batch(ps, c, caps)
    return np.array([floor_pow(p, c, caps) for p in ps.tolist()], dtype=object)


def _member_blocks(x: int, c: RationalExponent, caps: Caps):
    """floor(p^c) for the primes p of each range (a, a + _SPAN] of (0, x]
    that holds one, laid out by the block's largest floor.

    members' checks come first: Overflow is raised before any block is
    decided.  A block's primes are dropped before its floors are handed out.
    """
    _top_floor(x, c, caps)
    for a in range(0, x, _SPAN):
        ps = primes_in(a, min(a + _SPAN, x), caps=caps)
        if ps.size:
            vals = _block_floors(ps, c, caps)
            ps = None
            yield vals


def _chunks(seq):
    return [seq[i : i + _CHUNK] for i in range(0, len(seq), _CHUNK)]


def _map_ordered(func, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [func(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(func, items))


def _omega_at_most(R: int, m: int) -> bool:
    return factor_signature(m).omega_big <= R


def _squarefree(m: int) -> bool:
    return factor_signature(m).squarefree


def _count_chunk(test, member_list) -> int:
    return sum(1 for m in member_list if test(m))


def _count(blocks, jobs: int, array_test, member_test) -> tuple[int, int]:
    """(passed, members): the members that pass a census test and all
    members, summed over blocks of members in either layout.

    An int64 block is decided at once by array_test, which returns a
    boolean mask; object members one by one by member_test, which must
    pickle.
    """
    passed = total = 0
    for vals in blocks:
        if vals.dtype == np.int64:
            passed += int(np.count_nonzero(array_test(vals)))
        else:
            passed += sum(_map_ordered(partial(_count_chunk, member_test), _chunks(vals.tolist()), jobs))
        total += vals.size
    return passed, total


def _omega_within(vals: np.ndarray, R: int) -> np.ndarray:
    """Omega(v) <= R for each v of an int64 array, from ``signature_arrays``.

    The cofactor adds 0 (it is 1), 1 (a prime) or 2 (composite) to the small
    count, so only where small count + 1 == R does its primality decide;
    ``is_prime_array`` settles those few, deterministically below 2^64.
    """
    omega_small, _, cofactor = signature_arrays(vals)
    big = cofactor > 1
    within = omega_small + 2 * big <= R
    edge = big & (omega_small + 1 == R)
    within[edge] = is_prime_array(cofactor[edge])
    return within


def almost_prime_census(x: int, c, R: int, *, jobs: int = 1, caps: Caps = DEFAULT_CAPS) -> CensusReport:
    """count = |{p <= x : Omega(floor(p^c)) <= R}| and its density surrogate."""
    if R < 1:
        raise OutOfRange("need R >= 1")
    c = as_exponent(c)
    count, pi_x = _count(_member_blocks(x, c, caps), jobs, partial(_omega_within, R=R), partial(_omega_at_most, R))
    eta_hat = count * math.log(x) ** 2 / x
    return CensusReport(x, c, R, count, pi_x, eta_hat)


SQUAREFREE_DENSITY = 6.0 / math.pi ** 2


def squarefree_census(x: int, c, *, jobs: int = 1, caps: Caps = DEFAULT_CAPS) -> SquarefreeReport:
    c = as_exponent(c)
    count, pi_x = _count(_member_blocks(x, c, caps), jobs, lambda v: signature_arrays(v)[1], _squarefree)
    ratio = count / pi_x
    return SquarefreeReport(x, c, count, pi_x, ratio, abs(ratio - SQUAREFREE_DENSITY))


def ps_prime_count(x: int, c, *, jobs: int = 1, caps: Caps = DEFAULT_CAPS) -> PsPrimeReport:
    """Pi_c(x) = |{p <= x : floor(p^c) prime}|, with Balog's normalization."""
    c = as_exponent(c)
    count, pi_x = _count(_member_blocks(x, c, caps), jobs, is_prime_array, is_prime)
    balog_ref = x / (float(c) * math.log(x) ** 2)
    return PsPrimeReport(x, c, count, pi_x, balog_ref)


def _residue_counts(vals: np.ndarray, d: int) -> np.ndarray:
    """Members per residue class mod d, for int64 and object member arrays."""
    return np.bincount((vals % d).astype(np.int64, copy=False), minlength=d)


def _check_modulus(name: str, d: int, caps: Caps) -> None:
    """A modulus sizes one int64 table of counts, capped like a von Mangoldt table."""
    if d < 1:
        raise OutOfRange(f"need {name} >= 1")
    if d > caps.mangoldt_x:
        raise RangeTooLarge(f"{name}={d} exceeds the table cap {caps.mangoldt_x}")


def residue_histogram(x: int, c, d: int, *, caps: Caps = DEFAULT_CAPS) -> ResidueHistogram:
    _check_modulus("d", d, caps)
    c = as_exponent(c)
    counts = np.zeros(d, dtype=np.int64)
    for vals in _member_blocks(x, c, caps):
        counts += _residue_counts(vals, d)
    return ResidueHistogram(x, c, d, tuple(int(v) for v in counts))


def level_error(
    x: int,
    c,
    D: int,
    *,
    all_residues: bool = False,
    caps: Caps = DEFAULT_CAPS,
) -> LevelReport:
    """E = sum over d <= D of the worst residue-class deviation.

    For each modulus d the deviation |count(s, d) - f(d) N / d| is maximized
    over s coprime to d (over all s with all_residues=True); f is the
    expected multiplicative model, identically 1.  The tables for
    d <= D hold D (D + 1) / 2 entries in all, capped like one von Mangoldt
    table.  A run of one block makes them one at a time; over several
    blocks they are held together while the blocks are added up.
    """
    _check_modulus("D", D, caps)
    if D * (D + 1) // 2 > caps.mangoldt_x:
        raise RangeTooLarge(f"D={D} needs D(D+1)/2 table entries, beyond the cap {caps.mangoldt_x}")
    c = as_exponent(c)
    blocks = _member_blocks(x, c, caps)
    vals = next(blocks)
    n = vals.size
    if x <= _SPAN:  # the only block
        tables = (_residue_counts(vals, d) for d in range(1, D + 1))
    else:
        tables = [_residue_counts(vals, d) for d in range(1, D + 1)]
        for vals in blocks:
            n += vals.size
            for d, counts in enumerate(tables, 1):
                counts += _residue_counts(vals, d)
    per_d: list[float] = []
    for d, counts in enumerate(tables, 1):
        if all_residues:
            sel = counts
        else:
            coprime = np.gcd(np.arange(d, dtype=np.int64), d) == 1
            sel = counts[coprime]
        expected = n / d  # f(d) = 1
        per_d.append(float(np.max(np.abs(sel - expected))))
    e_val = math.fsum(per_d)
    normalized = e_val * math.log(n) ** 2 / n if n > 1 else 0.0
    return LevelReport(x, c, D, e_val, normalized, all_residues)


def star_discrepancy_points(points) -> float:
    """Exact star discrepancy of a finite point multiset in [0, 1)."""
    pts = np.sort(np.asarray(points, dtype=np.float64))
    n = pts.size
    if n == 0:
        raise OutOfRange("need at least one point")
    steps = np.arange(n + 1) / n  # i / n, exactly rounded as Python's int division
    return max(0.0, float(np.max(steps[1:] - pts)), float(np.max(pts - steps[:-1])))


def star_discrepancy(
    x: int, c, h: int, d: int, *, tol: float = DEFAULT_FRAC_TOL, caps: Caps = DEFAULT_CAPS
) -> DiscrepancyReport:
    """Star discrepancy of {h * p^c / d mod 1 : p <= x}."""
    if h < 0 or d < 1:
        raise OutOfRange("need h >= 0 and d >= 1")
    c = as_exponent(c)
    ps = primes_in(0, x, caps=caps)
    if ps.size == 0:
        raise OutOfRange("no primes <= x")
    pts, _ = frac_scaled_pow_batch(ps, c, h, d, tol, caps)
    return DiscrepancyReport(x, c, h, d, int(pts.size), star_discrepancy_points(pts))
