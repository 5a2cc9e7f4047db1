"""The benchmark's workloads: each is a list of ops, and each op's output is checked.

An op is one call into pclab's public API.  Its check runs after the timed
pass, so checking never counts towards an op's time.  Checks are independent
of the code under test: exact integer tests for floors, trial division for
factor signatures, and reference outputs recorded from an earlier commit
(``reference.json``) for everything else.  Floats match to a relative 1e-9,
integers, strings and booleans exactly.

Inputs are fixed except where the seed draws them: the ``floors`` query
batch and the member samples that the checks certify.
"""
from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from tracer import CRITERIA

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# members sampled per (x, c) for the trial-division and exact-floor checks
MEMBER_SAMPLES = 24
# floors query batch: exact-root queries and interval-path queries
EXACT_QUERIES = 4000
INTERVAL_QUERIES = 800
# the interval queries lower the exact-path cap so their certification stays
# cheap; the interval path itself costs the same at any numerator
INTERVAL_EXACT_BITS = 4096

# pi(x) for the fixed x of the census and floors members
PI_X = {10**6: 78498, 2 * 10**6: 148933, 3 * 10**6: 216816, 4 * 10**6: 283146}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# ------------------------------------------------------------ independent checks

def results_match(got, want, rel: float = 1e-9) -> bool:
    """Deep comparison: floats to a relative `rel`, everything else exactly."""
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(results_match(got[k], want[k], rel) for k in got)
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(results_match(a, b, rel) for a, b in zip(got, want))
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None or isinstance(got, bool) or isinstance(want, bool):
            return got == want
        return abs(float(got) - float(want)) <= rel * max(abs(float(want)), 1.0)
    return got == want


def as_json(obj):
    """The output as plain JSON data (tuples become lists), as the reference stores it."""
    return json.loads(json.dumps(obj))


def is_floor_pow(n: int, num: int, den: int, r: int) -> bool:
    """The exact test r^den <= n^num < (r+1)^den, i.e. r == floor(n^(num/den))."""
    target = n**num
    return r**den <= target < (r + 1) ** den


def trial_signature(n: int) -> tuple[int, bool]:
    """(Omega(n), squarefree) by plain trial division."""
    omega, squarefree = 0, True
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            omega += e
            squarefree = squarefree and e == 1
        d += 1 if d == 2 else 2
    if n > 1:
        omega += 1
    return omega, squarefree


def _is_prime_trial(n: int) -> bool:
    return n >= 2 and trial_signature(n)[0] == 1


@functools.cache
def _load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _matches_reference(section: str, name: str, to_json=lambda out: out.to_json()) -> Callable[[Any], bool]:
    """Check against the recorded output; the reference is read when first needed."""
    return lambda out: results_match(as_json(to_json(out)), _load_reference()[section][name])


def _sample(rng: random.Random, size: int, k: int) -> list[int]:
    return rng.sample(range(size), min(k, size))


def _members_certified(ps, vals, num: int, den: int, idx: list[int]) -> bool:
    """Sampled members are primes and exact floors; the arrays are consistent."""
    if len(ps) != len(vals) or len(ps) == 0:
        return False
    if len(ps) > 1 and not (bool((ps[1:] > ps[:-1]).all()) and bool((vals[1:] >= vals[:-1]).all())):
        return False
    for i in idx:
        p, v = int(ps[i]), int(vals[i])
        if not (_is_prime_trial(p) and is_floor_pow(p, num, den, v)):
            return False
    return True


# ------------------------------------------------------------ workloads

def census(seed: int) -> list[Op]:
    """Census ops at x ~ 1e6: the time is in factor signatures of int64 members."""
    import pclab.experiments as ex
    from pclab.factor import factor_signature, is_prime

    rng = random.Random(seed)

    def spot_check(x: int, c: str, idx: list[int]) -> bool:
        # members recomputed outside the timed pass; each sampled member is an
        # exact floor and its signature matches trial division
        ps, vals = ex.members(x, c)
        frac = Fraction(c)
        if not _members_certified(ps, vals, frac.numerator, frac.denominator, idx):
            return False
        for i in idx:
            v = int(vals[i])
            omega, squarefree = trial_signature(v)
            sig = factor_signature(v)
            if (sig.omega_big, sig.squarefree, is_prime(v)) != (omega, squarefree, omega == 1):
                return False
        return True

    def op(name: str, run, x: int, c: str) -> Op:
        idx = _sample(rng, PI_X[x], MEMBER_SAMPLES)
        matches = _matches_reference("census", name)
        return Op(name, run, lambda out: matches(out) and spot_check(x, c, idx))

    return [
        op("squarefree_census", lambda: ex.squarefree_census(10**6, "7/5", jobs=1), 10**6, "7/5"),
        op("almost_prime_census", lambda: ex.almost_prime_census(10**6, "10521/10000", 8, jobs=1),
           10**6, "10521/10000"),
        op("ps_prime_count", lambda: ex.ps_prime_count(3 * 10**6, "3/2", jobs=1), 3 * 10**6, "3/2"),
        op("residue_histogram", lambda: ex.residue_histogram(10**6, "10521/10000", 50), 10**6, "10521/10000"),
        op("level_error", lambda: ex.level_error(10**6, "10521/10000", 50), 10**6, "10521/10000"),
    ]


def floor_queries(seed: int) -> list[tuple[int, int, int, bool]]:
    """Seeded (n, num, den, interval) queries for single floor_pow calls.

    Exact-root queries use den <= 16 and n up to 1e12.  Interval queries use
    numerators in the hundreds to thousands, above the lowered exact-path cap.
    """
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for i in range(EXACT_QUERIES + INTERVAL_QUERIES):
        interval = i >= EXACT_QUERIES
        while True:
            den = rng.randint(300, 1000) if interval else rng.randint(2, 16)
            num = rng.randint(den + 1, 2 * den - 1) if interval else rng.randint(den + 1, 3 * den - 1)
            if math.gcd(num, den) == 1:
                break
        n = rng.randrange(1 << 24, 1 << 40) if interval else rng.randint(2, 10**12)
        out.append((n, num, den, interval))
    return out


def floors(seed: int) -> list[Op]:
    """Certified floors with no factoring: members() on three exponents plus single queries."""
    import pclab.exactpow as xp
    import pclab.experiments as ex
    from pclab.errors import DEFAULT_CAPS

    rng = random.Random(seed)
    interval_caps = replace(DEFAULT_CAPS, floor_exact_bits=INTERVAL_EXACT_BITS)
    queries = [(n, Fraction(num, den), interval) for n, num, den, interval in floor_queries(seed)]

    def run_queries():
        return [xp.floor_pow(n, c, interval_caps) if interval else xp.floor_pow(n, c) for n, c, interval in queries]

    def check_queries(out) -> bool:
        return len(out) == len(queries) and all(
            is_floor_pow(n, c.numerator, c.denominator, int(r)) for (n, c, _), r in zip(queries, out)
        )

    def members_op(name: str, x: int, c: str) -> Op:
        frac = Fraction(c)
        idx = _sample(rng, PI_X[x], MEMBER_SAMPLES)

        def check(out) -> bool:
            ps, vals = out
            return len(ps) == PI_X[x] and _members_certified(ps, vals, frac.numerator, frac.denominator, idx)

        return Op(name, lambda: ex.members(x, c), check)

    return [
        members_op("members_4e6_c10521_10000", 4 * 10**6, "10521/10000"),
        members_op("members_2e6_c11_5", 2 * 10**6, "11/5"),
        members_op("members_2e6_c5_2", 2 * 10**6, "5/2"),
        Op("floor_pow_queries", run_queries, check_queries),
    ]


def sums(seed: int) -> list[Op]:
    """Exponential sums: fractional parts, phases and fixed-point tables, then accumulation."""
    import pclab.experiments as ex
    import pclab.expsum as es

    specs = [
        ("prime_expsum_1e6_c11_5", lambda: es.prime_expsum(10**6, "11/5", 3, 7)),
        ("prime_expsum_2e5_c10521_10000", lambda: es.prime_expsum(2 * 10**5, "10521/10000", 3, 7)),
        ("star_discrepancy_2e5_c10521_10000", lambda: ex.star_discrepancy(2 * 10**5, "10521/10000", 1, 7)),
        ("weyl_sum_4e4", lambda: es.weyl_sum("5/2", 1, Fraction(3, 10), 4 * 10**4)),
        ("trilinear_sum_16_64_64", lambda: es.trilinear_sum(16, 64, 64, 1, "10521/10000", "pm1", seed=42)),
        ("triple_sum_1e5", lambda: es.triple_sum(10**5, 4, 4, "3/2")),
    ]
    return [Op(name, run, _matches_reference("sums", name)) for name, run in specs]


def suite(seed: int) -> list[Op]:
    """acceptance.criterion_1 .. criterion_13, each with a fresh LabContext(jobs=1).

    run_criteria is not used: it folds wall-clock budgets into the verdicts.
    The reference holds the recorded verdicts, red ones (3 and 13) included.
    """
    import pclab.acceptance as ac

    def op(n: int) -> Op:
        def run():
            passed, values = getattr(ac, f"criterion_{n}")(ac.LabContext(jobs=1))
            return {"passed": bool(passed), "values": values}

        return Op(f"criterion_{n}", run, _matches_reference("suite", f"criterion_{n}", lambda out: out))

    return [op(n) for n in CRITERIA]


BUILDERS = {"census": census, "floors": floors, "sums": sums, "suite": suite}


def warm_up(workload: str) -> None:
    """One tiny call per layer the workload uses, so lazy tables are built before timing."""
    import pclab.exactpow as xp
    import pclab.experiments as ex
    import pclab.expsum as es
    import pclab.factor as fa
    import pclab.primes as pr

    pr.primes_in(0, 100)
    xp.floor_pow_batch([2, 3, 5], "3/2")
    xp.floor_pow(7, "7/3")
    if workload in ("census", "suite"):
        fa.factor_signature(2 * 3 * 5 * 7 * 11 * 13 * 101 * 103)  # builds the small-prime table
        fa.is_prime(97)
        ex.members(100, "7/5")
    if workload in ("sums", "suite"):
        xp.frac_scaled_pow(3, "3/2", 1, 7)
        xp.frac_phase(3, "5/2", 10, Fraction(3, 10))
        xp.scaled_floor_table([2, 3], "3/2")
        es.triple_sum(10, 1, 1, "3/2")
    if workload == "suite":
        import pclab.constants as cn

        cn.regime_constants(Fraction(5, 2))
