import math
import random
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pclab import experiments as ex, factor
from pclab.acceptance import _omega_oracle
from pclab.errors import Caps, OutOfRange, RangeTooLarge
from pclab.exactpow import floor_pow
from pclab.factor import factor_signature, signature_arrays

# members of floor(p^1.5) for p <= 20: {2, 5, 11, 18, 36, 46, 70, 82}


def test_almost_prime_census_small():
    r = ex.almost_prime_census(20, "3/2", 1)
    assert r.count == 3  # 2, 5, 11
    assert r.pi_x == 8
    r50 = ex.almost_prime_census(20, "3/2", 50)
    assert r50.count == r50.pi_x == 8


def test_census_monotone_in_R_and_x():
    counts_r = [ex.almost_prime_census(200, "3/2", r).count for r in (1, 2, 4, 8, 127)]
    assert counts_r == sorted(counts_r)
    assert counts_r[-1] == ex.almost_prime_census(200, "3/2", 1).pi_x
    counts_x = [ex.almost_prime_census(x, "3/2", 3).count for x in (50, 100, 400, 1000)]
    assert counts_x == sorted(counts_x)


def test_eta_hat_definition():
    r = ex.almost_prime_census(100, "3/2", 4)
    assert r.eta_hat == pytest.approx(r.count * math.log(100) ** 2 / 100)


def test_squarefree_small():
    r = ex.squarefree_census(20, "3/2")
    assert r.count == 6  # 18 = 2*3^2 and 36 fail
    assert r.ratio == pytest.approx(0.75)
    assert ex.SQUAREFREE_DENSITY == pytest.approx(0.6079271018540267)


def test_ps_prime_count_small():
    assert ex.ps_prime_count(10, "3/2").count == 3  # 2, 5, 11
    assert ex.ps_prime_count(2, "3/2").count == 1


def test_residue_histogram_small():
    h = ex.residue_histogram(20, "3/2", 2)
    assert h.counts == (6, 2)
    h5 = ex.residue_histogram(20, "3/2", 5)
    assert sum(h5.counts) == 8
    h1 = ex.residue_histogram(20, "3/2", 1)
    assert h1.counts == (8,)


def test_level_error_small():
    assert ex.level_error(20, "3/2", 1).E == 0.0
    r = ex.level_error(20, "3/2", 2)
    assert r.E == pytest.approx(2.0)  # d=2, s=1: |2 - 4| = 2
    assert r.normalized == pytest.approx(2.0 * math.log(8) ** 2 / 8)


def test_level_error_all_residues_flag():
    narrow = ex.level_error(50, "3/2", 6).E
    wide = ex.level_error(50, "3/2", 6, all_residues=True).E
    assert wide >= narrow


def test_residue_counts_of_object_members():
    # members of 77/10 at x = 300 reach 2^64 and are held as Python ints
    vals = [int(v) for v in ex.members(300, "77/10")[1]]
    assert max(vals) >= 2**63
    n, D = len(vals), 30

    def plain_counts(d):
        counts = [0] * d
        for v in vals:
            counts[v % d] += 1
        return counts

    for d in (1, 2, 7, 30, 97):
        assert ex.residue_histogram(300, "77/10", d).counts == tuple(plain_counts(d))
    for all_residues in (False, True):
        per_d = []
        for d in range(1, D + 1):
            counts = plain_counts(d)
            sel = [counts[s] for s in range(d) if all_residues or math.gcd(s, d) == 1]
            per_d.append(max(abs(k - n / d) for k in sel))
        got = ex.level_error(300, "77/10", D, all_residues=all_residues)
        assert got.E == math.fsum(per_d)


def test_parallel_runs_equal_sequential(monkeypatch):
    # members of 77/10 at x = 300 reach 2^64, so they are factored one by one;
    # small chunks make jobs=3 spread them over a process pool
    assert ex.members(300, "77/10")[1].dtype == object
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ex, "_CHUNK", 16)
    monkeypatch.setattr(ex, "ProcessPoolExecutor", CountingPool)
    a = ex.almost_prime_census(300, "77/10", 3, jobs=1)
    b = ex.almost_prime_census(300, "77/10", 3, jobs=3)
    assert a == b
    sa = ex.squarefree_census(300, "77/10", jobs=1)
    sb = ex.squarefree_census(300, "77/10", jobs=3)
    assert sa == sb
    pa = ex.ps_prime_count(300, "77/10", jobs=1)
    pb = ex.ps_prime_count(300, "77/10", jobs=3)
    assert pa == pb
    assert pools == [3, 3, 3]


def test_members_layout_follows_the_largest_floor():
    # 3.1 * log2(2^20) = 62.0, but the largest floor, at p = 1048573, is below 2^62
    ps, vals = ex.members(2**20, "31/10")
    assert vals.dtype == np.int64
    assert int(vals[-1]) == floor_pow(int(ps[-1]), "31/10") < 2**62
    # 7/2 at 2e4 reaches 2^51; every floor comes from the batch
    ps, vals = ex.members(2 * 10**4, "7/2")
    assert vals.dtype == np.int64 and int(vals[-1]).bit_length() == 51
    assert vals.tolist() == [floor_pow(p, "7/2") for p in ps.tolist()]
    # from 2^62 on the members are Python ints, even while they fit int64
    _, vals = ex.members(280, "77/10")
    assert vals.dtype == object and 2**62 <= max(vals) < 2**63


def test_signature_arrays_over_the_whole_range():
    # every integer up to 2e5 against the sieve oracle; P = 58
    limit = 2 * 10**5
    omega, squarefree = _omega_oracle(limit)
    vals = np.arange(1, limit + 1, dtype=np.int64)
    omega_small, sf, cofactor = signature_arrays(vals)
    assert (sf == squarefree[1:]).all()
    assert (omega_small + omega[cofactor] == omega[1:]).all()
    assert (omega[cofactor] <= 2).all()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        assert not (cofactor % p == 0).any(), p
    for R in (4, 8):
        assert (ex._omega_within(vals, R) == (omega[1:] <= R)).all(), R


def test_omega_within_at_the_cofactor_edge():
    # P = iroot(101^3, 3) = 101; 103 and 107 are the primes just above it.
    # At R = 2 the cofactor's primality decides 2*q, 2*q*r and 2*q*q.
    q, r = 103, 107
    vals = np.array([2 * q, 2 * q * r, 2 * q * q, 6 * q, q * r, 101**3], dtype=np.int64)
    assert ex._omega_within(vals, 2).tolist() == [True, False, False, False, True, False]
    assert ex._omega_within(vals, 3).tolist() == [True, True, True, True, True, True]
    assert ex._omega_within(np.array([1], dtype=np.int64), 1).tolist() == [True]


def test_censuses_match_signatures_at_high_members():
    # members of 29/10 at x = 2e4 reach 2^42, so P = 14,374
    _, vals = ex.members(2 * 10**4, "29/10")
    sigs = [factor_signature(v) for v in vals.tolist()]
    assert signature_arrays(vals)[1].tolist() == [s.squarefree for s in sigs]
    for R in range(1, 7):
        assert ex._omega_within(vals, R).tolist() == [s.omega_big <= R for s in sigs], R


def test_int64_censuses_make_no_signature_calls(monkeypatch):
    prime_calls, array_sizes = [], []
    is_prime, is_prime_array = ex.is_prime, ex.is_prime_array

    def no_signature(n):
        raise AssertionError(f"factor_signature({n}) on the int64 path")

    def counting_is_prime(n):
        prime_calls.append(n)
        return is_prime(n)

    def counting_is_prime_array(vals):
        array_sizes.append(len(vals))
        return is_prime_array(vals)

    monkeypatch.setattr(ex, "factor_signature", no_signature)
    monkeypatch.setattr(ex, "is_prime", counting_is_prime)
    monkeypatch.setattr(factor, "is_prime", counting_is_prime)  # is_prime_array's fallback
    monkeypatch.setattr(ex, "is_prime_array", counting_is_prime_array)
    assert ex.squarefree_census(10**6, "7/5").count == 47714
    assert prime_calls == [] and array_sizes == []
    # only members whose cofactor's primality decides Omega <= 8 are tested
    assert ex.almost_prime_census(10**6, "10521/10000", 8).count == 77157
    assert prime_calls == [] and array_sizes == [906]


def test_both_member_layouts_count_alike(monkeypatch):
    # int64 members go through the array tests, object members one by one
    # through the member tests.  Members of 29/10 at 1e4 stay below 2^39;
    # those of 31/10 at 2^20 run to just below 2^62, so the ones from 2^50 on
    # take is_prime_array's fallback.
    members = ex.members
    cases = ((10**4, "29/10", 39), (2**20, "31/10", 62))
    for x, c, bits in cases:
        _, vals = members(x, c)
        assert vals.dtype == np.int64 and int(vals.max()).bit_length() == bits

    def reports():
        x, c, _ = cases[0]
        return ([ex.almost_prime_census(x, c, R) for R in range(1, 7)], ex.squarefree_census(x, c),
                [ex.ps_prime_count(x, c) for x, c, _ in cases])

    def object_members(*args, **kwargs):
        ps, vals = members(*args, **kwargs)
        return ps, vals.astype(object)

    int64 = reports()
    monkeypatch.setattr(ex, "members", object_members)
    assert reports() == int64


def test_star_discrepancy_point_formula():
    assert ex.star_discrepancy_points([0.0]) == 1.0
    n = 100
    assert ex.star_discrepancy_points([k / n for k in range(n)]) == pytest.approx(1 / n)


def star_discrepancy_loop(points):
    """The per-point loop that star_discrepancy_points replaced, as its reference."""
    pts = sorted(float(p) for p in points)
    n = len(pts)
    worst = 0.0
    for i, p in enumerate(pts, start=1):
        worst = max(worst, i / n - p, p - (i - 1) / n)
    return worst


def test_star_discrepancy_points_equals_the_loop():
    # IEEE division and max are exactly rounded, so the array form gives the
    # same float; ties from repeated points and a coarse grid included
    rng = random.Random(11)
    for n in (1, 2, 3, 7, 100, 4097, 30011):
        pts = [rng.random() for _ in range(n)]
        pts += rng.choices(pts, k=n // 3 + 1) + [rng.randrange(8) / 8 for _ in range(n // 2 + 1)]
        rng.shuffle(pts)
        want = star_discrepancy_loop(pts)
        assert ex.star_discrepancy_points(pts) == want
        assert ex.star_discrepancy_points(np.array(pts)) == want


def brute_discrepancy(points):
    pts = sorted(points)
    n = len(pts)
    worst = 0.0
    # sup over t of |#(points < t)/n - t| is attained approaching each point
    for t in pts + [1.0]:
        below = sum(1 for p in pts if p < t)
        at_or_below = sum(1 for p in pts if p <= t)
        worst = max(worst, abs(below / n - t), abs(at_or_below / n - t))
    return worst


@given(st.lists(st.floats(0, 0.999999, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=60)
def test_star_discrepancy_matches_bruteforce(pts):
    assert ex.star_discrepancy_points(pts) == pytest.approx(brute_discrepancy(pts), abs=1e-12)


@given(st.permutations(list(range(8))))
@settings(max_examples=20)
def test_star_discrepancy_permutation_invariant(perm):
    base = [0.03, 0.1, 0.2, 0.33, 0.5, 0.61, 0.8, 0.97]
    shuffled = [base[i] for i in perm]
    assert ex.star_discrepancy_points(shuffled) == ex.star_discrepancy_points(base)


def test_star_discrepancy_op_bounds():
    r = ex.star_discrepancy(1000, "3/2", 1, 7)
    assert 0.0 < r.value <= 1.0
    assert r.n_points == 168


def test_members_overflow_guard():
    with pytest.raises(ex.Overflow):
        ex.members(10**6, "132/10")  # would exceed 2^127


def test_members_reach_up_to_factors_bound():
    # the largest floor, at p = 997, has 127 bits: below 2^127, so it is a member
    ps, vals = ex.members(1000, "127/10")
    assert vals.dtype == object and max(vals).bit_length() == 127
    assert ex.residue_histogram(1000, "127/10", 7).counts == tuple(
        sum(1 for v in vals if v % 7 == s) for s in range(7)
    )
    with pytest.raises(ex.Overflow):
        ex.members(1100, "126/10")  # 128 bits at p = 1097


def test_invalid_args():
    with pytest.raises(OutOfRange):
        ex.almost_prime_census(100, "3/2", 0)
    with pytest.raises(OutOfRange):
        ex.residue_histogram(100, "3/2", 0)


def test_moduli_past_the_table_cap_allocate_nothing(monkeypatch):
    # the cap is checked before the members are built
    monkeypatch.setattr(ex, "members", None)
    caps = Caps(mangoldt_x=1000)
    for d in (1001, 10**30):
        with pytest.raises(RangeTooLarge):
            ex.residue_histogram(100, "3/2", d, caps=caps)
        with pytest.raises(RangeTooLarge):
            ex.level_error(100, "3/2", d, caps=caps)


def test_level_error_caps_its_table_entries():
    # the tables for d <= D hold D (D + 1) / 2 entries in all
    caps = Caps(mangoldt_x=1000)
    assert ex.level_error(2, "3/2", 44, caps=caps).D == 44  # 990 entries
    with pytest.raises(RangeTooLarge):
        ex.level_error(2, "3/2", 45, caps=caps)  # 1035
