"""Acceptance gate: one test per criterion, one printed line per criterion.

Criteria 3 and 13 encode quoted target windows that the exactly-evaluated
inequality systems do not meet (see the assertion messages); they are
implemented faithfully and left to fail rather than loosened.
"""
import json

import pytest

from pclab import acceptance as ac

_RESULTS = {}


def _results():
    if not _RESULTS:
        for r in ac.run_criteria(jobs=1):
            _RESULTS[r.cid] = r
    return _RESULTS


def _report(cid):
    r = _results()[cid]
    status = "PASS" if r.passed else "FAIL"
    print(f"ACCEPTANCE {cid:02d} {status} ({r.elapsed_s:.2f}s) {r.title}: "
          f"{json.dumps(r.values, default=str)[:240]}")
    return r


@pytest.mark.parametrize("cid", [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_criterion(cid):
    r = _report(cid)
    assert r.passed, r.values


def test_criterion_03_thresholds():
    r = _report(3)
    assert r.passed, (
        "the bilinear thresholds land in [2.196, 2.200] as demanded, but the "
        "narrow-window inequality (id 3.2) already holds on [1.5, 2.2] with its "
        "true crossing near 1.42, so no threshold in [2.079, 2.083] exists: "
        f"{r.values}"
    )


def test_criterion_13_margins():
    r = _report(13)
    assert r.passed, (
        "margins pass at c in {2.2, 2.5} and the minorant grids check out, but "
        "at eps = 1e-3 the window corner margin is negative for c in {3, 5} "
        "(it turns positive for every listed c once eps <= ~2e-4, see "
        "test_constants.test_margin_verify_small_eps_large_c): "
        f"{r.values}"
    )


def test_criterion_14_determinism():
    a = _results()  # jobs=1 pass, reused
    b = {r.cid: r for r in ac.run_criteria(jobs=4)}
    pa = ac.payload_text(list(a.values()))
    pb = ac.payload_text(list(b.values()))
    ok = pa == pb
    print(f"ACCEPTANCE 14 {'PASS' if ok else 'FAIL'} determinism across --jobs 1/4")
    assert ok


def test_budget_fails_the_criterion_but_not_determinism():
    fast = ac.CriterionResult(1, "t", True, {"v": 1}, elapsed_s=0.5, budget_s=1.0)
    slow = ac.CriterionResult(1, "t", True, {"v": 1}, elapsed_s=2.0, budget_s=1.0)
    assert fast.passed and not slow.passed
    assert ac.payload_text([fast]) == ac.payload_text([slow])
    assert fast.report() == {"pass": True, "v": 1}
    assert slow.report() == {"pass": False, "v": 1, "runtime_budget_exceeded": True, "budget_s": 1.0}


def test_compare_chunk_counts_each_planted_mismatch():
    om, sf = ac._omega_oracle(1000)
    lo, hi = 100, 230

    def chunk():
        return lo, hi, om[lo:hi].copy(), sf[lo:hi].copy()

    assert ac._compare_chunk(chunk()) == 0
    # plant one change at the chunk's first n and one at its last
    args = chunk()
    args[2][0] += 1
    args[3][-1] = not args[3][-1]
    assert ac._compare_chunk(args) == 2


# criteria 3 and 13 as recorded before their minorants were built from
# integer numerators; both are red (see the tests above), so their values,
# not their verdicts, carry the check
_PINNED_PAYLOADS = {
    3: '[{"criterion":3,"title":"inequality thresholds 2.081 / 2.198","values":{'
       '"max_33_34":2.1973484848484848,"ok_32":false,"ok_33_34":true,"threshold_32":null,'
       '"threshold_32_actual":1.4194444444444445,"threshold_32_note":"3.2 already holds on [1.5, 2.2]",'
       '"threshold_33":2.1640151515151516,"threshold_34":2.1973484848484848},"verdict":false}]',
    13: '[{"criterion":13,"title":"window margin argument and minorant grids","values":{'
        '"2.2":{"minorant1_ok":false,"minorant2_ok":false,"ok":true,'
        '"type1_worst":0.00033923915329999663,"type2_worst":0.0038511650498562157},'
        '"2.5":{"minorant1_ok":false,"minorant2_ok":false,"ok":true,'
        '"type1_worst":1.5388412041307624e-05,"type2_worst":0.0028630078413348376},'
        '"3":{"minorant1_ok":false,"minorant2_ok":false,"ok":false,'
        '"type1_worst":-0.0003568285861213244,"type2_worst":-0.0005016324443455054},'
        '"5":{"minorant1_ok":false,"minorant2_ok":false,"ok":false,'
        '"type1_worst":-0.0006449222246330383,"type2_worst":-0.001678518067189767},'
        '"f1_grid_increasing":true,"f2_grid_unimodal":true},"verdict":false}]',
}


@pytest.mark.parametrize("cid", sorted(_PINNED_PAYLOADS))
def test_red_criteria_payloads_are_pinned(cid):
    _, title, fn, _ = ac._CRITERIA[cid - 1]
    verdict, values = fn(ac.LabContext())
    got = ac.payload_text([ac.CriterionResult(cid, title, bool(verdict), values)])
    assert got == _PINNED_PAYLOADS[cid]


def _cos_sin_sum(terms):
    """sum w e(t) over (w, t) in order, from separate cos and sin at 60 digits."""
    import mpmath as mp

    with mp.workdps(60):
        re, im = mp.mpf(0), mp.mpf(0)
        for w, t in terms:
            fr = t - mp.floor(t)
            re += w * mp.cos(2 * mp.pi * fr)
            im += w * mp.sin(2 * mp.pi * fr)
        return re, im


def test_oracles_match_a_cos_sin_evaluation():
    import mpmath as mp

    from pclab.primes import mangoldt_table, primes_in
    from pclab.prng import pm1_weights

    with mp.workdps(60):
        c = mp.mpf(11) / 5
        re, im = _cos_sin_sum((1, mp.mpf(p) ** c * 3 / 7) for p in reversed(primes_in(0, 2000).tolist()))
        want_prime = complex(float(re), float(im))

        c = mp.mpf(10521) / 10000
        w = pm1_weights(42, 2 + 8 + 5)
        cd, am, bl = w[:2], w[2:10], w[10:]
        re, im = _cos_sin_sum(
            (cd[di] * am[mi] * bl[li], mp.mpf((6 + li) * (9 + mi)) ** c / (3 + di))
            for di in range(1, -1, -1) for mi in range(7, -1, -1) for li in range(4, -1, -1)
        )
        want_trilinear = complex(float(re), float(im))

        c, scale = mp.mpf(5) / 2, mp.mpf(100) ** (mp.mpf(3) / 10)
        re, im = _cos_sin_sum((1, mp.mpf(z) ** c * scale) for z in range(200, 100, -1))
        want_weyl = complex(float(re), float(im))

        c = mp.mpf(3) / 2
        table = mangoldt_table(200)
        sel = (table.ns > 100) & (table.ns <= 200)
        pairs = list(zip(table.ns[sel].tolist(), table.ps[sel].tolist()))[::-1]
        total = mp.mpf(0)
        for h in (2, 1):
            for dd in (4, 3):
                re, im = _cos_sin_sum((mp.log(p), mp.mpf(n) ** c * h / dd) for n, p in pairs)
                total += mp.sqrt(re * re + im * im)
        want_triple = float(total)

    # the oracles return doubles, so 1e-40 asks for the same double
    assert abs(ac._oracle_prime(2000, "11/5", 3, 7) - want_prime) <= 1e-40
    assert abs(ac._oracle_trilinear(2, 8, 5, 1, "10521/10000", 42) - want_trilinear) <= 1e-40
    assert abs(ac._oracle_weyl("5/2", ac.F(1), ac.F(3, 10), 100) - want_weyl) <= 1e-40
    assert abs(ac._oracle_triple(100, 2, 2, "3/2") - want_triple) <= 1e-40


def test_oracle_kernel_matches_100_digits(monkeypatch):
    """Seeded terms of each oracle, as the oracle hands them to _oracle_sum:
    the kernel's u / 2^K is frac(t) to 2^-150 and its cos and sin ints are
    those of 2 pi u / 2^K to 2^-190, both against mpmath at 100 digits."""
    import random

    import mpmath as mp

    from pclab.primes import mangoldt_table, primes_in

    calls = []
    kernel_sum = ac._oracle_sum

    def spy(weights, phases):
        phases = list(phases)
        calls.append(phases)
        return kernel_sum(weights, phases)

    monkeypatch.setattr(ac, "_oracle_sum", spy)
    ac._oracle_weyl("5/2", ac.F(1), ac.F(3, 10), 100)
    ac._oracle_prime(2000, "11/5", 3, 7)
    ac._oracle_trilinear(2, 8, 5, 1, "10521/10000", 42)
    ac._oracle_triple(100, 2, 2, "3/2")

    with mp.workdps(100):
        # the exact phases, in the order each oracle builds its terms
        c, scale = mp.mpf(5) / 2, mp.mpf(100) ** (mp.mpf(3) / 10)
        want = [[mp.mpf(z) ** c * scale for z in range(101, 201)]]
        c = mp.mpf(11) / 5
        want.append([mp.mpf(p) ** c * 3 / 7 for p in primes_in(0, 2000).tolist()])
        c = mp.mpf(10521) / 10000
        want.append([mp.mpf((6 + li) * (9 + mi)) ** c / (3 + di)
                     for di in range(2) for mi in range(8) for li in range(5)])
        c = mp.mpf(3) / 2
        table = mangoldt_table(200)
        ns = table.ns[(table.ns > 100) & (table.ns <= 200)].tolist()
        want += [[mp.mpf(n) ** c * h / dd for n in ns] for h in (1, 2) for dd in (3, 4)]

        K = ac._K
        rng = random.Random(33)
        assert [len(p) for p in calls] == [len(w) for w in want]
        for phases, exact in zip(calls, want):
            for i in rng.sample(range(len(phases)), 10):
                ((u, cos, sin),) = ac._oracle_terms([phases[i]])
                assert abs(mp.mpf(u) / 2**K - (exact[i] - mp.floor(exact[i]))) <= mp.mpf(2) ** -150
                x = 2 * mp.pi * u / mp.mpf(2) ** K
                assert abs(mp.mpf(cos) / 2**K - mp.cos(x)) <= mp.mpf(2) ** -190
                assert abs(mp.mpf(sin) / 2**K - mp.sin(x)) <= mp.mpf(2) ** -190


def test_oracle_doubles_at_criterion_12_inputs_are_pinned():
    # the values of the oracles that summed mpf objects in reverse order
    assert ac._oracle_weyl("5/2", ac.F(1), ac.F(3, 10), 100) == complex(8.717720875460325, -2.782616669095284)
    assert ac._oracle_prime(10**5, "11/5", 3, 7) == complex(-53.369652769378696, 36.04137283555502)
    assert ac._oracle_trilinear(8, 32, 32, 1, "10521/10000", 42) == complex(110.06898636056344, -45.72481056151701)
    assert ac._oracle_triple(100, 2, 2, "3/2") == 160.29633517358693
