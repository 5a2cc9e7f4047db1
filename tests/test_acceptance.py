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
