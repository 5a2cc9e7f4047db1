"""The tracer's exact counts, which repeat from run to run (no times are pinned).

  python3 -m pytest perfbench/test_tracer.py
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pclab.cli  # noqa: E402,F401
import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

PI_X = workloads.PI_X


def traced_pass(workload: str, seed: int) -> Tracer:
    tracer = Tracer()
    ops = workloads.BUILDERS[workload](seed)
    with tracer:
        outputs = [op.run() for op in ops]
    assert all(op.check(out) for op, out in zip(ops, outputs))
    return tracer


def test_leaving_the_block_restores_every_name():
    import pclab.exactpow as xp
    import pclab.experiments as ex

    before = (xp.floor_pow, ex.floor_pow, ex.factor_signature, ex.members)
    with Tracer():
        assert ex.factor_signature is not before[2]
        assert ex.factor_signature.__wrapped__ is before[2]
    assert (xp.floor_pow, ex.floor_pow, ex.factor_signature, ex.members) == before


def test_floors_escalations_repeat_and_include_the_den_10000_root():
    a = traced_pass("floors", seed=1)
    b = traced_pass("floors", seed=2)
    ma, mb = a.metrics(), b.metrics()
    assert ma["exactpow.escalations"] == mb["exactpow.escalations"] > 0
    assert a.escalations_by_den == b.escalations_by_den
    assert a.escalations_by_den[10000] == 1
    assert a.slowest_escalation[1] == 3626033
    # members(2e6, 5/2) sends every prime through floor_pow, plus the query batch
    assert ma["exactpow.floor_calls"] == PI_X[2 * 10**6] + workloads.EXACT_QUERIES + workloads.INTERVAL_QUERIES
    assert ma["exactpow.batch_items"] == PI_X[4 * 10**6] + PI_X[2 * 10**6]
    assert ma["factor.signature_calls"] == 0


def test_sums_has_no_escalations():
    m = traced_pass("sums", seed=1).metrics()
    assert m["exactpow.escalations"] == 0
    assert m["exactpow.batch_items"] == 0
    assert m["exactpow.frac_calls"] > 0 and m["exactpow.phase_calls"] == 4 * 10**4
    assert m["expsum.terms"] > 0


def test_census_signature_calls_equal_members():
    m = traced_pass("census", seed=1).metrics()
    # squarefree and almost-prime censuses at x = 1e6 factor every member once
    assert m["factor.signature_calls"] == 2 * PI_X[10**6]
    assert m["factor.prime_calls"] == PI_X[3 * 10**6]
    assert set(m) == {name for name, _ in METRICS}
