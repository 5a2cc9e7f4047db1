"""One fresh interpreter: set up pclab, then run timed passes over one workload.

Run by ``run.py``; prints one JSON object on its last stdout line.

  worker.py --workload W --spawned-at T --setup-only
  worker.py --workload W --spawned-at T --seed S --seconds N --trace 0|1

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes of the machine), so
``setup_s`` covers interpreter start, ``import pclab.cli`` and the warm-up.

A pass runs every op of the workload once and times each; the ops' outputs
are checked after the pass.  Passes repeat while the next one should end
within ``--seconds``; there is always at least one.  With ``--trace 1``
untraced and traced passes alternate, and the traced ones feed the
per-layer counters.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _setup(workload: str, spawned_at: float) -> dict:
    t0 = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    import pclab.cli  # noqa: F401  (the whole package, as the command line loads it)

    t1 = time.monotonic()
    workloads.warm_up(workload)
    t2 = time.monotonic()
    return {"setup_s": t2 - spawned_at, "import_s": t1 - t0, "warm_s": t2 - t1}


def _run_pass(ops, tracer=None) -> tuple[list[float], list[float], list]:
    """(raw op times, op times at the reference speed, outputs) of one pass."""
    times, scaled, outputs = [], [], []
    before = speed.kernel_s()
    with tracer or contextlib.nullcontext():
        for op in ops:
            with speed.Sampler() as sampler:
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a failing op is counted, not fatal
                    out = exc
                dt = time.perf_counter() - t0 - sampler.spent
            after = speed.kernel_s()
            times.append(dt)
            scaled.append(speed.scaled(dt, [before, after, *sampler.samples]))
            outputs.append(out)
            before = after
    return times, scaled, outputs


def _failures(ops, outputs) -> list[str]:
    failed = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failed.append(f"{op.name}: raised {type(out).__name__}: {out}")
            continue
        try:
            if not op.check(out):
                failed.append(f"{op.name}: output failed its check")
        except Exception as exc:
            failed.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
    return failed


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup = _setup(args.workload, args.spawned_at)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    ops = workloads.BUILDERS[args.workload](args.seed)
    untraced, traced, failed = [], [], []
    op_names = [op.name for op in ops]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracing = bool(args.trace) and len(traced) < len(untraced)
        tracer = Tracer() if tracing else None
        times, scaled, outputs = _run_pass(ops, tracer)
        failed += _failures(ops, outputs)
        del outputs
        (traced if tracing else untraced).append({"times": times, "scaled": scaled, "tracer": tracer})
        # start another pass only if it should end within --seconds
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds and (not args.trace or traced):
            break

    result = {
        "setup": setup,
        "ops": op_names,
        "passes": [p["scaled"] for p in untraced],
        "raw_passes": [p["times"] for p in untraced],
        "attempted": len(ops) * (len(untraced) + len(traced)),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        per_pass = []
        for p in traced:
            m = p["tracer"].metrics()
            for name, t in zip(op_names, p["times"]):
                if name.startswith("criterion_"):
                    m[f"acceptance.{name}_s"] = t
            m["trace.wall_s"] = sum(p["scaled"])
            per_pass.append(m)
        result["traced"] = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
