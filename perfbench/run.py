"""pclab benchmark driver.

  python3 perfbench/run.py --workload census|floors|sums|suite|all \
      --seed N --seconds S --trace 0|1

Run from the root of a pclab checkout; the package is imported from ``src/``.
Every workload runs single-process (``jobs=1``) in fresh interpreters:
``SETUP_SAMPLES`` interpreters that only set up, then one that sets up and
runs timed passes over the workload's ops for ``--seconds``.  Every op's
output is checked.  Times are scaled to a reference machine speed (see
``speed.py``); the raw times are printed alongside.  The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``.
``--workload all`` runs the four workloads in turn and prefixes each metric
with its workload's name.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = tuple(workloads.BUILDERS)

# fresh interpreters that only set up; setup_s is their median
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_op_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _worker(workload: str, extra: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _setup_sample(workload: str) -> dict:
    """One set-up in a fresh interpreter, also scaled to the reference speed."""
    before = speed.spawn_s()
    setup = _worker(workload, ["--setup-only"], 60.0)["setup"]
    setup["scaled_s"] = speed.scaled(setup["setup_s"], [before, speed.spawn_s()], speed.REFERENCE_SPAWN_S)
    return setup


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, list[str]]:
    """(metrics, attempted, failure messages) of one workload."""
    setups = [_setup_sample(workload) for _ in range(SETUP_SAMPLES)]
    res = _worker(workload, ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                  WORKER_TIMEOUT_S)

    # each op's median over the passes; a pass is the sum of its ops
    op_medians = [statistics.median(times) for times in zip(*res["passes"])]
    raw_medians = [statistics.median(times) for times in zip(*res["raw_passes"])]
    wall_s = sum(op_medians)
    if trace:
        values = dict(res["traced"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.warm_s"] = statistics.median(s["warm_s"] for s in setups)
        values["trace.overhead_s"] = values.pop("trace.wall_s") - wall_s
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in tracer.METRICS}
    else:
        values = {
            "setup_s": statistics.median(s["scaled_s"] for s in setups),
            "wall_s": wall_s,
            "slowest_op_s": max(op_medians),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    # per-op medians, raw and scaled, and the error rate, for people reading the output
    print(f"{workload}  raw setup {statistics.median(s['setup_s'] for s in setups):.4f} s, "
          f"raw wall {sum(raw_medians):.4f} s, {len(res['passes'])} passes")
    for name, median, raw in zip(res["ops"], op_medians, raw_medians):
        print(f"{workload}  op {name:<36} {median:10.4f} s  (raw {raw:.4f} s)")
    failed = res["failed"]
    for msg in failed:
        print(f"{workload}  FAILED {msg}")
    print(f"{workload}  error_rate {len(failed) / res['attempted']:.4f}  ({len(failed)}/{res['attempted']} ops)")
    for name, m in metrics.items():
        print(f"{workload}  {name} {m['value']:.6g} {m['unit']}")
    return metrics, res["attempted"], failed


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="pclab benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pclab" / "__init__.py").is_file():
        print(f"no pclab sources under {ROOT / 'src'}; run from a pclab checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, n, f = run_workload(name, args.seed, args.seconds, bool(args.trace))
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += n
            failed += len(f)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
