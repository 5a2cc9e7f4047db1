#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, each in a fresh copy.

For each workload and seed, runs `perfbench/run.py --workload W --seed S
--seconds T` PAIRS times for each of two commits, every run in a fresh
`git archive` copy of its commit; T is the `run_seconds` of PARENT's
BENCHMARK.json. Odd pairs run the parent first and even pairs the change
first. With --null FILE, each pair ends with a null edit: the parent plus
one unused constant appended to FILE, which shows how far an edit that runs
no new code moves the numbers.

Prints one JSON object: the commits, nproc, the versions of python, numpy
and mpmath, and per workload, seed and end-to-end metric every run of each
side in pair order, with its median and quartiles and, for the change and
the null edit, in how many pairs it read lower than the parent.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload suite --seeds 1 2 --pairs 10 [--null FILE]
Run from the root of the repository's checkout; PARENT and CHANGE are any
commits git can name.
"""
import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

NULL_EDIT = "\n_UNUSED = 1 << 24  # a null edit: nothing reads it\n"


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def fresh_copy(commit: str, dest: str) -> None:
    """Extracts `git archive commit` into dest."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")


def _run(commit: str, null_file: str | None, argv: list[str]) -> dict:
    """perfbench/run.py's result line, run in a fresh copy of commit."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        fresh_copy(commit, tmp)
        if null_file:
            with open(Path(tmp) / null_file, "a") as f:
                f.write(NULL_EDIT)
        proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tmp, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py {' '.join(argv)} at {commit} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"runs": [round(v, 4) for v in runs], "median": round(statistics.median(runs), 4),
            "quartiles": [round(q1, 4), round(q3, 4)]}


def _against(runs: list[float], parent: list[float]) -> dict:
    """_summary plus how runs compare with the parent's runs of the same pairs."""
    lower = sum(a < b for a, b in zip(runs, parent))
    shift = statistics.median(runs) / statistics.median(parent) - 1.0
    return {**_summary(runs), "lower": f"{lower} of {len(runs)}", "vs_parent": f"{100 * shift:+.1f} %"}


def measure(parent: str, change: str, workload: str, seed: int, pairs: int, seconds: float,
            null_file: str | None) -> dict:
    """Every run of one workload and seed, and their summaries."""
    copies = {"parent": (parent, None), "change": (change, None)}
    null = ["null"] if null_file else []
    if null_file:
        copies["null"] = (parent, null_file)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    order, results = [], {side: [] for side in copies}
    for k in range(pairs):
        for side in (["parent", "change"] if k % 2 == 0 else ["change", "parent"]) + null:
            print(f"{workload} seed {seed} pair {k + 1}/{pairs}: {side}", file=sys.stderr, flush=True)
            results[side].append(_run(*copies[side], argv))
            order.append(side)
    metrics = {}
    for name, m in results["parent"][0]["metrics"].items():
        runs = {side: [r["metrics"][name]["value"] for r in res] for side, res in results.items()}
        metrics[name] = {"unit": m["unit"], "parent": _summary(runs["parent"]),
                         **{side: _against(runs[side], runs["parent"]) for side in ["change", *null]}}
    return {
        "order": order,
        "attempted": {side: [r["attempted"] for r in res] for side, res in results.items()},
        "failed": {side: [r["failed"] for r in res] for side, res in results.items()},
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--null", metavar="FILE", help="path, from the repository root, of the null edit's file")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    try:
        parent, change = (_git("rev-parse", "--short", c).decode().strip() for c in (args.parent, args.change))
        seconds = json.loads(_git("show", f"{parent}:BENCHMARK.json"))["run_seconds"]
        runs = {w: {str(s): measure(parent, change, w, s, args.pairs, seconds, args.null) for s in args.seeds}
                for w in args.workload}
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        stderr = getattr(exc, "stderr", None)
        print(f"bench_pairs: {exc}" + (f"\n{stderr.decode().strip()}" if stderr else ""), file=sys.stderr)
        return 1
    print(json.dumps({
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}",
        "parent_commit": parent,
        "change_commit": change,
        "null_file": args.null,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "pairs": args.pairs,
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
