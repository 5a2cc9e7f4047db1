#!/usr/bin/env python3
"""Wall time and peak resident memory of one census call, in a fresh process.

Runs `members` or one of the censuses at the given x and c in a child
interpreter that imports pclab and makes that one call, and prints one JSON
line: the call, its inputs, wall seconds of the call and the child's peak
RSS in MB (getrusage, so interpreter and imports included).

Usage: python scripts/peak_memory.py CALL --x 1e8 -c 3/2 [-R 8] [--d 50] [--D 50] [--jobs 1]
CALL is one of members, almost_prime_census, squarefree_census,
ps_prime_count, residue_histogram, level_error.
"""
import argparse
import json
import resource
import subprocess
import sys
import time

CALLS = ("members", "almost_prime_census", "squarefree_census", "ps_prime_count", "residue_histogram",
         "level_error")


def _call(name: str, x: int, c: str, R: int, d: int, D: int, jobs: int):
    from pclab import experiments as ex

    if name == "members":
        return ex.members(x, c)
    if name == "almost_prime_census":
        return ex.almost_prime_census(x, c, R, jobs=jobs)
    if name in ("squarefree_census", "ps_prime_count"):
        return getattr(ex, name)(x, c, jobs=jobs)
    if name == "residue_histogram":
        return ex.residue_histogram(x, c, d)
    return ex.level_error(x, c, D)


def measure(args) -> dict:
    """The call, run in this process: the child's side."""
    import pclab.experiments  # noqa: F401  (imports are not timed)

    t0 = time.perf_counter()
    _call(args.call, int(float(args.x)), args.c, args.R, args.d, args.D, args.jobs)
    wall = time.perf_counter() - t0
    return {
        "call": args.call, "x": args.x, "c": args.c, "wall_s": round(wall, 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("call", choices=CALLS)
    ap.add_argument("--x", default="1e6")
    ap.add_argument("-c", default="3/2")
    ap.add_argument("-R", type=int, default=8)
    ap.add_argument("--d", type=int, default=50)
    ap.add_argument("--D", type=int, default=50)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(args)))
        return
    proc = subprocess.run([sys.executable, __file__, "--child", *sys.argv[1:]], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(proc.stderr.strip() or f"child exited {proc.returncode}")
    print(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    main()
