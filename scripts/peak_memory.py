#!/usr/bin/env python3
"""Wall time and peak resident memory of one pclab call, in a fresh process.

Runs `members`, one of the censuses, one of the sums or `margin_verify` at
the given inputs in a child interpreter that imports pclab and makes that
one call, and prints one JSON line: the call, its arguments by name, wall
seconds of the call and the child's peak RSS in MB (getrusage, so
interpreter and imports included). With --set cliffs it runs each input of
CLIFFS, the slow side of every cliff in ROADMAP.md's baseline table, in a
fresh child of its own, one line each.

Usage: python scripts/peak_memory.py CALL --x 1e8 -c 3/2 [-R 8] [--d 50] [--D 50] [--h 1] [--H 4]
           [--theta 1] [--delta 3/10] [--eps 1/1000] [--jobs 1]
       python scripts/peak_memory.py --set cliffs
CALL is one of CALLS. --x is N for weyl_sum, and margin_verify takes only
-c and --eps. pclab is imported from the PYTHONPATH the script is run with.
"""
import argparse
import inspect
import json
import resource
import subprocess
import sys
import time

CALLS = ("members", "almost_prime_census", "squarefree_census", "ps_prime_count", "residue_histogram",
         "level_error", "weyl_sum", "prime_expsum", "triple_sum", "margin_verify")

CLIFFS = (
    ("almost_prime_census", "--x", "1e7", "-c", "11/5", "-R", "4"),
    ("almost_prime_census", "--x", "2.2e5", "-c", "7/2", "-R", "4"),
    ("almost_prime_census", "--x", "3e5", "-c", "7/2", "-R", "1763"),
    ("almost_prime_census", "--x", "2e4", "-c", "9/2", "-R", "4"),
    ("squarefree_census", "--x", "1e7", "-c", "11/5"),
    ("weyl_sum", "--x", "3e5", "-c", "5/2", "--theta", "1", "--delta", "3/10"),
    ("prime_expsum", "--x", "1e6", "-c", "7/2", "--h", "3", "--d", "7"),
    ("triple_sum", "--x", "1e5", "--D", "4", "--H", "4", "-c", "77/10"),
    ("ps_prime_count", "--x", "1e8", "-c", "3/2"),
    ("squarefree_census", "--x", "1e8", "-c", "10521/10000"),
    ("margin_verify", "-c", "1500000", "--eps", "1000000"),
)


def bind(args) -> tuple:
    """(function, its inspect.BoundArguments) of the call args names."""
    from pclab import constants as cn, experiments as ex, expsum as es

    x, c, jobs = int(float(args.x)), args.c, {"jobs": args.jobs}
    fn, pos, kw = {
        "members": (ex.members, (x, c), {}),
        "almost_prime_census": (ex.almost_prime_census, (x, c, args.R), jobs),
        "squarefree_census": (ex.squarefree_census, (x, c), jobs),
        "ps_prime_count": (ex.ps_prime_count, (x, c), jobs),
        "residue_histogram": (ex.residue_histogram, (x, c, args.d), {}),
        "level_error": (ex.level_error, (x, c, args.D), {}),
        "weyl_sum": (es.weyl_sum, (c, args.theta, args.delta, x), {}),
        "prime_expsum": (es.prime_expsum, (x, c, args.h, args.d), {}),
        "triple_sum": (es.triple_sum, (x, args.D, args.H, c), {}),
        "margin_verify": (cn.margin_verify, (c, args.eps), {}),
    }[args.call]
    return fn, inspect.signature(fn).bind(*pos, **kw)


def measure(args) -> dict:
    """The call, run in this process: the child's side."""
    fn, bound = bind(args)  # imports are not timed
    t0 = time.perf_counter()
    fn(*bound.args, **bound.kwargs)
    wall = time.perf_counter() - t0
    return {
        "call": args.call, "args": dict(bound.arguments), "wall_s": round(wall, 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2),
    }


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("call", nargs="?", choices=CALLS)
    ap.add_argument("--set", choices=("cliffs",), help="run every input of CLIFFS instead of one call")
    ap.add_argument("--x", default="1e6")
    ap.add_argument("-c", default="3/2")
    ap.add_argument("-R", type=int, default=8)
    ap.add_argument("--d", type=int, default=50)
    ap.add_argument("--D", type=int, default=50)
    ap.add_argument("--h", type=int, default=1)
    ap.add_argument("--H", type=int, default=4)
    ap.add_argument("--theta", default="1")
    ap.add_argument("--delta", default="3/10")
    ap.add_argument("--eps", default="1/1000")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap


def _run_child(argv) -> str:
    proc = subprocess.run([sys.executable, __file__, "--child", *argv], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(proc.stderr.strip() or f"child exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def main():
    ap = parser()
    args = ap.parse_args()
    if (args.call is None) == (args.set is None):
        ap.error("give either CALL or --set")
    if args.child:
        print(json.dumps(measure(args)))
    elif args.set:
        for argv in CLIFFS:
            print(_run_child(argv), flush=True)
    else:
        print(_run_child(sys.argv[1:]))


if __name__ == "__main__":
    main()
