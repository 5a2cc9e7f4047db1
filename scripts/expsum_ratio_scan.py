#!/usr/bin/env python3
"""Probe how the measured Weyl-sum size tracks its analytic comparator.

The comparator N^(Theta(1-rho)) carries an unknown implied constant, so the
honest check is the ratio |S| / bound across a range of N: it should stay
bounded (and usually decay) as N grows.

Usage: python scripts/expsum_ratio_scan.py [-c 5/2] [--Theta 1] [--Delta 3/10]
"""
import argparse
import json
from fractions import Fraction

from pclab import expsum
from pclab.exactpow import as_ratio


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-c", default="5/2")
    ap.add_argument("--Theta", type=as_ratio, default=Fraction(1))
    ap.add_argument("--Delta", type=as_ratio, default=Fraction(3, 10))
    ap.add_argument("--n-grid", type=int, nargs="*",
                    default=[50, 100, 200, 400, 800, 1600, 3200])
    args = ap.parse_args()

    for n in args.n_grid:
        r = expsum.weyl_sum(args.c, args.Theta, args.Delta, n)
        print(json.dumps({
            "N": n,
            "terms": r.params["terms"],
            "k": r.params["k"],
            "abs_value": round(abs(r.value), 6),
            "bound": round(r.analytic_bound, 3),
            "ratio": round(r.ratio, 6),
        }))


if __name__ == "__main__":
    main()
