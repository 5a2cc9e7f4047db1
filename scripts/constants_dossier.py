#!/usr/bin/env python3
"""Print the full constants dossier over a grid of exponents c >= 11/5.

Per c: sigma, beta, the cubic almost-prime bound with its integer refinement,
the slack of each large-c inequality, and the worst window margins at the
requested eps.

Usage: python scripts/constants_dossier.py [--lo 2.2] [--hi 6] [--steps 20]
"""
import argparse
import json
from fractions import Fraction

from pclab import constants as cn
from pclab.exactpow import as_ratio


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lo", default="11/5")
    ap.add_argument("--hi", default="6")
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--eps", default="1/10000")
    args = ap.parse_args()

    lo, hi = as_ratio(args.lo), as_ratio(args.hi)
    eps = as_ratio(args.eps)
    for i in range(args.steps + 1):
        c = lo + (hi - lo) * Fraction(i, args.steps)
        rc = cn.regime_constants(c)
        rb = cn.r_bound(c)
        slacks = {r.id: round(r.slack, 8) for r in cn.regime_inequalities(c)}
        m = cn.margin_verify(c, eps)
        print(json.dumps({
            "c": float(c),
            "coeff": rc.coeff,
            "sigma": float(rc.sigma),
            "beta": float(rc.beta),
            "r_bound": rb.real_bound,
            "integer_R": rb.integer_R,
            "slacks": slacks,
            "margin_type1": round(m.type1_worst, 8),
            "margin_type2": round(m.type2_worst, 8),
            "margins_ok": m.ok,
        }))


if __name__ == "__main__":
    main()
