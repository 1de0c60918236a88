#!/usr/bin/env python3
"""Survey the elimination pipeline over random rational designs.

Each draw's row is read off one pipeline_report, on fixed numeric squared
radii: the e0*e3 coefficient ratio of the f-free quadric, the rank-drop
epsilon coefficients, whether F2 vanishes, and whether the resultant
chain's common factor gcd(s_i), the square root of the paper's gcd(S_i),
matches F1 * F2: F1 and F2 divide it, and every other factor involving e1
or e2 divides F1 * F2.
The identity platform map is surveyed separately since the ratio is then a
parameter-independent constant.  The script exits 1 with a message if any
row disagrees: a ratio off its closed form, or a chain that does not match.

Usage:
    python scripts/ratio_survey.py --draws 8 --seed 2
"""

import argparse
import random
import sys
from fractions import Fraction

from duporcq.geometry import BaseParams
from duporcq.study import CanonicalDesign, pipeline_report


def random_fraction(rng, lo=-5, hi=5, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_base(rng):
    while True:
        try:
            return BaseParams(random_fraction(rng), random_fraction(rng),
                              random_fraction(rng), random_fraction(rng))
        except ValueError:
            continue


def random_mu(rng):
    while True:
        mu1 = random_fraction(rng, -4, 4, 4)
        mu3 = random_fraction(rng, -4, 4, 4)
        if mu1 != 0 and mu3 != 0:
            return (mu1, random_fraction(rng, -4, 4, 4), mu3)


def report(base, mu=None):
    """pipeline_report of the design on base and mu whose squared radii are
    five draws of their own Random(0), the same for every design."""
    radii_rng = random.Random(0)
    radii = tuple(random_fraction(radii_rng, 1, 6, 4) for _ in range(5))
    return pipeline_report(CanonicalDesign.from_params(base, mu, radii))


def main():
    ap = argparse.ArgumentParser(description="pipeline survey over random designs")
    ap.add_argument("--draws", type=int, default=6)
    ap.add_argument("--seed", type=int, default=2)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    failed = []

    print("identity platform map (ratio must be the constant -8):")
    for k in range(args.draws):
        base = random_base(rng)
        ratio = report(base)["Ke"]["e0e3_ratio"]
        print(f"  draw {k}: base=({base.A4},{base.B4},{base.A5},{base.B5})"
              f"  ratio={ratio}")
        if Fraction(ratio) != -8:
            failed.append(f"identity draw {k}: ratio {ratio}")

    print("general platform map (ratio follows -4*(mu1+mu3)):")
    for k in range(args.draws):
        base = random_base(rng)
        mu = random_mu(rng)
        row = report(base, mu)
        ratio, match = row["Ke"]["e0e3_ratio"], row["chain"]["factors"]["match"]
        ok = "ok" if Fraction(ratio) == -4 * (mu[0] + mu[2]) else "MISMATCH"
        print(f"  draw {k}: mu=({mu[0]},{mu[1]},{mu[2]})  ratio={ratio}"
              f"  [{ok}]  F2=0: {row['F1F2']['F2_identically_zero']}"
              f"  chain: {match}")
        print(f"           eps: {row['T']['epsilons']}")
        if ok != "ok" or not match:
            failed.append(f"general draw {k}: ratio {ok}, chain {match}")

    if failed:
        sys.exit("survey mismatch: " + "; ".join(failed))


if __name__ == "__main__":
    main()
