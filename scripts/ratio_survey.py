#!/usr/bin/env python3
"""Survey the elimination pipeline over random rational designs.

For each draw the script reports the e0*e3 coefficient ratio of the f-free
quadric, the rank-drop epsilon coefficients, whether F2 vanishes, and whether
the resultant chain's common factor gcd(s_i), the square root of the paper's
gcd(S_i), matches F1 * F2: F1 and F2 divide it, and every other factor
involving e1 or e2 divides F1 * F2.
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
from duporcq.study import (
    CanonicalDesign,
    compute_Ke,
    e0e3_ratio,
    f1_f2,
    rank_drop_T,
    resultant_chain,
)


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


def survey_row(design, mu):
    ke = compute_Ke(design)
    ratio = e0e3_ratio(ke, design)
    td = rank_drop_T(design)
    _, f2 = f1_f2(design)
    radii_rng = random.Random(0)
    radii = tuple(random_fraction(radii_rng, 1, 6, 4) for _ in range(5))
    numeric = CanonicalDesign(design.A4, design.B4, design.A5, design.B5,
                              design.mu1, design.mu2, design.mu3, radii)
    chain = resultant_chain(compute_Ke(numeric), rank_drop_T(numeric).T, numeric)
    return {
        "ratio": ratio,
        "expected": -4 * (mu[0] + mu[2]),
        "eps": {k: str(v) for k, v in td.epsilons.items()},
        "f2_zero": f2.is_zero(),
        "chain_match": chain.factor_match,
    }


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
        design = CanonicalDesign.from_params(base)
        ratio = e0e3_ratio(compute_Ke(design), design)
        print(f"  draw {k}: base=({base.A4},{base.B4},{base.A5},{base.B5})"
              f"  ratio={ratio}")
        if ratio != -8:
            failed.append(f"identity draw {k}: ratio {ratio}")

    print("general platform map (ratio follows -4*(mu1+mu3)):")
    for k in range(args.draws):
        base = random_base(rng)
        mu = random_mu(rng)
        design = CanonicalDesign.from_params(base, mu=mu)
        row = survey_row(design, mu)
        ok = "ok" if row["ratio"] == row["expected"] else "MISMATCH"
        print(f"  draw {k}: mu=({mu[0]},{mu[1]},{mu[2]})  ratio={row['ratio']}"
              f"  [{ok}]  F2=0: {row['f2_zero']}  chain: {row['chain_match']}")
        print(f"           eps: {row['eps']}")
        if ok != "ok" or not row["chain_match"]:
            failed.append(f"general draw {k}: ratio {ok}, "
                          f"chain {row['chain_match']}")

    if failed:
        sys.exit("survey mismatch: " + "; ".join(failed))


if __name__ == "__main__":
    main()
