#!/usr/bin/env python3
"""Trace the two-parameter self-motion of the worked hexapod to CSV.

Samples the motion over a grid of rotation directions, closes every leg at
each pose, and writes one row per sample with the direction parameters, the
normalized pose, the translation vector, and the six leg residuals.

Usage:
    python scripts/trace_trajectory.py --n1 8 --n2 16 --out motion.csv
"""

import argparse

from duporcq.geometry import duporcq_hexapod, worked_design
from duporcq.selfmotion import trajectory, write_trajectory


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n1", type=int, default=6, help="latitude grid count")
    ap.add_argument("--n2", type=int, default=12, help="longitude grid count")
    ap.add_argument("--out", default="motion.csv")
    args = ap.parse_args()
    if args.n1 < 1 or args.n2 < 1:
        ap.error("--n1 and --n2 must be at least 1")

    hexapod = duporcq_hexapod(worked_design())
    rows = trajectory(hexapod, n1=args.n1, n2=args.n2)
    write_trajectory(rows, args.out)

    worst = max(max(abs(v) for v in row[11:]) for row in rows)
    print(f"wrote {len(rows)} samples to {args.out}")
    print(f"worst leg residual: {worst:.3e}")


if __name__ == "__main__":
    main()
