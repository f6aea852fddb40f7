#!/usr/bin/env python3
"""Scan the posterior square and report the feasibility-region breakdown.

Writes the labeled grid as CSV (same format as `infodesign region`) and
prints per-label cell counts, which is enough to eyeball nesting: every
ONE_SHOT cell is also block-feasible, so INFEASIBLE shrinks and ONE_SHOT
grows as the channel improves.
"""
import argparse

import numpy as np

from infodesign.cli import write_region_csv
from infodesign.splitting import RegionLabel, region_scan


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=0.5, help="prior of state 1")
    ap.add_argument("--eps", type=float, default=0.25,
                    help="channel flip probability")
    ap.add_argument("--resolution", type=float, default=1.0 / 500)
    ap.add_argument("--out", default="region.csv")
    args = ap.parse_args()

    grid = region_scan(args.p, args.eps, args.resolution)
    counts = np.bincount(grid.labels.ravel(), minlength=len(RegionLabel))

    write_region_csv(args.out, grid)

    total = grid.labels.size
    print(f"p={args.p}  eps={args.eps}  capacity={grid.capacity:.6f}  "
          f"cells={total}")
    for name in ("ONE_SHOT", "BLOCK_ONLY", "INFEASIBLE", "INVALID_SPLIT"):
        n = counts[RegionLabel[name]]
        print(f"{name:<14} {n:>8}  ({100.0 * n / total:.2f}%)")
    feasible = counts[RegionLabel.ONE_SHOT] + counts[RegionLabel.BLOCK_ONLY]
    valid = total - counts[RegionLabel.INVALID_SPLIT]
    if valid:
        print(f"block-feasible share of valid splits: "
              f"{100.0 * feasible / valid:.2f}%")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
