#!/usr/bin/env python3
"""Scan the posterior square and report the feasibility-region breakdown.

Writes the labeled grid as CSV (same format as `infodesign region`) and
prints per-label cell counts, which is enough to eyeball nesting: every
ONE_SHOT cell is also block-feasible, so INFEASIBLE shrinks and ONE_SHOT
grows as the channel improves.
"""
import argparse
import collections

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
    names = {int(v): v.name for v in RegionLabel}
    counts = collections.Counter(
        names[int(v)] for v in grid.labels.ravel())

    write_region_csv(args.out, grid)

    total = grid.labels.size
    print(f"p={args.p}  eps={args.eps}  capacity={grid.capacity:.6f}  "
          f"cells={total}")
    for name in ("ONE_SHOT", "BLOCK_ONLY", "INFEASIBLE", "INVALID_SPLIT"):
        n = counts.get(name, 0)
        print(f"{name:<14} {n:>8}  ({100.0 * n / total:.2f}%)")
    feasible = counts.get("ONE_SHOT", 0) + counts.get("BLOCK_ONLY", 0)
    valid = total - counts.get("INVALID_SPLIT", 0)
    if valid:
        print(f"block-feasible share of valid splits: "
              f"{100.0 * feasible / valid:.2f}%")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
