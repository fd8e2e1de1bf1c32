#!/usr/bin/env python3
"""Sweep the sharp radius bound margin sqrt(U(rho)) - (rho + 1/rho)/2.

Charts three families side by side:
  * the extremal family h_v for several initial speeds v (margin >= 0,
    identically 0 at v = 0),
  * the energy minimizers for targets above and at the existence bound,
  * the logarithmic counterexample, whose margin turns negative even though
    it passes the first two inner-circle conditions.

Writes one tidy CSV (family, parameter, rho, margin) for plotting.
"""

import argparse
import csv
import sys

import numpy as np

from nitsche_lab.nitsche_family import (
    NitscheParams,
    bound_margin,
    energy_minimizer,
    example_51_map,
    nitsche_map,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", type=float, default=20.0, help="outer radius of the domain")
    ap.add_argument("--steps", type=int, default=120, help="rho samples per family")
    ap.add_argument("--out", default="margin_sweep.csv")
    args = ap.parse_args()

    rows = []
    rhos = np.linspace(1.0, 0.99 * args.R, args.steps)

    def sweep(family, parameter, m, grid):
        rows.extend((family, parameter, r, mg)
                    for r, mg in zip(grid.tolist(), bound_margin(m, grid).tolist()))

    for v in (0.0, 0.25, 0.5, 0.9):
        sweep("extremal", v, nitsche_map(NitscheParams(v=v, R=args.R)), rhos)
    for R_star in (1.25, 1.5, 2.0):
        sweep("minimizer", R_star, energy_minimizer(2.0, R_star),
              np.linspace(1.0, 1.99, args.steps))
    for a in (0.3, 0.5, 0.7):
        sweep("log_example", a, example_51_map(a, R=args.R), rhos)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "parameter", "rho", "margin"])
        w.writerows(rows)

    neg = [(f, p, r) for f, p, r, mg in rows if mg < -1e-12]
    first = min(neg, key=lambda t: t[2]) if neg else None
    print(f"wrote {len(rows)} rows to {args.out}")
    if first:
        print(f"first negative margin: family={first[0]} parameter={first[1]} rho={first[2]:.4f}")
    else:
        print("no negative margins in the sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
