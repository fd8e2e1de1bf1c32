#!/usr/bin/env python3
"""Lift a harmonic annulus map to its minimal graph and export the surface.

For each requested initial speed v the extremal map h_v on A(1, R) is lifted
to (u, v, w) coordinates, the slab width and conformality residual are
reported, and the sharp conformal-modulus bound is checked against the
catenoid cap.  Point clouds go to <prefix>_v<value>.csv (columns x,y,z),
ready for any 3-D plotting tool.
"""

import argparse
import csv
import math
import sys

from nitsche_lab import catenoid_modulus, evaluate_rings, lift, modulus_bound_check
from nitsche_lab.nitsche_family import NitscheParams, mean_radii_ratio, nitsche_map


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", type=float, default=2.0)
    ap.add_argument("--speeds", type=float, nargs="+", default=[0.0, 0.5, 0.9])
    ap.add_argument("--n-rho", type=int, default=33)
    ap.add_argument("--n-theta", type=int, default=96)
    ap.add_argument("--prefix", default="surface")
    args = ap.parse_args()

    for v in args.speeds:
        m = nitsche_map(NitscheParams(v=v, R=args.R))
        res = lift(m, n_rho=args.n_rho, n_theta=args.n_theta)
        h = evaluate_rings(m, res.rho_grid, res.theta_grid).value

        path = f"{args.prefix}_v{v:g}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y", "z"])
            w.writerows(zip(h.real.ravel().tolist(), h.imag.ravel().tolist(),
                            res.w.ravel().tolist()))

        ratio = mean_radii_ratio(m)
        holds, slack = modulus_bound_check(math.log(args.R), ratio)
        print(
            f"v={v:g}: width {res.width:.6f} (flat slab cap "
            f"{math.sqrt(max(0.0, 1 - v * v)) * math.log(args.R):.6f}), "
            f"conformality residual {res.conformality_residual:.2e}, "
            f"modulus {math.log(args.R):.6f} <= catenoid cap "
            f"{catenoid_modulus(ratio):.6f} ({'OK' if holds else 'VIOLATED'}, "
            f"slack {slack:.3e}) -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
