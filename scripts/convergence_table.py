#!/usr/bin/env python3
"""Tabulate how the tilt approximation tightens as the pole ratio drops.

For each slope, prints the max in-band magnitude error against w^alpha and
the max phase error against alpha*pi/2 for a sequence of spacing ratios.
Both columns should fall monotonically as r -> 1.
"""

import argparse

from spectilt import BandSpec, conjecture_convergence


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", type=float, nargs="+", default=[-0.5, 0.5, -0.2])
    parser.add_argument("--ratios", type=float, nargs="+", default=[2.0, 1.5, 1.2, 1.1])
    parser.add_argument("--fmin", type=float, default=20.0)
    parser.add_argument("--fmax", type=float, default=20000.0)
    args = parser.parse_args()

    band = BandSpec(args.fmin, args.fmax)
    for alpha in args.alphas:
        print(f"alpha = {alpha:+.3f}")
        print(f"  {'r':>6}  {'max |mag err|':>14}  {'max |phase err|':>16}")
        rows = conjecture_convergence(alpha, args.ratios, band)
        for r, mag_err, phase_err in rows:
            print(f"  {r:6.3f}  {mag_err:14.6e}  {phase_err:16.6e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
