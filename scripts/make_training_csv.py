#!/usr/bin/env python3
"""Emit a synthetic training table in the bits-estimator CSV schema.

Stands in for ground-truth (features, QP, bits) rows collected from
real encodes; useful for demos and for exercising the training CLI.
"""

import argparse

from intrarc import forest
from intrarc import simulator as sim


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="train.csv")
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--pixels", type=int, default=3840 * 2160,
                    help="frame pixel count the rate law is scaled to")
    ap.add_argument("--kappa", type=float, default=1.0)
    ap.add_argument("--noise-sigma", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = sim.SimParams(kappa=args.kappa, noise_sigma=args.noise_sigma, seed=args.seed)
    X, y = sim.generate_dataset(args.samples, params, seed=args.seed, pixels=args.pixels)
    forest.write_training_csv(args.out, X, y)
    print(f"wrote {len(y)} rows to {args.out}")


if __name__ == "__main__":
    main()
