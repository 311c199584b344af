#!/usr/bin/env python3
"""Closed-loop rate-control accuracy sweep against the synthetic encoder.

Trains a bits estimator on simulated data, then drives the two-pass
controller at several target rates with three first-pass variants
(oracle law, trained forest, white noise) and prints the bitrate
deviation and QP statistics for each run.
"""

import argparse

import numpy as np

from intrarc import forest
from intrarc import ratecontrol as rc
from intrarc import simulator as sim
from intrarc.video_io import VideoGeometry


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=300)
    ap.add_argument("--train-samples", type=int, default=4000)
    ap.add_argument("--trees", type=int, default=50)
    ap.add_argument("--max-depth", type=int, default=10)
    ap.add_argument("--noise-sigma", type=float, default=0.1)
    ap.add_argument("--resolution", default="3840x2160")
    ap.add_argument("--target-qps", default="20,25,30,35",
                    help="fixed QPs whose simulated rates become the targets")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    w, h = (int(v) for v in args.resolution.split("x"))
    resolution = VideoGeometry(w, h)
    pixels = resolution.pixels
    noisy = sim.SimParams(kappa=1.0, noise_sigma=args.noise_sigma)
    clean = sim.SimParams(kappa=1.0)

    print(f"training forest on {args.train_samples} simulated samples ...")
    X, y = sim.generate_dataset(args.train_samples, noisy, seed=args.seed, pixels=pixels)
    model = forest.train_arrays(X, y, forest.ForestHyperparams(
        n_estimators=args.trees, max_depth=args.max_depth, seed=args.seed))

    feats = sim.random_features(args.frames, np.random.default_rng(args.seed + 1))
    encoder = sim.make_encoder(feats, pixels, noisy)
    oracle = sim.make_oracle_predictor(pixels, clean)

    print(f"{'target q':>9} {'rate [bit/s]':>14} {'variant':>8} "
          f"{'deviation':>10} {'mean QP':>8} {'QP std':>7}")
    for q in (int(v) for v in args.target_qps.split(",")):
        target = float(np.mean([sim.expected_bits(f, q, pixels, clean) for f in feats]) * 30)
        cfg = rc.RcConfig(target_bitrate=target, fps_num=30, resolution=resolution)
        runs = {
            "oracle": rc.build_first_pass(feats, oracle, cfg),
            "forest": rc.build_first_pass(feats, model, cfg),
            "noise": rc.build_noise_first_pass(args.frames, cfg, seed=args.seed),
        }
        for name, records in runs.items():
            decisions, summary = rc.run_second_pass(records, encoder, cfg)
            qs = [d.q_prime_p for d in decisions]
            print(f"{q:>9} {target:>14.3e} {name:>8} "
                  f"{100 * summary['bitrate_deviation']:>+9.3f}% "
                  f"{summary['mean_qp']:>8.2f} {np.std(qs):>7.2f}")


if __name__ == "__main__":
    main()
