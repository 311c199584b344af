#!/usr/bin/env python3
"""BD-rate comparison: forest first pass vs white-noise first pass.

For each seed, builds a fixed-QP anchor RD curve from the synthetic
encoder, reruns the two-pass controller at the anchor rates with (a)
the trained forest and (b) the noise first pass, and reports both
BD-rates against the anchor plus the per-frame QP spread.
"""

import argparse

import numpy as np

from intrarc import forest, metrics
from intrarc import ratecontrol as rc
from intrarc import simulator as sim
from intrarc.video_io import VideoGeometry


def rd_point(feats, target, resolution, pixels, params, records):
    cfg = rc.RcConfig(target_bitrate=target, fps_num=30, resolution=resolution)
    decisions, summary = rc.run_second_pass(
        records(cfg), sim.make_encoder(feats, pixels, params), cfg)
    qs = [d.q_prime_p for d in decisions]
    rate = summary["total_bits"] / len(decisions) * 30
    return rate, float(np.mean([sim.sim_psnr(q, params) for q in qs])), float(np.std(qs))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=300)
    ap.add_argument("--train-samples", type=int, default=4000)
    ap.add_argument("--trees", type=int, default=50)
    ap.add_argument("--max-depth", type=int, default=10)
    ap.add_argument("--anchor-qps", default="22,18,14,10")
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    resolution = VideoGeometry(3840, 2160)
    pixels = resolution.pixels
    params = sim.SimParams(kappa=1.0, noise_sigma=0.1)

    print(f"training forest on {args.train_samples} simulated samples ...")
    X, y = sim.generate_dataset(args.train_samples, params, seed=0, pixels=pixels)
    model = forest.train_arrays(X, y, forest.ForestHyperparams(
        n_estimators=args.trees, max_depth=args.max_depth))

    anchor_qs = [int(v) for v in args.anchor_qps.split(",")]
    print(f"{'seed':>4} {'BD forest':>10} {'BD noise':>10} "
          f"{'QP std forest':>14} {'QP std noise':>13}")
    for seed in range(args.seeds):
        feats = sim.random_features(args.frames, np.random.default_rng(100 + seed))
        anchor_pairs, targets = [], []
        for q in anchor_qs:
            rate = float(np.mean([sim.sim_bits(f, q, pixels, params) for f in feats]) * 30)
            anchor_pairs.append((rate, sim.sim_psnr(q, params)))
            targets.append(rate)
        anchor = metrics.RdCurve.from_pairs(anchor_pairs)

        forest_pts = [rd_point(feats, t, resolution, pixels, params,
                               lambda cfg: rc.build_first_pass(feats, model, cfg))
                      for t in targets]
        noise_pts = [rd_point(feats, t, resolution, pixels, params,
                              lambda cfg: rc.build_noise_first_pass(len(feats), cfg,
                                                                    seed=1000 + seed))
                     for t in targets]
        bd_f = metrics.bd_rate(anchor, metrics.RdCurve.from_pairs(
            [(r, p) for r, p, _ in forest_pts]))
        bd_n = metrics.bd_rate(anchor, metrics.RdCurve.from_pairs(
            [(r, p) for r, p, _ in noise_pts]))
        print(f"{seed:>4} {bd_f:>+9.2f}% {bd_n:>+9.2f}% "
              f"{np.mean([s for _, _, s in forest_pts]):>14.2f} "
              f"{np.mean([s for _, _, s in noise_pts]):>13.2f}")


if __name__ == "__main__":
    main()
