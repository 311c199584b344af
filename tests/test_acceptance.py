"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion (a failing criterion shows up as a pytest failure).
Expensive artifacts (the 10k synthetic dataset and the trained forests)
are session fixtures shared across criteria.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from intrarc import cli, forest, metrics
from intrarc import features as feat
from intrarc import ratecontrol as rc
from intrarc import simulator as sim
from intrarc import video_io as vio
from intrarc.features import FrameFeatures
from intrarc.video_io import VideoGeometry

from conftest import flat_frame, make_frame
from test_features import naive_block_energy

RES_4K = VideoGeometry(3840, 2160)
PIXELS = RES_4K.pixels
NOISY = sim.SimParams(kappa=1.0, noise_sigma=0.1)
CLEAN = sim.SimParams(kappa=1.0)


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="session")
def dataset_10k():
    X, y = sim.generate_dataset(10_000, NOISY, seed=7, pixels=PIXELS)
    perm = np.random.default_rng(0).permutation(10_000)
    test_idx, train_idx = perm[:2_000], perm[2_000:]
    return X, y, train_idx, test_idx


@pytest.fixture(scope="session")
def model_depth12(dataset_10k):
    X, y, train_idx, _ = dataset_10k
    return forest.train_arrays(X[train_idx], y[train_idx], forest.ForestHyperparams())


@pytest.fixture(scope="session")
def depth_sweep(tmp_path_factory, dataset_10k, model_depth12):
    """Models at depth 4/8/12 on the same training split, with file sizes."""
    X, y, train_idx, _ = dataset_10k
    out = tmp_path_factory.mktemp("depths")
    models, sizes = {12: model_depth12}, {}
    for depth in (4, 8):
        models[depth] = forest.train_arrays(
            X[train_idx], y[train_idx], forest.ForestHyperparams(max_depth=depth)
        )
    for depth, model in models.items():
        sizes[depth] = forest.save(model, str(out / f"d{depth}.ircf"))
    return models, sizes


def test_criterion_1_equation_fidelity():
    start = time.perf_counter()
    cfg = rc.RcConfig(target_bitrate=1e6, fps_num=30, resolution=RES_4K)
    # identity: b' = b_hat and q_p >= q_start reproduces q_p exactly
    for q_p in (24, 32, 50, 63):
        q_bar, q_prime = rc.map_qp(rc.FirstPassRecord(0, q_p, 5000.0), 5000.0, cfg)
        assert abs(q_bar - q_p) <= 1e-9
        assert q_prime == q_p
    # q = 36, c_low = 1, target halved: q_bar = 36 + 6 = 42
    q_bar, q_prime = rc.map_qp(rc.FirstPassRecord(0, 36, 8000.0), 4000.0, cfg)
    assert abs(q_bar - 42.0) <= 1e-9
    assert q_prime == 42
    # q_bar = 20 at 2160p (c_high = 0.5): round(20 + 0.5 * 4) = 22
    q_bar, q_prime = rc.map_qp(rc.FirstPassRecord(0, 20, 5000.0), 5000.0, cfg)
    assert abs(q_bar - 20.0) <= 1e-9
    assert q_prime == 22
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"Eq.3-4 vectors exact (identity, 36->42, 20->22) in {elapsed * 1e3:.1f} ms")


def test_criterion_2_pinned_constants(tmp_path):
    cfg = rc.RcConfig(target_bitrate=1e6, fps_num=30, resolution=RES_4K)
    assert cfg.q_start == 24
    assert rc.c_high_for(VideoGeometry(3840, 2160)) == 0.5
    assert rc.c_high_for(VideoGeometry(854, 480)) == 0.25
    hp = forest.ForestHyperparams()
    assert (hp.n_estimators, hp.max_depth, hp.min_samples_leaf,
            hp.min_samples_split, hp.seed) == (100, 12, 1, 2, 0)

    # manifest inspection through the CLI with stock flags
    train_csv = tmp_path / "train.csv"
    forest.write_training_csv(str(train_csv), *sim.generate_dataset(400, NOISY, seed=5))
    model_path = tmp_path / "model.ircf"
    assert cli.main(["train", "--data", str(train_csv), "--out", str(model_path)]) == 0
    manifest = json.loads((tmp_path / "model.ircf.manifest.json").read_text())
    assert manifest["config"]["n_estimators"] == 100
    assert manifest["config"]["max_depth"] == 12
    assert manifest["config"]["min_samples_leaf"] == 1
    assert manifest["config"]["min_samples_split"] == 2
    assert manifest["seeds"]["seed"] == 0

    feats = sim.random_features(5, np.random.default_rng(1))
    feats_csv = tmp_path / "f.csv"
    feat.write_features_csv(str(feats_csv), feats)
    trace = tmp_path / "t.csv"
    assert cli.main(["rc", "--features", str(feats_csv), "--first-pass", "noise",
                     "--bitrate", "1e6", "--resolution", "3840x2160",
                     "--trace", str(trace)]) == 0
    rc_manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert rc_manifest["config"]["q_start"] == 24
    assert rc_manifest["config"]["c_high"] == 0.5
    report(2, "q_start=24, c_high anchors 0.5/0.25, RF defaults 100/12/1/2/seed0 in manifests")


def test_criterion_3_estimator_quality(dataset_10k, model_depth12):
    start = time.perf_counter()
    X, y, _, test_idx = dataset_10k
    pred = forest.predict_batch(model_depth12, X[test_idx])
    resid = y[test_idx] - pred
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((y[test_idx] - y[test_idx].mean()) ** 2))
    mae = float(np.mean(np.abs(resid)))

    # analytic noise floor: the MAE of the conditional-median predictor of
    # mean(x) * LogNormal(0, s) is mean(x) * e^{s^2/2} (2 Phi(s) - 1)
    s = NOISY.noise_sigma
    abs_factor = math.exp(s * s / 2.0) * (2.0 * scipy.stats.norm.cdf(s) - 1.0)
    clean_means = np.array([
        sim.expected_bits(
            FrameFeatures(e_y=X[i, 0], l_y=X[i, 1], e_u=X[i, 2], l_u=X[i, 3],
                          e_v=X[i, 4], l_v=X[i, 5], frame_index=0),
            int(X[i, 6]), PIXELS, CLEAN,
        )
        for i in test_idx
    ])
    floor_mae = float(np.mean(clean_means * abs_factor))
    elapsed = time.perf_counter() - start
    assert r2 >= 0.90
    assert mae <= 1.5 * floor_mae
    assert elapsed < 120.0
    report(3, f"held-out R2={r2:.4f} (>=0.90), MAE={mae:.0f} <= 1.5x floor {floor_mae:.0f} "
              f"(ratio {mae / floor_mae:.2f})")


def test_criterion_4_depth_direction(dataset_10k, depth_sweep):
    start = time.perf_counter()
    X, y, train_idx, _ = dataset_10k
    models, sizes = depth_sweep
    mse = {}
    for depth, model in models.items():
        resid = y[train_idx] - forest.predict_batch(model, X[train_idx])
        mse[depth] = float(np.mean(resid**2))
    assert mse[4] >= mse[8] >= mse[12]
    assert sizes[4] < sizes[8] < sizes[12]
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    report(4, f"training MSE {mse[4]:.3e} >= {mse[8]:.3e} >= {mse[12]:.3e}; "
              f"sizes {sizes[4]} < {sizes[8]} < {sizes[12]} bytes")


def test_criterion_5_closed_loop(model_depth12):
    feats = sim.random_features(300, np.random.default_rng(42))
    mean_bits = np.mean([sim.expected_bits(f, 30, PIXELS, CLEAN) for f in feats])
    cfg = rc.RcConfig(target_bitrate=float(mean_bits * 30), fps_num=30, resolution=RES_4K)
    encoder = sim.make_encoder(feats, PIXELS, NOISY)

    oracle = sim.make_oracle_predictor(PIXELS, CLEAN)
    _, s_oracle = rc.run_second_pass(rc.build_first_pass(feats, oracle, cfg), encoder, cfg)
    assert abs(s_oracle["bitrate_deviation"]) <= 0.01

    _, s_rf = rc.run_second_pass(rc.build_first_pass(feats, model_depth12, cfg), encoder, cfg)
    assert abs(s_rf["bitrate_deviation"]) <= 0.05
    report(5, f"300-frame deviation: oracle {100 * s_oracle['bitrate_deviation']:+.3f}% "
              f"(<=1%), forest {100 * s_rf['bitrate_deviation']:+.3f}% (<=5%)")


def _rd_point(feats, target, cfg_kw, predictor=None, noise_seed=None):
    cfg = rc.RcConfig(target_bitrate=target, fps_num=30, **cfg_kw)
    if noise_seed is not None:
        records = rc.build_noise_first_pass(len(feats), cfg, seed=noise_seed)
    else:
        records = rc.build_first_pass(feats, predictor, cfg)
    decisions, summary = rc.run_second_pass(
        records, sim.make_encoder(feats, PIXELS, NOISY), cfg
    )
    rate = summary["total_bits"] / len(decisions) * 30
    qs = [d.q_prime_p for d in decisions]
    quality = float(np.mean([sim.sim_psnr(q, NOISY) for q in qs]))
    return rate, quality, float(np.std(qs))


def test_criterion_6_noise_baseline_ordering(model_depth12):
    start = time.perf_counter()
    # high-rate anchors keep the noise-driven runs inside a comparable
    # quality range; at mid-rate anchors the noise baseline degrades past
    # any PSNR overlap with the fixed-QP curve
    anchor_qs = (22, 18, 14, 10)
    cfg_kw = dict(resolution=RES_4K)
    for seed in range(5):
        feats = sim.random_features(300, np.random.default_rng(100 + seed))
        anchor_pairs, targets = [], []
        for q in anchor_qs:
            rate = float(np.mean([sim.sim_bits(f, q, PIXELS, NOISY) for f in feats]) * 30)
            anchor_pairs.append((rate, sim.sim_psnr(q, NOISY)))
            targets.append(rate)
        anchor = metrics.RdCurve.from_pairs(anchor_pairs)

        model_pts = [_rd_point(feats, t, cfg_kw, predictor=model_depth12) for t in targets]
        noise_pts = [_rd_point(feats, t, cfg_kw, noise_seed=1000 + seed) for t in targets]

        bd_model = metrics.bd_rate(
            anchor, metrics.RdCurve.from_pairs([(r, p) for r, p, _ in model_pts]))
        bd_noise = metrics.bd_rate(
            anchor, metrics.RdCurve.from_pairs([(r, p) for r, p, _ in noise_pts]))
        std_model = np.mean([s for _, _, s in model_pts])
        std_noise = np.mean([s for _, _, s in noise_pts])
        assert bd_noise > bd_model, f"seed {seed}: {bd_noise} vs {bd_model}"
        assert std_model < std_noise, f"seed {seed}: {std_model} vs {std_noise}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"BD(noise) > BD(model) and model QP spread smaller across 5 seeds "
              f"in {elapsed:.1f} s")


def test_criterion_7_feature_extractor(rng):
    # flat frames: exactly zero energy
    for value in (0, 128, 255):
        f = feat.extract_features(flat_frame(value))
        assert f.e_y == 0.0 and f.e_u == 0.0 and f.e_v == 0.0

    # fast DCT path against the O(w^4) definition on 100 random blocks
    worst = 0.0
    for _ in range(100):
        block = rng.integers(0, 256, (32, 32)).astype(np.float64)
        fast = float(feat.block_texture_energies(block, 32)[0])
        naive = naive_block_energy(block)
        worst = max(worst, abs(fast - naive) / naive)
    assert worst < 1e-6

    # 10-bit frame at exactly 4x the 8-bit samples: identical features
    frame8 = make_frame(rng)
    frame10 = vio.PlanarFrame(
        VideoGeometry(64, 64, bit_depth=10),
        frame8.y_plane.astype(np.uint16) * 4,
        frame8.u_plane.astype(np.uint16) * 4,
        frame8.v_plane.astype(np.uint16) * 4,
    )
    a = feat.extract_features(frame8).as_array()
    b = feat.extract_features(frame10).as_array()
    np.testing.assert_allclose(b, a, rtol=1e-9, atol=0)
    report(7, f"flat=0 exact; fast-vs-naive DCT worst rel err {worst:.2e} (<1e-6); "
              f"bit-depth invariance <=1e-9")


def test_criterion_8_bd_rate_calculator():
    f = FrameFeatures(0.5, 0.5, 0.3, 0.5, 0.3, 0.5, 0)
    pairs = [(sim.sim_bits(f, q, 1920 * 1080, CLEAN) * 30.0, sim.sim_psnr(q, CLEAN))
             for q in (37, 32, 27, 22)]
    anchor = metrics.RdCurve.from_pairs(pairs)
    assert metrics.bd_rate(anchor, anchor) == 0.0
    scaled = metrics.RdCurve.from_pairs([(r * 1.10, p) for r, p in pairs])
    bd = metrics.bd_rate(anchor, scaled)
    assert abs(bd - 10.0) <= 1e-6
    fwd = metrics.bd_rate(anchor, scaled)
    rev = metrics.bd_rate(scaled, anchor)
    assert abs((1 + fwd / 100) * (1 + rev / 100) - 1.0) <= 1e-6
    report(8, f"identity=0, x1.10 -> {bd:.9f}% (+10 within 1e-6), antisymmetry holds")


def test_criterion_9_determinism(tmp_path, rng):
    clip = tmp_path / "clip.y4m"
    vio.write_y4m(str(clip), [make_frame(rng, index=i) for i in range(3)])
    a, b = tmp_path / "fa.csv", tmp_path / "fb.csv"
    assert cli.main(["analyze", "--input", str(clip), "--out", str(a)]) == 0
    assert cli.main(["analyze", "--input", str(clip), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    train_csv = tmp_path / "train.csv"
    forest.write_training_csv(str(train_csv), *sim.generate_dataset(500, NOISY, seed=3))
    ma, mb = tmp_path / "ma.ircf", tmp_path / "mb.ircf"
    for out in (ma, mb):
        assert cli.main(["train", "--data", str(train_csv), "--trees", "20",
                         "--max-depth", "6", "--seed", "0", "--out", str(out)]) == 0
    assert ma.read_bytes() == mb.read_bytes()

    feats = sim.random_features(30, np.random.default_rng(8))
    feats_csv = tmp_path / "f.csv"
    feat.write_features_csv(str(feats_csv), feats)
    outs = []
    for name in ("ra", "rb"):
        trace, rep = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert cli.main(["rc", "--features", str(feats_csv), "--first-pass", "noise",
                         "--seed", "5", "--bitrate", "2e6", "--resolution", "1920x1080",
                         "--trace", str(trace), "--report", str(rep)]) == 0
        outs.append(trace.read_bytes() + rep.read_bytes())
    assert outs[0] == outs[1]
    report(9, "analyze, train (seed 0) and rc (seeded) byte-identical across reruns")
