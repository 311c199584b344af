"""Seeded, cached inputs of the benchmark.

The clips, the training tables and the features come from the
benchmark's own generators, so the program under test receives only
files and one seed gives the same bytes on every commit. The models and
the fixed-QP anchor curve are made by the program itself (the
``intrarc train`` CLI and ``intrarc.simulator``), so their cache keys
also hold a digest of the program's sources.

Every input lives in ``<root>/.bench_work/cache/<kind>-<group>-<key>/``
with a ``.sha256`` sidecar. Entries that differ only in their seed form a
group; the two most recently used entries of a group are kept and older
ones are deleted.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GENERATOR_VERSION = 1
KEEP_PER_GROUP = 2

# Rate law of the training tables: intrarc.simulator's defaults at the 4K
# pixel scale with lognormal noise sigma = 0.1 (acceptance criterion 3).
PIXELS_4K = 3840 * 2160
RC_RESOLUTION = "3840x2160"
RATE_KAPPA = 1.0
RATE_GAMMA = 0.8
RATE_DELTA = 6.0
RATE_SIGMA = 0.1
TRAIN_Q_RANGE = (18, 48)

# Fixed-QP anchors of the rate-control sweep (acceptance criterion 6).
ANCHOR_QPS = (22, 18, 14, 10)
FPS = 30
# The rate-control model and the features the four rc calls read are the
# same for every workload seed: the model is trained once per checkout,
# and the bitrate deviation and BD-rate then move only when the program
# does. Across seeds the largest deviation alone spreads by about 25%,
# which no bound of a quarter could hold.
MODEL_DATA_SEED = 1_000_003
RC_FEATURES_SEED = 1_000_033

TRAINING_HEADER = ["frame_index", "e_y", "l_y", "e_u", "l_u", "e_v", "l_v", "q", "bits"]
FEATURES_HEADER = TRAINING_HEADER[:7]


@dataclass(frozen=True)
class Clip:
    path: Path
    width: int
    height: int
    frames: int


@dataclass(frozen=True)
class Inputs:
    clips: dict[str, Clip]          # role ("1080p", "2160p") -> clip
    train_csv: Path
    predict_features: Path
    rc_features: Path
    rc_frames: int
    rc_model: Path
    anchor_csv: Path
    targets: list[str]              # --bitrate values, one per anchor QP
    digests: dict[str, str]         # input name -> sha256


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            h.update(chunk)
    return h.hexdigest()


def source_digest(src: Path) -> str:
    """Digest of the program's Python sources, for keys of program-made inputs."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Cache:
    """Directory of generated inputs keyed by what generated them."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def get(self, kind: str, params: dict, filename: str,
            build: Callable[[Path], None]) -> tuple[Path, str]:
        """Path and sha256 of a cached file, building it first if absent."""
        def digest(obj) -> str:
            return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]

        # Entries that differ only in their seed form one eviction group.
        group = f"{kind}-{digest({k: v for k, v in params.items() if k != 'seed'})}"
        entry = self.root / f"{group}-{digest([params, GENERATOR_VERSION])}"
        target = entry / filename
        digest_file = entry / (filename + ".sha256")
        if not digest_file.exists():
            tmp = self.root / f".tmp-{entry.name}-{os.getpid()}"
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir()
            build(tmp / filename)
            # Written back now, so no writeback runs while the benchmark measures.
            for path in tmp.iterdir():
                with open(path, "rb+") as fh:
                    os.fsync(fh.fileno())
            (tmp / (filename + ".sha256")).write_text(sha256_file(tmp / filename))
            shutil.rmtree(entry, ignore_errors=True)
            os.replace(tmp, entry)
        os.utime(entry)
        self._evict(group)
        return target, digest_file.read_text()

    def _evict(self, group: str) -> None:
        entries = sorted(self.root.glob(f"{group}-*"), key=lambda p: p.stat().st_mtime,
                         reverse=True)
        for old in entries[KEEP_PER_GROUP:]:
            shutil.rmtree(old, ignore_errors=True)


def write_clip(path: Path, width: int, height: int, frames: int,
               rng: np.random.Generator) -> None:
    """8-bit 4:2:0 Y4M clip streamed to disk one frame at a time.

    Each frame is a smooth gradient plus a shifted copy of one noise
    field, scaled by a texture amplitude drawn per frame, so the frames'
    features differ while only one frame is ever held in memory.
    """
    cw, ch = width // 2, height // 2
    grad = (np.linspace(0, 200, width, dtype=np.float32)[None, :]
            + np.linspace(0, 40, height, dtype=np.float32)[:, None])
    noise_y = rng.standard_normal((height, width), dtype=np.float32)
    noise_c = rng.standard_normal((2, ch, cw), dtype=np.float32)
    amps = rng.uniform(4.0, 60.0, size=frames).astype(np.float32)
    shifts = rng.integers(0, 1 << 30, size=(frames, 2))
    with open(path, "wb") as fh:
        fh.write(f"YUV4MPEG2 W{width} H{height} F{FPS}:1 Ip A1:1 C420jpeg\n".encode())
        for i in range(frames):
            dy, dx = int(shifts[i, 0] % height), int(shifts[i, 1] % width)
            y = np.roll(noise_y, (dy, dx), axis=(0, 1))
            y *= amps[i]
            y += grad
            fh.write(b"FRAME\n")
            fh.write(np.clip(y, 0, 255).astype(np.uint8).tobytes())
            for plane, level in zip(noise_c, (120.0, 130.0)):
                c = np.roll(plane, (dy // 2, dx // 2), axis=(0, 1)) * (amps[i] / 2) + level
                fh.write(np.clip(c, 0, 255).astype(np.uint8).tobytes())


def _random_features(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 6) features uniform on [0, 1), as intrarc.simulator.random_features draws them."""
    e = rng.uniform(0.0, 1.0, size=(n, 3))
    lum = rng.uniform(0.0, 1.0, size=(n, 3))
    return np.stack([e[:, 0], lum[:, 0], e[:, 1], lum[:, 1], e[:, 2], lum[:, 2]], axis=1)


def write_training_csv(path: Path, rows: int, rng: np.random.Generator) -> None:
    """Training table from the simulator's rate law at the 4K pixel scale."""
    feats = _random_features(rows, rng)
    q = rng.integers(TRAIN_Q_RANGE[0], TRAIN_Q_RANGE[1] + 1, size=rows)
    noise = np.exp(rng.normal(0.0, RATE_SIGMA, size=rows))
    raw = (RATE_KAPPA * PIXELS_4K * (0.01 + feats[:, 0]) ** RATE_GAMMA
           * 2.0 ** (-q / RATE_DELTA) * noise)
    bits = np.maximum(1.0, np.floor(raw + 0.5))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAINING_HEADER)
        for i in range(rows):
            writer.writerow([i] + [f"{v:.9g}" for v in feats[i]] + [int(q[i]), f"{bits[i]:.9g}"])


def write_features_csv(path: Path, frames: int, rng: np.random.Generator) -> None:
    feats = _random_features(frames, rng)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURES_HEADER)
        for i in range(frames):
            writer.writerow([i] + [f"{v:.9g}" for v in feats[i]])


def read_features(path: Path) -> np.ndarray:
    """(n, 7) array of frame_index and the six features of a features CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(v) for v in rec] for rec in reader])


def write_anchor_csv(path: Path, features: Path) -> None:
    """Fixed-QP anchor RD curve of the simulated encoder, rates rising."""
    from intrarc import simulator as sim
    from intrarc.features import FrameFeatures

    params = sim.SimParams(kappa=RATE_KAPPA, gamma=RATE_GAMMA, delta=RATE_DELTA,
                           noise_sigma=RATE_SIGMA)
    frames = [FrameFeatures(*row[1:], frame_index=int(row[0])) for row in read_features(features)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bitrate", "psnr_yuv"])
        for q in sorted(ANCHOR_QPS, reverse=True):
            bits = [sim.sim_bits(f, q, PIXELS_4K, params) for f in frames]
            rate = float(np.mean(bits)) * FPS
            writer.writerow([f"{rate:.9g}", f"{sim.sim_psnr(q, params):.9g}"])


def _seed_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (workload seed, input name)."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def prepare(cache: Cache, sizes, seed: int, src: Path,
            train_model: Callable[[Path, Path, int], None]) -> Inputs:
    """Build (or reuse) every input of one workload at one seed.

    ``train_model(data_csv, out_model, trees)`` trains a model with the
    program under test; it runs only when the model is not cached.
    """
    digests: dict[str, str] = {}
    clips = {}
    for role, (width, height, frames) in (("1080p", sizes.clip_1080p),
                                          ("2160p", sizes.clip_2160p)):
        path, digests[f"clip_{role}"] = cache.get(
            f"clip{role}", {"w": width, "h": height, "frames": frames, "seed": seed},
            "clip.y4m",
            lambda p, w=width, h=height, n=frames, r=role:
                write_clip(p, w, h, n, _seed_rng(seed, f"clip{r}")))
        clips[role] = Clip(path, width, height, frames)

    train_csv, digests["train_csv"] = cache.get(
        "train", {"rows": sizes.train_rows, "seed": seed}, "train.csv",
        lambda p: write_training_csv(p, sizes.train_rows, _seed_rng(seed, "train")))
    predict_features, digests["predict_features"] = cache.get(
        "predictfeatures", {"frames": sizes.predict_frames, "seed": seed}, "features.csv",
        lambda p: write_features_csv(p, sizes.predict_frames,
                                     _seed_rng(seed, "predictfeatures")))
    rc_features, digests["rc_features"] = cache.get(
        "rcfeatures", {"frames": sizes.rc_frames}, "features.csv",
        lambda p: write_features_csv(p, sizes.rc_frames,
                                     _seed_rng(RC_FEATURES_SEED, "rcfeatures")))

    program = source_digest(src)
    model_csv, digests["rc_model_data"] = cache.get(
        "modeldata", {"rows": sizes.rc_model_rows}, "train.csv",
        lambda p: write_training_csv(p, sizes.rc_model_rows,
                                     _seed_rng(MODEL_DATA_SEED, "train")))
    rc_model, digests["rc_model"] = cache.get(
        "model", {"rows": sizes.rc_model_rows, "trees": sizes.rc_model_trees,
                  "program": program},
        "model.ircf", lambda p: train_model(model_csv, p, sizes.rc_model_trees))

    anchor_csv, digests["anchor_csv"] = cache.get(
        "anchor", {"frames": sizes.rc_frames, "program": program}, "anchor.csv",
        lambda p: write_anchor_csv(p, rc_features))
    with open(anchor_csv, newline="") as fh:
        targets = [rec[0] for rec in list(csv.reader(fh))[1:]]
    return Inputs(clips=clips, train_csv=train_csv, predict_features=predict_features,
                  rc_features=rc_features,
                  rc_frames=sizes.rc_frames, rc_model=rc_model, anchor_csv=anchor_csv,
                  targets=targets, digests=digests)
