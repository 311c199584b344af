"""Parametric synthetic encoder: a rate law and a distortion law.

Stands in for a real intra encoder so the controller can be validated
in a closed loop at desk scale. Rate follows
kappa * pixels * (0.01 + e_y)^gamma * 2^(-q / delta), i.e. spend halves
every `delta` QP steps and grows with luma texture; optional lognormal
multiplicative noise models per-frame spread. Distortion is linear in
QP. Noise draws are keyed on (seed, frame_index, q) so every function
here is pure and safe to evaluate in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from intrarc.features import FrameFeatures
from intrarc.forest import feature_matrix
from intrarc.tables import BITS, QP_MAX

PSNR_FLOOR = 20.0
PSNR_CEIL = 99.0
DATASET_QPS = (18, 48)   # inclusive QP range of generate_dataset's rows


@dataclass(frozen=True)
class SimParams:
    kappa: float = 1.0         # bits per pixel at q=0 and unit texture factor
    gamma: float = 0.8
    delta: float = 6.0         # QP interval over which spend halves
    noise_sigma: float = 0.0   # lognormal log-std of multiplicative noise
    seed: int = 0
    psnr_intercept: ClassVar[float] = 60.0
    psnr_slope: ClassVar[float] = 0.7

    def __post_init__(self):
        for name in ("kappa", "gamma", "delta", "noise_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} must be finite")
        if self.kappa <= 0 or self.delta <= 0:
            raise ValueError("kappa and delta must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")


def _rate_law(e_y, q, pixels: int, params: SimParams):
    return params.kappa * pixels * (0.01 + e_y) ** params.gamma * 2.0 ** (-q / params.delta)


def expected_bits(features: FrameFeatures, q: int, pixels: int, params: SimParams) -> float:
    """Noiseless, unrounded rate law; the oracle predictor."""
    return _rate_law(features.e_y, q, pixels, params)


def sim_bits(features: FrameFeatures, q: int, pixels: int, params: SimParams) -> int:
    """Bits spent encoding one frame at QP q, clamped to [1, 2^53] like the
    bits of an encoder log."""
    if not 0 <= q <= QP_MAX:
        raise ValueError(f"q={q} outside [0, {QP_MAX}]")
    if pixels <= 0:
        raise ValueError("pixels must be positive")
    noise = 1.0
    if params.noise_sigma > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence(params.seed, spawn_key=(features.frame_index, q))
        )
        # A wide log-std can overflow the factor to inf; the clamp makes that 2^53 bits.
        with np.errstate(over="ignore"):
            noise = float(np.exp(rng.normal(0.0, params.noise_sigma)))
    raw = expected_bits(features, q, pixels, params) * noise
    return int(min(BITS.hi, max(1.0, np.floor(raw + 0.5))))


def sim_psnr(q: int, params: SimParams) -> float:
    """Frame quality in dB at QP q, linear with clamping."""
    if not 0 <= q <= QP_MAX:
        raise ValueError(f"q={q} outside [0, {QP_MAX}]")
    return min(PSNR_CEIL, max(PSNR_FLOOR, params.psnr_intercept - params.psnr_slope * q))


def random_features(n: int, rng: np.random.Generator, start_index: int = 0) -> list[FrameFeatures]:
    """Frame feature vectors drawn uniformly from their practical ranges."""
    e = rng.uniform(0.0, 1.0, size=(n, 3))
    l = rng.uniform(0.0, 1.0, size=(n, 3))
    return [
        FrameFeatures(e_y=e[i, 0], l_y=l[i, 0], e_u=e[i, 1], l_u=l[i, 1],
                      e_v=e[i, 2], l_v=l[i, 2], frame_index=start_index + i)
        for i in range(n)
    ]


def generate_dataset(n: int, params: SimParams, seed: int = 0,
                     pixels: int = 3840 * 2160) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic training table as (X, y): uniform features, QP uniform over
    DATASET_QPS, simulated bits; row i is frame i."""
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    rng = np.random.default_rng(seed)
    feats = random_features(n, rng)
    qs = rng.integers(DATASET_QPS[0], DATASET_QPS[1] + 1, size=n)
    y = np.array([sim_bits(f, int(q), pixels, params) for f, q in zip(feats, qs)],
                 dtype=np.float64)
    return feature_matrix(feats, qs), y


def make_encoder(features: list[FrameFeatures], pixels: int, params: SimParams):
    """Encoder for the second pass: (frame index, QP, bit target) -> actual bits."""
    by_index = {f.frame_index: f for f in features}

    def encode(frame_index: int, q: int, target_bits: float) -> int:
        return sim_bits(by_index[frame_index], q, pixels, params)

    return encode


def make_oracle_predictor(pixels: int, params: SimParams):
    """Batched first-pass predictor (n, 7) `[features | QP]` -> noiseless rate-law bits."""

    def predict_fn(X: np.ndarray) -> np.ndarray:
        return _rate_law(X[:, 0], X[:, 6], pixels, params)

    return predict_fn
