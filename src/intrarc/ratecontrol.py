"""Two-pass controller: first-pass record assembly and second-pass QP mapping.

The first pass attaches a predicted bit count to every frame at a fixed
probe QP. The second pass walks frames in order, computes each frame's
bit target from the running deficit, maps (probe QP, prediction,
target) to the encode QP through the logarithmic R-QP model

    q_bar = q_p - c_low * sqrt(max(1, q_p)) * log2(b_target / b_pred)

followed by a resolution-weighted pull toward q_start on the high-rate
side, and charges the frame's actual spend back into the deficit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from intrarc import tables
from intrarc.features import FrameFeatures
from intrarc.forest import feature_matrix
from intrarc.video_io import VideoGeometry

TRACE_COLUMNS = {"frame_index": tables.INDEX, "q_p": tables.QP, "b_hat": tables.REAL,
                 "b_prime": tables.REAL, "q_bar": tables.REAL, "q_prime": tables.QP,
                 "actual_bits": tables.REAL, "deficit": tables.REAL}

# c_high anchors: published operating points at the two reference resolutions,
# interpolated linearly in log2(pixel count) between them.
_C_HIGH_LO = (854 * 480, 0.25)
_C_HIGH_HI = (3840 * 2160, 0.5)


class EncoderError(Exception):
    """Encoder backend failed."""


@dataclass(frozen=True)
class FirstPassRecord:
    frame_index: int
    q_p: int
    b_hat_p: float

    def __post_init__(self):
        if not 0 <= self.q_p <= tables.QP_MAX:
            raise ValueError(f"q_p={self.q_p} outside [0, {tables.QP_MAX}]")
        if not math.isfinite(self.b_hat_p) or self.b_hat_p < 1:
            raise ValueError(f"b_hat_p={self.b_hat_p} must be finite and >= 1")


@dataclass(frozen=True)
class RcConfig:
    target_bitrate: float       # bits per second
    fps_num: int
    resolution: VideoGeometry
    fps_den: int = 1
    # The paper's fixed second-pass constants.
    c_low: ClassVar[float] = 1.0
    first_pass_qp: ClassVar[int] = 32
    deficit_gain: ClassVar[float] = 0.5   # fraction of the deficit recovered per frame
    q_start: ClassVar[int] = 24

    def __post_init__(self):
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise ValueError("frame rate must be positive")
        try:
            budget = self.frame_budget
        except OverflowError:
            budget = math.inf
        if not tables.BITS.lo <= budget <= tables.BITS.hi:
            raise ValueError("frame budget target_bitrate * fps_den / fps_num must be "
                             f"in [1, 2^53] bits, got {budget}")

    @property
    def frame_budget(self) -> float:
        """Per-frame base budget in bits."""
        return self.target_bitrate * self.fps_den / self.fps_num

    @property
    def fps_text(self) -> str:
        return f"{self.fps_num}/{self.fps_den}"


@dataclass(frozen=True)
class FrameDecision:
    frame_index: int
    q_p: int
    b_hat_p: float
    b_prime_p: float
    q_bar_p: float
    q_prime_p: int
    actual_bits: float | None = None
    deficit: float | None = None   # running deficit after this frame's spend


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def c_high_for(resolution: VideoGeometry) -> float:
    """High-rate correction weight for a resolution, in [0.25, 0.5]."""
    lo_area, lo_c = _C_HIGH_LO
    hi_area, hi_c = _C_HIGH_HI
    t = (math.log2(resolution.pixels) - math.log2(lo_area)) / (
        math.log2(hi_area) - math.log2(lo_area)
    )
    return min(hi_c, max(lo_c, lo_c + t * (hi_c - lo_c)))


def build_first_pass(features: Sequence[FrameFeatures], model,
                     cfg: RcConfig) -> list[FirstPassRecord]:
    """Predict bits for every frame at the configured first-pass QP.

    `model` is a batched predictor mapping the (n, 7) `[features | QP]`
    matrix to n bit counts, such as a trained ForestModel. A prediction
    that is not finite or is below 1 bit raises ValueError.
    """
    if not features:
        raise ValueError("no frames to build a first pass for")
    q = cfg.first_pass_qp
    preds = np.asarray(model(feature_matrix(features, q)), dtype=np.float64).tolist()
    return [
        FirstPassRecord(frame_index=f.frame_index, q_p=q, b_hat_p=b)
        for f, b in zip(features, preds)
    ]


def build_noise_first_pass(n_frames: int, cfg: RcConfig, seed: int = 0) -> list[FirstPassRecord]:
    """Worst-case first pass: predictions are white noise around the budget.

    Draws N(mu, sigma^2) with mu = sigma = per-frame budget, rounded and
    clamped to >= 1.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    rng = np.random.default_rng(seed)
    mu = cfg.frame_budget
    draws = rng.normal(mu, mu, size=n_frames)
    return [
        FirstPassRecord(frame_index=i, q_p=cfg.first_pass_qp,
                        b_hat_p=max(1.0, float(np.floor(d + 0.5))))
        for i, d in enumerate(draws)
    ]


def compute_target_bits(deficit: float, cfg: RcConfig) -> float:
    """Bit target for the next frame: base budget minus a deficit share."""
    return max(1.0, cfg.frame_budget - cfg.deficit_gain * deficit)


def map_qp(record: FirstPassRecord, b_prime: float, cfg: RcConfig) -> tuple[float, int]:
    """R-QP mapping of one frame: real-valued q_bar and final integer QP."""
    q_bar = record.q_p - cfg.c_low * math.sqrt(max(1, record.q_p)) * math.log2(
        b_prime / record.b_hat_p
    )
    corrected = q_bar + c_high_for(cfg.resolution) * max(0.0, cfg.q_start - q_bar)
    q_prime = min(tables.QP_MAX, max(0, _round_half_away(corrected)))
    return q_bar, q_prime


def run_second_pass(records: Sequence[FirstPassRecord],
                    encoder: Callable[[FrameDecision], float],
                    cfg: RcConfig) -> tuple[list[FrameDecision], dict]:
    """Sequentially encode all frames under deficit compensation.

    Returns the per-frame decision trace and a summary dict. An encoder
    failure raises EncoderError naming the frame.
    """
    if not records:
        raise ValueError("no first-pass records")
    b_base = cfg.frame_budget
    deficit = 0.0
    decisions: list[FrameDecision] = []
    for rec in records:
        b_prime = compute_target_bits(deficit, cfg)
        q_bar, q_prime = map_qp(rec, b_prime, cfg)
        pending = FrameDecision(
            frame_index=rec.frame_index, q_p=rec.q_p, b_hat_p=rec.b_hat_p,
            b_prime_p=b_prime, q_bar_p=q_bar, q_prime_p=q_prime,
        )
        try:
            actual = float(encoder(pending))
        except Exception as exc:
            raise EncoderError(f"encoder failed at frame {rec.frame_index}: {exc}") from exc
        deficit += actual - b_base
        decisions.append(replace(pending, actual_bits=actual, deficit=deficit))
    total_bits = math.fsum(d.actual_bits for d in decisions)
    n = len(decisions)
    summary = {
        "target_bitrate": cfg.target_bitrate,
        "fps": cfg.fps_text,
        "total_bits": total_bits,
        "bitrate_deviation": (total_bits - n * b_base) / (n * b_base),
        "mean_qp": math.fsum(d.q_prime_p for d in decisions) / n,
    }
    return decisions, summary


def write_trace_csv(path: str, decisions: Iterable[FrameDecision]) -> None:
    """Per-frame trace: one row per decision, ending in its running deficit."""
    tables.write(path, TRACE_COLUMNS, (
        [d.frame_index, d.q_p, d.b_hat_p, d.b_prime_p, d.q_bar_p, d.q_prime_p,
         d.actual_bits, d.deficit] for d in decisions))


def read_trace_csv(path: str) -> list[FrameDecision]:
    return [FrameDecision(*values) for _, values in tables.read(path, TRACE_COLUMNS)]
