"""Per-frame spatial complexity features from block DCT energy.

Each plane is split into non-overlapping blocks (edges padded by
replication), every block gets an orthonormal 2-D DCT-II, and the
absolute AC coefficients are summed with a radially increasing weight
exp(sqrt((i/w)^2 + (j/w)^2)). The plane energy is that sum averaged
over blocks and normalized by block area and the nominal sample scale,
so values are comparable across resolutions and bit depths. The
companion brightness feature is the plain normalized sample mean.

Sample scale is 255 * 2^(bit_depth - 8) rather than 2^bit_depth - 1 so
that content scaled between bit depths maps to identical features.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from intrarc import tables

FEATURE_COLUMNS = {"frame_index": tables.INDEX, "e_y": tables.ENERGY, "l_y": tables.LEVEL,
                   "e_u": tables.ENERGY, "l_u": tables.LEVEL, "e_v": tables.ENERGY,
                   "l_v": tables.LEVEL}

# Chroma of a luma-only frame is reported as mid-grey with zero texture.
NEUTRAL_CHROMA_LEVEL = 0.5

# Block rows transformed at a time. The float64 temporaries of a plane are
# a few strips (8 MB each at 2160p with 32x32 blocks), not the whole plane.
STRIP_BLOCK_ROWS = 8

# Luma DCT block sizes; chroma uses half the luma size, at least 8.
BLOCK_SIZES = (8, 16, 32, 64)


@dataclass(frozen=True)
class AnalyzerConfig:
    block_size_luma: int = 32

    def __post_init__(self):
        size = self.block_size_luma
        if size not in BLOCK_SIZES:
            raise ValueError(f"block size {size} must be a power of two in [8, 64]")

    @property
    def block_size_chroma(self) -> int:
        """Chroma planes are subsampled 2x, so their blocks are half the luma size."""
        return max(8, self.block_size_luma // 2)


@dataclass(frozen=True)
class FrameFeatures:
    """Six-element complexity vector of one frame, in estimator order."""

    e_y: float
    l_y: float
    e_u: float
    l_u: float
    e_v: float
    l_v: float
    frame_index: int = 0

    def as_array(self) -> np.ndarray:
        return np.array([self.e_y, self.l_y, self.e_u, self.l_u, self.e_v, self.l_v])


_WEIGHTS: dict[int, np.ndarray] = {}
_DCT: dict[int, np.ndarray] = {}


def _ac_weights(w: int) -> np.ndarray:
    cached = _WEIGHTS.get(w)
    if cached is None:
        i = np.arange(w, dtype=np.float64) / w
        cached = np.exp(np.sqrt(i[:, None] ** 2 + i[None, :] ** 2))
        cached[0, 0] = 0.0  # DC excluded
        _WEIGHTS[w] = cached
    return cached


def _dct_matrix(w: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C, so that C @ block @ C.T is the 2-D transform."""
    cached = _DCT.get(w)
    if cached is None:
        n = np.arange(w)
        cached = math.sqrt(2.0 / w) * np.cos(np.pi * (2 * n[None, :] + 1) * n[:, None] / (2 * w))
        cached[0] *= math.sqrt(0.5)
        _DCT[w] = cached
    return cached


def _pad_to_blocks(plane: np.ndarray, w: int) -> np.ndarray:
    h, width = plane.shape
    pad_r = (-h) % w
    pad_c = (-width) % w
    if pad_r or pad_c:
        plane = np.pad(plane, ((0, pad_r), (0, pad_c)), mode="edge")
    return plane


def block_texture_energies(plane: np.ndarray, block_size: int) -> np.ndarray:
    """Weighted absolute-AC DCT sums for every block of a 2-D plane.

    Edge blocks are completed by replicating the last row/column. The
    returned array is unnormalized (one raw energy per block).

    The transform runs as two matrix products over strips of
    STRIP_BLOCK_ROWS block rows. Each block's top-left sample is
    subtracted first: that moves only the DC term, which is excluded,
    and makes the AC terms of a flat block exactly zero.
    """
    w = block_size
    padded = _pad_to_blocks(np.asarray(plane), w)
    nr, nc = padded.shape[0] // w, padded.shape[1] // w
    c = _dct_matrix(w)
    weights = _ac_weights(w)
    out = np.empty((nr, nc))
    for r0 in range(0, nr, STRIP_BLOCK_ROWS):
        r1 = min(nr, r0 + STRIP_BLOCK_ROWS)
        blocks = padded[r0 * w:r1 * w].reshape(r1 - r0, w, nc, w).transpose(0, 2, 1, 3)
        blocks = blocks.astype(np.float64, order="C")
        blocks -= blocks[:, :, :1, :1]
        coeffs = c @ blocks @ c.T
        np.abs(coeffs, out=coeffs)
        coeffs *= weights
        out[r0:r1] = coeffs.sum(axis=(-2, -1))
    return out.reshape(-1)


def plane_energy(plane: np.ndarray, block_size: int, sample_scale: float) -> float:
    """Normalized texture energy of a 2-D plane (exact block-order invariant sum)."""
    energies = block_texture_energies(plane, block_size)
    return math.fsum(energies.tolist()) / (energies.size * block_size**2 * sample_scale)


def extract_features(frame, cfg: AnalyzerConfig = AnalyzerConfig()) -> FrameFeatures:
    """Compute the six complexity features of one frame."""
    g = frame.geometry
    scale = 255.0 * 2 ** (g.bit_depth - 8)
    y = frame.y_plane.reshape(g.height, g.width)
    e_y = plane_energy(y, cfg.block_size_luma, scale)
    l_y = min(1.0, float(frame.y_plane.mean()) / scale)
    if g.chroma_format == "400":
        e_u = e_v = 0.0
        l_u = l_v = NEUTRAL_CHROMA_LEVEL
    else:
        ch, cw = g.height // 2, g.width // 2
        u = frame.u_plane.reshape(ch, cw)
        v = frame.v_plane.reshape(ch, cw)
        e_u = plane_energy(u, cfg.block_size_chroma, scale)
        e_v = plane_energy(v, cfg.block_size_chroma, scale)
        l_u = min(1.0, float(frame.u_plane.mean()) / scale)
        l_v = min(1.0, float(frame.v_plane.mean()) / scale)
    return FrameFeatures(e_y=e_y, l_y=l_y, e_u=e_u, l_u=l_u, e_v=e_v, l_v=l_v,
                         frame_index=frame.index)


def extract_sequence(frames: Iterable, cfg: AnalyzerConfig = AnalyzerConfig(),
                     threads: int = 1) -> list[FrameFeatures]:
    """Extract features for a whole frame stream, ordered by frame index.

    With threads > 1 at most 2 * threads frames are in flight, so memory
    stays bounded by a few frames whatever the stream length.
    """
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        result = []
        pending = deque()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for frame in frames:
                if len(pending) == 2 * threads:
                    result.append(pending.popleft().result())
                pending.append(pool.submit(extract_features, frame, cfg))
            result.extend(f.result() for f in pending)
    else:
        result = [extract_features(f, cfg) for f in frames]
    if not result:
        raise ValueError("no frames in input stream")
    return result


def write_features_csv(path: str, rows: Iterable[FrameFeatures]) -> None:
    tables.write(path, FEATURE_COLUMNS, ([f.frame_index, *f.as_array()] for f in rows))


def read_features_csv(path: str) -> list[FrameFeatures]:
    """Rows of the features table, with strictly increasing frame indices."""
    rows = []
    for line, (idx, *values) in tables.read(path, FEATURE_COLUMNS):
        if rows and idx <= rows[-1].frame_index:
            raise ValueError(f"{path}: line {line} has frame_index {idx}, "
                             f"not above the previous {rows[-1].frame_index}")
        rows.append(FrameFeatures(*values, frame_index=idx))
    return rows
