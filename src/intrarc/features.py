"""Per-frame spatial complexity features from block DCT energy.

Each plane is split into non-overlapping blocks, 32x32 for luma and
16x16 for the 2x subsampled chroma (edges padded by replication), every
block gets an orthonormal 2-D DCT-II, and the absolute AC coefficients
are summed with a radially increasing weight exp(sqrt((i/w)^2 + (j/w)^2)).
The plane energy is that sum averaged over blocks and normalized by
block area and the nominal sample scale, so values are comparable across
resolutions and bit depths. The companion brightness feature is the
plain normalized sample mean.

A plane is analysed in bands of whole block rows (`video_io.bands`), so
a worker holds one band and the kernel's block-row temporaries, not a
frame; both features of a plane come from one read of each band.

Sample scale is 255 * 2^(bit_depth - 8) rather than 2^bit_depth - 1 so
that content scaled between bit depths maps to identical features.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import ClassVar, Iterable, NamedTuple

import numpy as np

from intrarc import tables

FEATURE_COLUMNS = {"frame_index": tables.INDEX, "e_y": tables.ENERGY, "l_y": tables.LEVEL,
                   "e_u": tables.ENERGY, "l_u": tables.LEVEL, "e_v": tables.ENERGY,
                   "l_v": tables.LEVEL}

# Chroma of a luma-only frame is reported as mid-grey with zero texture.
NEUTRAL_CHROMA_LEVEL = 0.5


@dataclass(frozen=True)
class AnalyzerConfig:
    # Fixed DCT block sizes; the 2x subsampled chroma has half the luma size.
    block_size_luma: ClassVar[int] = 32
    block_size_chroma: ClassVar[int] = 16


class FrameFeatures(NamedTuple):
    """Six-element complexity vector of one frame, in estimator order, then
    its index: a row of the (n, 7) matrix that `read_features_csv` returns."""

    e_y: float
    l_y: float
    e_u: float
    l_u: float
    e_v: float
    l_v: float
    frame_index: int = 0

    def as_array(self) -> np.ndarray:
        return np.array(self[:6])


def as_rows(features) -> np.ndarray:
    """`FrameFeatures` rows, a list of them or their matrix, as (n, 7) float64."""
    return np.asarray(features, dtype=np.float64).reshape(-1, 7)


@cache
def _ac_weights(w: int) -> np.ndarray:
    """AC weights of a w x w block, flattened in row-major order (DC weight 0).

    Read-only: every analysis thread shares the one cached array.
    """
    i = np.arange(w, dtype=np.float64) / w
    weights = np.exp(np.sqrt(i[:, None] ** 2 + i[None, :] ** 2)).reshape(-1)
    weights[0] = 0.0  # DC excluded
    weights.setflags(write=False)
    return weights


@cache
def _dct_matrix(w: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix C and a C-contiguous copy of C.T, so that
    C @ block @ C.T is the 2-D transform.

    Both are read-only: every analysis thread shares the cached pair.
    """
    n = np.arange(w)
    c = math.sqrt(2.0 / w) * np.cos(np.pi * (2 * n[None, :] + 1) * n[:, None] / (2 * w))
    c[0] *= math.sqrt(0.5)
    ct = np.ascontiguousarray(c.T)
    c.setflags(write=False)
    ct.setflags(write=False)
    return c, ct


def block_texture_energies(plane, block_size: int, on_band=None) -> np.ndarray:
    """Weighted absolute-AC DCT sums for every block of a 2-D plane.

    Edge blocks are completed by replicating the last row/column. The
    returned array is unnormalized (one raw energy per block).

    The plane, an array or a `video_io.FilePlane`, is taken in bands of
    whole block rows (`video_io.bands`), and each band also goes to
    `on_band`, when given, so that a caller takes more from the same
    read. All bands go through one call, so the temporaries of one band
    are reused by the next: freed at the end of a call, they go back to
    the system and fault back in on the next, which measured about 1 ms
    per extra call at 2160p on a 2-vCPU x86 VM.

    The transform runs as two matrix products over one block row at a
    time, so the float64 temporaries are a few block rows (1 MB each at
    2160p with 32x32 blocks), small enough to stay in cache; only a
    block row with a partial block is padded. Each block's top-left
    sample is subtracted first, from a copy of those corners, so the
    operand never aliases the array it writes: that moves only the DC
    term, which is excluded, and makes the AC terms of a flat block
    exactly zero. The second product multiplies by a cached C-contiguous
    C.T rather than a transposed view, and the weighted sum of absolute
    coefficients is one matrix-vector product of the (blocks, w*w)
    coefficients with the flattened weights.

    Those products sum in another order than an elementwise weighting
    and a two-axis sum, so a block's energy may differ from that form
    in the last bits (about 1e-14 relative), far below the 9 significant
    digits that the features CSV keeps.
    """
    # Imported here: train and predict load this module for its CSV reader
    # and its row type, and never read video.
    from intrarc import video_io

    w = block_size
    h, width = plane.shape
    nr, nc = -(-h // w), -(-width // w)
    c, ct = _dct_matrix(w)
    weights = _ac_weights(w)
    out = np.empty((nr, nc))
    r = 0
    for band in video_io.bands(plane, w):
        if on_band is not None:
            on_band(band)
        for top in range(0, band.shape[0], w):
            strip = band[top:top + w]
            if strip.shape != (w, nc * w):
                strip = np.pad(strip, ((0, w - strip.shape[0]), (0, nc * w - width)),
                               mode="edge")
            blocks = strip.reshape(w, nc, w).transpose(1, 0, 2).astype(np.float64, order="C")
            blocks -= blocks[:, :1, :1].copy()
            coeffs = c @ blocks @ ct
            np.abs(coeffs, out=coeffs)
            out[r] = coeffs.reshape(nc, w * w) @ weights
            r += 1
    return out.reshape(-1)


def plane_energy(plane, block_size: int, sample_scale: float, on_band=None) -> float:
    """Normalized texture energy of a 2-D plane (exact block-order invariant
    sum); `on_band` gets each band that the kernel reads."""
    energies = block_texture_energies(plane, block_size, on_band)
    return math.fsum(energies.tolist()) / (energies.size * block_size**2 * sample_scale)


def _sample_sum(samples: np.ndarray, max_sample: int) -> int:
    """Exact sum of a 2-D array of integer samples in [0, max_sample].

    The rows are added in an integer accumulator that cannot overflow
    (uint32 while the column sums fit, else uint64). Below 2^53 / 1023
    samples, float(samples.mean()) of 8- or 10-bit samples takes only exact
    integer partial sums too, so it equals this sum over the sample count.
    """
    acc = np.uint32 if samples.shape[0] * max_sample <= 0xFFFFFFFF else np.uint64
    return int(np.add.reduce(samples, axis=0, dtype=acc).sum(dtype=np.uint64))


def _plane_features(plane, block_size: int, scale: float, max_sample: int) -> tuple[float, float]:
    """Texture energy and brightness of a plane from one read of each band;
    the brightness is the exact sample total (`_sample_sum`) over the count."""
    totals = []
    energy = plane_energy(plane, block_size, scale,
                          lambda band: totals.append(_sample_sum(band, max_sample)))
    h, w = plane.shape
    return energy, min(1.0, sum(totals) / (h * w) / scale)


def extract_features(frame, cfg: AnalyzerConfig = AnalyzerConfig()) -> FrameFeatures:
    """Compute the six complexity features of one frame, a
    `video_io.PlanarFrame` or `video_io.FileFrame`."""
    g = frame.geometry
    scale = 255.0 * 2 ** (g.bit_depth - 8)
    y, u, v = frame.planes()
    e_y, l_y = _plane_features(y, cfg.block_size_luma, scale, g.max_sample)
    if g.chroma_format == "400":
        e_u = e_v = 0.0
        l_u = l_v = NEUTRAL_CHROMA_LEVEL
    else:
        e_u, l_u = _plane_features(u, cfg.block_size_chroma, scale, g.max_sample)
        e_v, l_v = _plane_features(v, cfg.block_size_chroma, scale, g.max_sample)
    return FrameFeatures(e_y=e_y, l_y=l_y, e_u=e_u, l_u=l_u, e_v=e_v, l_v=l_v,
                         frame_index=frame.index)


def extract_sequence(frames: Iterable, cfg: AnalyzerConfig = AnalyzerConfig(),
                     threads: int = 1) -> list[FrameFeatures]:
    """Extract features for a whole frame stream, ordered by frame index.

    `threads` workers analyse the frames, and at most `threads` frames
    are held, for every thread count: once `threads` frames are in
    flight, the oldest result is awaited before the next frame is taken,
    whatever the stream length. A frame of `video_io.open_y4m` or
    `open_raw_yuv` holds no samples: each worker reads its frame's planes
    band by band, so analysis holds `threads` bands and the kernel's
    block-row temporaries, whatever the frame size.
    """
    from concurrent.futures import ThreadPoolExecutor

    result = []
    pending = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for frame in frames:
            pending.append(pool.submit(extract_features, frame, cfg))
            del frame   # the worker holds it; the next read must not find it alive
            if len(pending) == threads:
                result.append(pending.popleft().result())
        result.extend(f.result() for f in pending)
    if not result:
        raise ValueError("no frames in input stream")
    return result


def write_features_csv(path: str, rows: Iterable[FrameFeatures]) -> None:
    tables.write(path, FEATURE_COLUMNS, ([f.frame_index, *f.as_array()] for f in rows))


def read_features_csv(path: str) -> np.ndarray:
    """The features table as an (n, 7) float64 matrix of `FrameFeatures`
    rows, built one block of the reader at a time. Frame indices must rise
    strictly, checked after every value, so a bad value anywhere wins."""
    with tables.naming(path):
        blocks = [(lines, np.array([*values, idx], dtype=np.float64).T)
                  for lines, (idx, *values) in tables.blocks(path, FEATURE_COLUMNS)]
        rows = np.concatenate([block for _, block in blocks])
        bad = np.flatnonzero(np.diff(rows[:, 6]) <= 0)
        if bad.size:
            k = bad[0] + 1
            line = [line for lines, _ in blocks for line in lines][k]
            raise ValueError(f"line {line} has frame_index {int(rows[k, 6])}, "
                             f"not above the previous {int(rows[k - 1, 6])}")
    return rows
