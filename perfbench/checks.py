"""Checks of every CLI call's outputs.

Each check returns a list of problems (empty when the output is right)
and the values the end-to-end metrics take from it. A check never
raises on a bad output: the benchmark counts the call as failed and
goes on.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.fft import dctn

from perfbench.inputs import FEATURES_HEADER, FPS, RATE_DELTA, RATE_GAMMA, RATE_KAPPA, RATE_SIGMA

ANALYZE_REL_TOL = 1e-6
PREDICT_REL_TOL = 1e-9
MIN_HOLDOUT_R2 = 0.90
MAX_ABS_DEVIATION_PCT = 5.0
BLOCK_LUMA = 32     # intrarc analyze --block-size default
BLOCK_CHROMA = 16   # max(8, BLOCK_LUMA // 2)


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _read_rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"{path.name}: header is not {','.join(header)}")
        return list(reader)


# --- reference features -----------------------------------------------------

def read_y4m_frame(path: Path, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planes of one frame of an 8-bit 4:2:0 Y4M clip whose FRAME lines carry no tags."""
    with open(path, "rb") as fh:
        header = fh.readline()
        tokens = header.decode("ascii").split()
        width = int(next(t[1:] for t in tokens if t.startswith("W")))
        height = int(next(t[1:] for t in tokens if t.startswith("H")))
        luma, chroma = width * height, (width // 2) * (height // 2)
        frame_bytes = luma + 2 * chroma
        fh.seek(len(header) + index * (len(b"FRAME\n") + frame_bytes))
        if fh.read(6) != b"FRAME\n":
            raise ValueError(f"{path.name}: no FRAME marker at frame {index}")
        data = np.frombuffer(fh.read(frame_bytes), dtype=np.uint8)
    return (data[:luma].reshape(height, width),
            data[luma:luma + chroma].reshape(height // 2, width // 2),
            data[luma + chroma:].reshape(height // 2, width // 2))


def reference_energy(plane: np.ndarray, w: int, scale: float) -> float:
    """Texture energy as the intrarc.features docstring defines it, one block at a time.

    Orthonormal 2-D DCT-II of each w x w block (edges padded by
    replication), absolute AC coefficients weighted by
    exp(sqrt((i/w)^2 + (j/w)^2)), averaged over blocks and normalized by
    block area and sample scale.
    """
    h, width = plane.shape
    padded = np.pad(plane.astype(np.float64), ((0, -h % w), (0, -width % w)), mode="edge")
    i = np.arange(w) / w
    weights = np.exp(np.sqrt(i[:, None] ** 2 + i[None, :] ** 2))
    weights[0, 0] = 0.0
    sums = [float(np.sum(np.abs(dctn(padded[r:r + w, c:c + w], type=2, norm="ortho")) * weights))
            for r in range(0, padded.shape[0], w)
            for c in range(0, padded.shape[1], w)]
    return math.fsum(sums) / (len(sums) * w * w * scale)


def reference_features(clip: Path, index: int) -> list[float]:
    """e_y, l_y, e_u, l_u, e_v, l_v of one 8-bit frame."""
    scale = 255.0
    y, u, v = read_y4m_frame(clip, index)
    out = []
    for plane, w in ((y, BLOCK_LUMA), (u, BLOCK_CHROMA), (v, BLOCK_CHROMA)):
        out += [reference_energy(plane, w, scale), min(1.0, float(plane.mean()) / scale)]
    return out


# --- per-command checks -----------------------------------------------------

def check_analyze(features_csv: Path, clip: Path, frames: int, sampled: int) -> list[str]:
    """One row per frame, indices 0..n-1, finite non-negative values, and
    the sampled frame agrees with the reference."""
    try:
        rows = _read_rows(features_csv, FEATURES_HEADER)
        indices = [int(r[0]) for r in rows]
        values = np.array([[float(v) for v in r[1:]] for r in rows])
    except (OSError, ValueError, IndexError) as exc:
        return [f"analyze output unreadable: {exc}"]
    problems = []
    if indices != list(range(frames)):
        problems.append(f"analyze wrote frame indices {indices[:3]}... for {frames} frames")
    if values.shape != (len(rows), 6) or not np.isfinite(values).all() or (values < 0).any():
        problems.append("analyze wrote a non-finite, negative or missing value")
    if problems:
        return problems
    ref = reference_features(clip, sampled)
    for name, got, want in zip(FEATURES_HEADER[1:], values[sampled], ref):
        if not _rel_close(float(got), want, ANALYZE_REL_TOL):
            problems.append(f"frame {sampled} {name}={float(got)!r}, reference {want!r}")
    return problems


def check_train(model_path: Path, trees: int) -> tuple[list[str], dict]:
    """The model loads back, has the requested trees and a holdout R2 >= 0.90."""
    from intrarc import forest

    try:
        model = forest.load(str(model_path))
        manifest = json.loads(Path(f"{model_path}.manifest.json").read_text())
        r2 = float(manifest["holdout"]["r2"])
    except (OSError, ValueError, KeyError, TypeError, forest.ModelFormatError) as exc:
        return [f"train output unreadable: {exc}"], {}
    problems = []
    if len(model.trees) != trees:
        problems.append(f"model has {len(model.trees)} trees, expected {trees}")
    if not r2 >= MIN_HOLDOUT_R2:
        problems.append(f"holdout R2 {r2} below {MIN_HOLDOUT_R2}")
    return problems, {"holdout_r2": r2, "model_bytes": model_path.stat().st_size}


def check_predict(pred_csv: Path, model_path: Path, features_csv: Path, qp: int) -> list[str]:
    """Every prediction agrees with forest.predict_batch on the same model.

    The CSV holds 9 significant digits, so the reference is rounded the
    same way before the relative comparison.
    """
    from intrarc import forest

    try:
        rows = _read_rows(pred_csv, ["frame_index", "q", "b_hat"])
        feats = _read_rows(features_csv, FEATURES_HEADER)
        got = [float(r[2]) for r in rows]
        if [r[0] for r in rows] != [f[0] for f in feats] or any(int(r[1]) != qp for r in rows):
            return ["predict rows do not match the features' frames and QP"]
    except (OSError, ValueError, IndexError) as exc:
        return [f"predict output unreadable: {exc}"]
    X = np.array([[float(v) for v in f[1:7]] + [float(qp)] for f in feats])
    try:
        want = forest.predict_batch(forest.load(str(model_path)), X)
    except (OSError, forest.ModelFormatError) as exc:
        return [f"model unreadable: {exc}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want))
           if not _rel_close(g, float(f"{w:.9g}"), PREDICT_REL_TOL)]
    if bad:
        return [f"predict differs from predict_batch on {len(bad)} rows, first frame {bad[0]}"]
    return []


def check_rc(trace: Path, report: Path, frames: int) -> tuple[list[str], dict]:
    """The trace has a row per frame and |bitrate deviation| <= 5%."""
    from intrarc import simulator as sim

    try:
        rows = _read_rows(trace, ["frame_index", "q_p", "b_hat", "b_prime", "q_bar", "q_prime",
                                  "actual_bits", "deficit"])
        summary = json.loads(report.read_text())
        deviation = 100.0 * float(summary["bitrate_deviation"])
        total_bits = float(summary["total_bits"])
        qps = [int(r[5]) for r in rows]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"rc output unreadable: {exc}"], {}
    problems = []
    if len(rows) != frames:
        problems.append(f"trace has {len(rows)} rows for {frames} frames")
    if not abs(deviation) <= MAX_ABS_DEVIATION_PCT:
        problems.append(f"bitrate deviation {deviation:+.3f}% beyond {MAX_ABS_DEVIATION_PCT}%")
    if problems:
        return problems, {}
    params = sim.SimParams(kappa=RATE_KAPPA, gamma=RATE_GAMMA, delta=RATE_DELTA,
                           noise_sigma=RATE_SIGMA)
    psnr = float(np.mean([sim.sim_psnr(q, params) for q in qps]))
    return [], {"deviation_pct": deviation, "rate": total_bits / frames * FPS, "psnr": psnr}


def check_bdrate(report: Path) -> tuple[list[str], dict]:
    try:
        bd = float(json.loads(report.read_text())["bd_rate_percent"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"bdrate output unreadable: {exc}"], {}
    if not math.isfinite(bd):
        return [f"bdrate gave {bd}"], {}
    return [], {"bd_rate_pct": bd}
