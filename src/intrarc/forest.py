"""Random-forest regression from complexity features + QP to frame bits.

The forest is grown from scratch so that training is bit-reproducible:
every tree gets its own PRNG derived from (seed, tree_index), which
draws only its bootstrap resample of n rows with replacement.
CART splits search every input at every node, maximize variance
reduction and put thresholds at midpoints between consecutive distinct
sorted values. Split-score ties break toward the lowest feature index,
then the lowest threshold. Leaves store the mean target of their
samples.

Trees are grown breadth-first, so their nodes sit in level order and
the k-th split node's children are at slots 1 + 2k and 2 + 2k. Models
serialize to a compact little-endian binary: magic "IRCF", a format
version, the tree count, the training feature range, per tree the node
count, the feature of every node and the value of every node (the
threshold at a split node, the mean at a leaf), and a trailing CRC-32.
The file holds only what prediction reads; how the forest was trained
goes to the `train` manifest.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from intrarc import tables
from intrarc.features import FEATURE_COLUMNS, FrameFeatures

N_FEATURES = 7   # model inputs: a training row's columns from e_y to q

TRAINING_COLUMNS = {**FEATURE_COLUMNS, "q": tables.QP, "bits": tables.BITS}
INPUT_NAMES = tuple(TRAINING_COLUMNS)[1:1 + N_FEATURES]

_MAGIC = b"IRCF"
_VERSION = 5
_HEADER = struct.Struct("<4sII")   # magic, version, tree count


class ModelFormatError(Exception):
    """Unreadable or corrupt serialized model."""


@dataclass(frozen=True)
class ForestHyperparams:
    n_estimators: int = 100
    max_depth: int = 12
    seed: int = 0
    # Fixed split rules: any node with two distinct targets may split, a
    # leaf may hold one sample, and every input is searched at every split.
    min_samples_leaf: ClassVar[int] = 1
    min_samples_split: ClassVar[int] = 2
    max_features: ClassVar[int] = N_FEATURES

    def __post_init__(self):
        if self.n_estimators < 1 or self.max_depth < 1:
            raise ValueError("n_estimators and max_depth must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class Tree:
    """Flattened binary tree in level order; feature < 0 marks a leaf.

    The k-th split node in slot order has its children at slots 1 + 2k
    and 2 + 2k, both after the node itself.
    """

    feature: np.ndarray  # int8, split feature index or -1
    value: np.ndarray    # float64, split: go left iff x[feature] <= value; leaf: mean target

    @property
    def n_nodes(self) -> int:
        return self.feature.size


@dataclass
class ForestModel:
    trees: list[Tree]
    feature_min: np.ndarray
    feature_max: np.ndarray
    # Per-input share of the training SSE reduction (all zero without a
    # split); set by training, not saved in the model file.
    importance: np.ndarray | None = None

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """The forest as a batched predictor: (n, 7) `[features | QP]` -> bits."""
        return predict_batch(self, X)


def _best_split(Xn: np.ndarray, yn: np.ndarray):
    """Best (feature, threshold, gain, sorted order, position) or None.

    Gain is the SSE reduction of the node's samples; candidate cut
    points sit between consecutive distinct sorted values. First-match
    argmax realizes the lowest-threshold / lowest-feature tie-break.
    """
    n = yn.size
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    ys = (yn - yn.mean())[order]
    left_sum = np.cumsum(ys, axis=0)[:-1]
    k = np.arange(1, n, dtype=np.float64)
    gains = left_sum**2 * (n / (k * (n - k)))[:, None]
    gains[xs[1:] == xs[:-1]] = -np.inf
    pos = np.argmax(gains, axis=0)
    col_gain = gains[pos, np.arange(gains.shape[1])]
    col = int(np.argmax(col_gain))
    if not np.isfinite(col_gain[col]):
        return None
    p = int(pos[col])
    threshold = (xs[p, col] + xs[p + 1, col]) / 2.0
    return col, threshold, float(col_gain[col]), order[:, col], p


def _grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int) -> tuple[Tree, np.ndarray]:
    """One tree, and the SSE reduction of its splits summed per input."""
    # A tree has at most one leaf per sample and 2**max_depth leaves.
    cap = min(2 * y.size - 1, 2 ** (max_depth + 1) - 1)
    feature = np.full(cap, -1, dtype=np.int8)
    value = np.zeros(cap)
    gains = np.zeros(N_FEATURES)
    n_nodes = 1
    # FIFO: nodes are split in slot order, which puts the k-th split
    # node's children at 1 + 2k and 2 + 2k.
    queue = deque([(np.arange(y.size), 0, 0)])
    while queue:
        idx, depth, slot = queue.popleft()
        yn = y[idx]
        lo, hi = yn.min(), yn.max()
        found = None
        if depth < max_depth and hi != lo:
            found = _best_split(X[idx], yn)
        if found is None:
            # The rounded mean can land an ulp outside its samples' range.
            value[slot] = min(max(yn.mean(), lo), hi)
            continue
        col, thr, g, order, p = found
        feature[slot], value[slot] = col, thr
        gains[col] += g
        queue.append((idx[order[: p + 1]], depth + 1, n_nodes))
        queue.append((idx[order[p + 1:]], depth + 1, n_nodes + 1))
        n_nodes += 2
    return Tree(feature=feature[:n_nodes].copy(), value=value[:n_nodes].copy()), gains


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


def feature_matrix(features: Sequence[FrameFeatures], q) -> np.ndarray:
    """The (n, 7) `[features | QP]` matrix; `q` is one QP or one per row."""
    qs = np.broadcast_to(np.asarray(q, dtype=np.float64), (len(features),))
    if ((qs < 0) | (qs > tables.QP_MAX)).any():
        raise ValueError(f"q={q} outside [0, {tables.QP_MAX}]")
    return np.column_stack([np.reshape([f.as_array() for f in features], (-1, 6)), qs])


def train_arrays(X: np.ndarray, y: np.ndarray,
                 hp: ForestHyperparams = ForestHyperparams(),
                 threads: int = 1) -> ForestModel:
    """Train on a (n, 7) feature matrix and a positive bits vector."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != N_FEATURES or y.shape != (X.shape[0],):
        raise ValueError(f"expected X of shape (n, {N_FEATURES}) and matching y")
    if X.shape[0] < hp.min_samples_split:
        raise ValueError(
            f"need at least min_samples_split={hp.min_samples_split} samples, got {X.shape[0]}"
        )
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("training data contains non-finite values")
    if (y <= 0).any():
        raise ValueError("bits targets must be positive")

    n = X.shape[0]

    def build(t: int) -> tuple[Tree, np.ndarray]:
        boot = _tree_rng(hp.seed, t).integers(0, n, size=n)
        return _grow_tree(X[boot], y[boot], hp.max_depth)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            grown = list(pool.map(build, range(hp.n_estimators)))
    else:
        grown = [build(t) for t in range(hp.n_estimators)]
    gains = np.sum([g for _, g in grown], axis=0)
    total = gains.sum()
    return ForestModel(
        trees=[tree for tree, _ in grown],
        feature_min=X.min(axis=0),
        feature_max=X.max(axis=0),
        importance=gains / total if total > 0.0 else gains,
    )


def predict_batch(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf values reached by each row of X, clipped
    to the range of those leaf values so that rounding cannot leave it."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rows = np.arange(X.shape[0])
    leaves = np.empty((len(model.trees), X.shape[0]))
    total = np.zeros(X.shape[0])
    for t, tree in enumerate(model.trees):
        # The k-th split node's left child is at 1 + 2k. Children are later
        # slots (load checks it), so every row reaches a leaf within
        # n_nodes steps.
        left = 2 * np.cumsum(tree.feature >= 0) - 1
        idx = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            feat = tree.feature[idx]
            active = feat >= 0
            if not active.any():
                break
            go_left = X[rows, np.where(active, feat, 0)] <= tree.value[idx]
            idx = np.where(active, left[idx] + ~go_left, idx)
        leaves[t] = tree.value[idx]
        total += leaves[t]
    return np.clip(total / len(model.trees), leaves.min(axis=0), leaves.max(axis=0))


def predict(model: ForestModel, features: FrameFeatures, q: int) -> float:
    """Predicted frame bits for one feature vector at QP q."""
    return float(predict_batch(model, feature_matrix([features], q))[0])


def save(model: ForestModel, path: str) -> int:
    """Serialize a model; returns the file size in bytes."""
    chunks = [_HEADER.pack(_MAGIC, _VERSION, len(model.trees))]
    chunks.append(model.feature_min.astype("<f8").tobytes())
    chunks.append(model.feature_max.astype("<f8").tobytes())
    for tree in model.trees:
        chunks.append(struct.pack("<I", tree.n_nodes))
        chunks.append(tree.feature.astype("<i1").tobytes())
        chunks.append(tree.value.astype("<f8").tobytes())
    body = b"".join(chunks)
    blob = body + struct.pack("<I", zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, size: int) -> bytes:
        if self.pos + size > len(self.blob):
            raise ModelFormatError("truncated model file")
        out = self.blob[self.pos:self.pos + size]
        self.pos += size
        return out

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt).copy()


def _read_tree(rd: _Reader) -> Tree:
    """One tree's records, checked so that traversal stays inside the tree."""
    (n_nodes,) = struct.unpack("<I", rd.take(4))
    feature = rd.array("<i1", n_nodes)
    value = rd.array("<f8", n_nodes)
    if ((feature < -1) | (feature >= N_FEATURES)).any():
        raise ModelFormatError(f"node feature outside [-1, {N_FEATURES - 1}]")
    slots = np.flatnonzero(feature >= 0)
    if n_nodes != 2 * slots.size + 1:
        raise ModelFormatError(f"tree has {n_nodes} nodes, but its {slots.size} split nodes "
                               f"and their children need {2 * slots.size + 1}")
    if (1 + 2 * np.arange(slots.size) <= slots).any():
        raise ModelFormatError("split node whose children are not later slots in its tree")
    return Tree(feature=feature, value=value)


def load(path: str) -> ForestModel:
    """Read a model back; verifies magic, version, checksum and tree structure."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    if len(blob) < _HEADER.size + 4:
        raise ModelFormatError(f"{path}: truncated model file")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise ModelFormatError(f"{path}: checksum mismatch, file is corrupt")
    rd = _Reader(body)
    magic, version, n_trees = _HEADER.unpack(rd.take(_HEADER.size))
    if version != _VERSION:
        raise ModelFormatError(f"{path}: format version {version}, expected {_VERSION}")
    if n_trees < 1:
        raise ModelFormatError(f"{path}: model has no trees")
    try:
        fmin = rd.array("<f8", N_FEATURES)
        fmax = rd.array("<f8", N_FEATURES)
        trees = [_read_tree(rd) for _ in range(n_trees)]
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    if rd.pos != len(body):
        raise ModelFormatError(f"{path}: {len(body) - rd.pos} trailing bytes after the last tree")
    return ForestModel(trees=trees, feature_min=fmin, feature_max=fmax)


def write_training_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    """Write (X, y) as a training table whose frame indices number the rows from 0."""
    tables.write(path, TRAINING_COLUMNS, (
        [i, *x[:N_FEATURES - 1], int(x[-1]), bits]
        for i, (x, bits) in enumerate(zip(X.tolist(), y.tolist()))))


def read_training_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a training table into (X, y)."""
    data = np.array([v for _, v in tables.read(path, TRAINING_COLUMNS)], dtype=np.float64)
    return data[:, 1:8], data[:, 8]
