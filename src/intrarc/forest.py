"""Random-forest regression from complexity features + QP to frame bits.

The forest is grown from scratch so that training is bit-reproducible:
every tree gets its own PRNG derived from (seed, tree_index), which
draws only its bootstrap resample of n rows with replacement.
CART splits search every input at every node, maximize variance
reduction and put thresholds at midpoints between consecutive distinct
sorted values. Split-score ties break toward the lowest feature index,
then the lowest threshold. Leaves store the mean target of their
samples.

Trees are grown one depth level at a time. A level's samples sit in one
array, each node a contiguous segment in slot order, and every node of
the level is searched at once: per input, one sort of the level by node
and rank and one prefix-sum scan per group of nodes of similar size.
The sort keys are unique integers, int32 while they fit (always, up to
23,170 samples a tree) and int64 beyond. A node keeps its samples in
the order that splitting one node at a time gives (its parent's, stably
sorted by the parent's split input, which is that input's sorted keys),
so its mean and prefix sums add the same numbers in the same order, and
the trees are bit for bit those of a node-by-node grower. Nodes sit in
level order, and the k-th split node's children are at slots 1 + 2k
and 2 + 2k.

Training tables are read into float64 columns one block of rows at a
time (`tables.blocks`), so a row never becomes a Python list.

Models serialize to a compact little-endian binary: magic "IRCF", a
format version, the tree count, per tree the node count, the feature of
every node and the value of every node (the threshold at a split node,
the mean at a leaf), and a trailing CRC-32. The file holds the trees and
nothing else; how the forest was trained goes to the `train` manifest.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from intrarc import tables
from intrarc.features import FEATURE_COLUMNS, FrameFeatures

N_FEATURES = 7   # model inputs: a training row's columns from e_y to q
_INT32_KEYS = 2**31   # split-search sort keys are int32 while below this bound

TRAINING_COLUMNS = {**FEATURE_COLUMNS, "q": tables.QP, "bits": tables.BITS}
INPUT_NAMES = tuple(TRAINING_COLUMNS)[1:1 + N_FEATURES]

_MAGIC = b"IRCF"
_VERSION = 6
_HEADER = struct.Struct("<4sII")   # magic, version, tree count


class ModelFormatError(ValueError):
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
    # Per-input share of the training SSE reduction (all zero without a
    # split); set by training, not saved in the model file.
    importance: np.ndarray | None = None

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """The forest as a batched predictor: (n, 7) `[features | QP]` -> bits."""
        return predict_batch(self, X)


def _ranks(X: np.ndarray) -> np.ndarray:
    """The (7, n) ranks of each input's values among its distinct values,
    so that equal values, 0.0 and -0.0 included, share a rank."""
    ranks = np.empty(X.T.shape, dtype=np.min_scalar_type(X.shape[0]))
    for c, col in enumerate(X.T):
        ranks[c] = np.unique(col, return_inverse=True)[1]
    return ranks


def _segment_means(v: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The np.mean of each of v's consecutive segments of `sizes` values.

    np.add.reduceat adds a segment's first value to the pairwise sum of
    the rest, where np.mean adds the pairwise sum of all values to 0, so
    a 0 put before each segment makes the two sums equal.
    """
    padded = np.zeros(v.size + sizes.size)
    padded[np.arange(v.size) + np.repeat(np.arange(1, sizes.size + 1), sizes)] = v
    return np.add.reduceat(padded, np.cumsum(sizes) - sizes + np.arange(sizes.size)) / sizes


def _grow_tree(X: np.ndarray, ranks: np.ndarray, y: np.ndarray,
               max_depth: int) -> tuple[Tree, np.ndarray]:
    """One tree, and the SSE reduction of its splits summed per input.

    `ranks` holds the `_ranks` of X's rows, taken in X or in any table
    that contains them.
    """
    n = y.size
    # A tree has at most one leaf per sample and 2**max_depth leaves. Its
    # depth is below n, so the power never needs a larger exponent.
    cap = min(2 * n - 1, 2 ** (min(max_depth, n) + 1) - 1)
    feature = np.full(cap, -1, dtype=np.int8)
    value = np.zeros(cap)
    gains = np.zeros(N_FEATURES)
    bits = int(max(ranks.max(), n - 1)).bit_length()
    # The level's samples: each node is a segment, in slot order, and holds
    # its samples in the order that splitting one node at a time gives.
    samples, sizes = np.arange(n), np.array([n])
    base = 0   # slot of the level's first node
    for depth in range(max_depth + 1):
        m = sizes.size
        starts = np.cumsum(sizes) - sizes
        y_level = y[samples]
        mean = _segment_means(y_level, sizes)
        lo = np.minimum.reduceat(y_level, starts)
        hi = np.maximum.reduceat(y_level, starts)
        # The rounded mean can land an ulp outside its samples' range.
        value[base:base + m] = np.minimum(np.maximum(mean, lo), hi)
        open_ = hi != lo
        if depth == max_depth or not open_.any():
            break
        nodes = np.flatnonzero(open_)
        counts = sizes[nodes]
        kept = np.repeat(open_, sizes)
        gain, col, pos, ordered = _level_splits(
            ranks, bits, samples[kept], counts, y_level[kept] - np.repeat(mean[nodes], counts))
        split = np.isfinite(gain)
        if not split.any():
            break
        cut = (np.cumsum(counts) - counts + pos)[split]   # last left sample
        nodes, col, pos, gain = nodes[split], col[split], pos[split], gain[split]
        feature[base + nodes] = col
        below, above = X[ordered[cut], col], X[ordered[cut + 1], col]
        with np.errstate(over="ignore"):
            mid = (below + above) / 2.0
        # Values beyond half the float range overflow their sum: halve first.
        value[base + nodes] = np.where(np.isinf(mid), below / 2.0 + above / 2.0, mid)
        np.add.at(gains, col, gain)
        # Split node k's children are the next level's nodes 2k and 2k + 1.
        samples = ordered[np.repeat(split, counts)]
        sizes = np.column_stack([pos + 1, counts[split] - pos - 1]).ravel()
        base += m
    n_nodes = base + sizes.size
    return Tree(feature=feature[:n_nodes].copy(), value=value[:n_nodes].copy()), gains


def _level_splits(ranks: np.ndarray, bits: int, samples: np.ndarray, counts: np.ndarray,
                  centred: np.ndarray):
    """Best split of each node of a level: (gain, input, position, ordered).

    `samples` holds the nodes as consecutive segments of `counts` samples,
    `centred` their targets minus their node's mean and `ranks` the
    inputs' ranks, each below 2**bits, which is at least the sample count. A
    node's gain is -inf if it has no cut; `position` is the offset of its
    last left sample, and `ordered` the samples with each node's segment
    stably sorted by the node's input. Candidate cuts sit between
    consecutive distinct sorted values, and the first maximum over
    positions and then over inputs wins: the lowest threshold, then the
    lowest input.
    """
    k = counts.size
    seg = np.repeat(np.arange(k), counts)
    starts = np.cumsum(counts) - counts
    first = starts[seg]
    offset = np.arange(samples.size) - first
    last = offset == counts[seg] - 1
    # Node j has width W_j, the least power of two >= its size, and its
    # samples get the sort keys
    #   (sum of W_i over nodes i < j) << bits  +  rank << log2(W_j)  +  offset.
    # A plain sort then orders the level by node, then rank, then offset:
    # the stable order. key & (W_j - 1) is the offset, key >> log2(W_j) is
    # equal for equal ranks, and keys stay below (sum of all W_j) << bits,
    # at most 4 n**2, which int64 holds for up to 1.5e9 samples. Within
    # _INT32_KEYS they are int32, which sorts faster than int64; being
    # unique, they sort to the same order either way.
    shift = np.frexp(counts - 1)[1].astype(np.int64)
    width = 1 << shift
    keys = np.int32 if int(width.sum()) << bits <= _INT32_KEYS else np.int64
    base = (((np.cumsum(width) - width) << bits)[seg] + offset).astype(keys)
    shift, mask = shift[seg].astype(keys), (width - 1)[seg].astype(keys)
    # Node j also owns W_j cells of a flat buffer, in which the nodes of
    # one width form the rows of a (rows, W) table, so one row-wise cumsum
    # adds each node's samples in the order a sequential scan of the node
    # would. Every input writes the same cells, so the rest stay 0.
    by_width = np.argsort(width, kind="stable")
    row_width = width[by_width]
    row_start = np.cumsum(row_width) - row_width
    cell = np.empty(k, dtype=np.intp)
    cell[by_width] = row_start
    dest = cell[seg] + offset
    width_tables = []
    for w in np.unique(row_width).tolist():
        r0, r1 = np.searchsorted(row_width, [w, w + 1]).tolist()
        width_tables.append((slice(int(row_start[r0]), int(row_start[r0]) + (r1 - r0) * w), w))
    table = np.zeros(int(row_width.sum()))
    prefix = np.empty(table.size)
    # The gain of the cut after offset i of a node of n samples: the sum
    # of the first i + 1 centred targets, squared, times n / (k * (n - k))
    # with k = i + 1 (k = n is no cut; divide by 1 there).
    size = counts[seg].astype(np.float64)
    left = offset + 1.0
    factor = size / np.where(last, 1.0, left * (size - left))
    best_gain = np.full(k, -np.inf)
    best_col = np.zeros(k, dtype=np.intp)
    best_pos = np.zeros(k, dtype=np.intp)
    # Each sample's position in `samples` once its node is sorted by the
    # node's best input so far (a node that never wins keeps its order).
    order = np.arange(samples.size)
    for c in range(N_FEATURES):
        key = np.sort((ranks[c][samples] << shift) + base)
        at = first + (key & mask)
        table[dest] = centred[at]
        for rows, w in width_tables:
            np.cumsum(table[rows].reshape(-1, w), axis=1, out=prefix[rows].reshape(-1, w))
        # No cut after a node's last sample or between equal ranks.
        blocked = last.copy()
        rank = key >> shift
        blocked[:-1] |= rank[1:] == rank[:-1]
        gain = np.where(blocked, -np.inf, prefix[dest] ** 2 * factor)
        top = np.maximum.reduceat(gain, starts)
        won = top > best_gain
        if not won.any():
            continue
        best_gain[won] = top[won]
        best_col[won] = c
        best_pos[won] = np.minimum.reduceat(np.where(gain == top[seg], offset, samples.size),
                                            starts)[won]
        # A node's segment holds the same positions before and after the sort.
        moved = won[seg]
        order[moved] = at[moved]
    return best_gain, best_col, best_pos, samples[order]


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
        raise ValueError(f"{X.shape[0]} row to train on; training needs at least "
                         f"{hp.min_samples_split}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("training data contains non-finite values")
    if ((y < tables.BITS.lo) | (y > tables.BITS.hi)).any():
        raise ValueError("bits targets must be positive bit counts in [1, 2^53]")

    n = X.shape[0]
    ranks = _ranks(X)

    def build(t: int) -> tuple[Tree, np.ndarray]:
        boot = _tree_rng(hp.seed, t).integers(0, n, size=n)
        return _grow_tree(X[boot], ranks[:, boot], y[boot], hp.max_depth)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        grown = list(pool.map(build, range(hp.n_estimators)))
    gains = np.sum([g for _, g in grown], axis=0)
    total = gains.sum()
    return ForestModel(
        trees=[tree for tree, _ in grown],
        importance=gains / total if total > 0.0 else gains,
    )


def predict_batch(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf values reached by each row of X, clipped
    to the range of those leaf values so that rounding cannot leave it."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rows = np.arange(X.shape[0])
    total = np.zeros(X.shape[0])
    lo = np.full(X.shape[0], np.inf)
    hi = np.full(X.shape[0], -np.inf)
    for tree in model.trees:
        # The k-th split node's left child is at 1 + 2k. Children are later
        # slots (load checks it), so every row reaches a leaf within
        # n_nodes steps.
        left = 2 * np.cumsum(tree.feature >= 0) - 1
        # A loaded tree's values are a view of the file's bytes and may be
        # unaligned, which makes every gather below several times slower.
        value = np.require(tree.value, requirements="A")
        idx = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            feat = tree.feature[idx]
            active = feat >= 0
            if not active.any():
                break
            go_left = X[rows, np.where(active, feat, 0)] <= value[idx]
            idx = np.where(active, left[idx] + ~go_left, idx)
        leaf = value[idx]
        total += leaf
        np.minimum(lo, leaf, out=lo)
        np.maximum(hi, leaf, out=hi)
    return np.clip(total / len(model.trees), lo, hi)


def predict(model: ForestModel, features: FrameFeatures, q: int) -> float:
    """Predicted frame bits for one feature vector at QP q."""
    return float(predict_batch(model, feature_matrix([features], q))[0])


def save(model: ForestModel, path: str) -> int:
    """Serialize a model; returns the file size in bytes."""
    chunks = [_HEADER.pack(_MAGIC, _VERSION, len(model.trees))]
    for tree in model.trees:
        chunks.append(struct.pack("<I", tree.n_nodes))
        chunks.append(tree.feature.astype("<i1").tobytes())
        chunks.append(tree.value.astype("<f8").tobytes())
    body = b"".join(chunks)
    blob = body + struct.pack("<I", zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def _read_tree(body: memoryview, pos: int) -> tuple[Tree, int]:
    """The tree whose records start at byte `pos` of `body`, checked so that
    traversal stays inside the tree, and the offset after it."""
    end = pos + 4
    if end <= len(body):
        (n_nodes,) = struct.unpack_from("<I", body, pos)
        end += 9 * n_nodes   # one feature byte and one float64 a node
    if end > len(body):
        raise ModelFormatError("truncated model file")
    feature = np.frombuffer(body, "<i1", n_nodes, pos + 4)
    value = np.frombuffer(body, "<f8", n_nodes, pos + 4 + n_nodes)
    if ((feature < -1) | (feature >= N_FEATURES)).any():
        raise ModelFormatError(f"node feature outside [-1, {N_FEATURES - 1}]")
    slots = np.flatnonzero(feature >= 0)
    if n_nodes != 2 * slots.size + 1:
        raise ModelFormatError(f"tree has {n_nodes} nodes, but its {slots.size} split nodes "
                               f"and their children need {2 * slots.size + 1}")
    if (1 + 2 * np.arange(slots.size) <= slots).any():
        raise ModelFormatError("split node whose children are not later slots in its tree")
    # Training writes finite thresholds and leaf means inside its targets' range.
    if not np.isfinite(value[slots]).all():
        raise ModelFormatError("non-finite split threshold")
    leaves = value[feature < 0]
    if not ((leaves >= tables.BITS.lo) & (leaves <= tables.BITS.hi)).all():
        raise ModelFormatError("leaf value that is not a bit count in [1, 2^53]")
    return Tree(feature=feature, value=value), end


def load(path: str) -> ForestModel:
    """Read a model back; verifies magic, version, checksum, tree structure
    and that every value is one training can write.

    The file is read once into one buffer, parsed tree by tree at byte
    offsets, and the trees' arrays are views of it (`np.frombuffer`), so
    loading holds the model's bytes once. The 12-byte header (magic,
    version, tree count) is read and checked first, so a file that is no
    model, such as /dev/zero or a huge sparse file, is neither sized nor
    read to its end; a file too large to hold is a format error naming
    its size.
    """
    with tables.naming(path), open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if header[:len(_MAGIC)] != _MAGIC:
            raise ModelFormatError("not a model file (bad magic)")
        if len(header) < _HEADER.size:
            raise ModelFormatError("truncated model file")
        _, version, n_trees = _HEADER.unpack(header)
        if version != _VERSION:
            raise ModelFormatError(f"format version {version}, expected {_VERSION}")
        if n_trees < 1:
            raise ModelFormatError("model has no trees")
        size = max(len(header), os.fstat(fh.fileno()).st_size)
        try:
            data = bytearray(size)
        except MemoryError:
            raise ModelFormatError(f"{size}-byte file is too large to load") from None
        data[:len(header)] = header
        with memoryview(data)[len(header):] as rest:
            got = fh.readinto(rest)
        del data[len(header) + got:]
        data += fh.read()   # a pipe, whose size fstat does not give
        blob = memoryview(data)
        if len(blob) < _HEADER.size + 4:
            raise ModelFormatError("truncated model file")
        body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(body) != crc:
            raise ModelFormatError("checksum mismatch, file is corrupt")
        pos, trees = _HEADER.size, []
        for _ in range(n_trees):
            tree, pos = _read_tree(body, pos)
            trees.append(tree)
        if pos != len(body):
            raise ModelFormatError(f"{len(body) - pos} trailing bytes after the last tree")
    return ForestModel(trees=trees)


def write_training_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    """Write (X, y) as a training table whose frame indices number the rows from 0."""
    tables.write(path, TRAINING_COLUMNS, (
        [i, *x[:N_FEATURES - 1], int(x[-1]), bits]
        for i, (x, bits) in enumerate(zip(X.tolist(), y.tolist()))))


def read_training_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a training table into (X, y), built column-wise from the
    reader's blocks, so no row of values is ever a Python list."""
    data = np.concatenate([np.array(values, dtype=np.float64)
                           for _, values in tables.blocks(path, TRAINING_COLUMNS)], axis=1)
    return data[1:8].T, data[8]
