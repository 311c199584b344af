"""The node-by-node CART grower that `forest` once used, kept as the oracle
that the level-wise grower must reproduce bit for bit.

It splits one node per call, in slot order: the node's samples are sorted
stably per input, every cut between distinct sorted values is scored by
its SSE reduction, and the first maximum wins, which is the lowest
threshold and then the lowest input. Leaves hold the mean of their
samples, clamped to their range.
"""

from collections import deque

import numpy as np

from intrarc.forest import N_FEATURES, Tree


def best_split(Xn: np.ndarray, yn: np.ndarray):
    """Best (feature, threshold, gain, sorted order, position) or None."""
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


def grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int) -> tuple[Tree, np.ndarray]:
    """One tree, and the SSE reduction of its splits summed per input."""
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
            found = best_split(X[idx], yn)
        if found is None:
            value[slot] = min(max(yn.mean(), lo), hi)
            continue
        col, thr, g, order, p = found
        feature[slot], value[slot] = col, thr
        gains[col] += g
        queue.append((idx[order[: p + 1]], depth + 1, n_nodes))
        queue.append((idx[order[p + 1:]], depth + 1, n_nodes + 1))
        n_nodes += 2
    return Tree(feature=feature[:n_nodes].copy(), value=value[:n_nodes].copy()), gains
