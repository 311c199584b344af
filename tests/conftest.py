import zlib

import numpy as np
import pytest

from intrarc import metrics, tables
from intrarc import ratecontrol as rc
from intrarc.video_io import PlanarFrame, VideoGeometry


def make_frame(rng, width=64, height=64, bit_depth=8, chroma="420", index=0):
    g = VideoGeometry(width=width, height=height, bit_depth=bit_depth, chroma_format=chroma)
    hi = g.max_sample + 1
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    y, u, v = (rng.integers(0, hi, h * w, dtype=dtype) for h, w in g.plane_shapes())
    return PlanarFrame(g, y, u, v, index=index)


def write_raw(path, frames):
    """Write frames as headerless planar YUV: each plane in its frame's file
    sample type, nothing checked."""
    with open(path, "wb") as fh:
        for frame in frames:
            for plane in frame.planes():
                fh.write(plane.astype(frame.geometry.dtype).tobytes())


def flat_frame(value=128, width=64, height=64, chroma="420", index=0):
    g = VideoGeometry(width=width, height=height, chroma_format=chroma)
    y, u, v = (np.full(h * w, value, np.uint8) for h, w in g.plane_shapes())
    return PlanarFrame(g, y, u, v, index=index)


def read_rows(path, columns):
    """Every row of a table as (line number, values), flattened from `tables.blocks`."""
    return [(line, list(row)) for lines, values in tables.blocks(path, columns)
            for line, row in zip(lines, zip(*values))]


def read_trace_csv(path):
    """The decisions of an rc trace."""
    return [rc.FrameDecision(*values) for _, values in read_rows(path, rc.TRACE_COLUMNS)]


def write_rd_csv(path, curve):
    tables.write(path, metrics.RD_COLUMNS, zip(curve.rates, curve.psnrs))


# Model file layout: a 12-byte header (magic, version, tree count), the
# trees, then a CRC-32 of everything before it.
FIRST_TREE = 12


def reseal(path, body):
    """Write `body` with a valid trailing CRC-32, so only the layout can be wrong."""
    path.write_bytes(bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little"))


def malform_model(path, case):
    """Give the saved model at `path`, whose first tree splits at its root,
    one structural fault under a valid CRC.

    left_not_later: the root becomes a leaf and the last leaf a split, so
    the first split node's left child (slot 1 + 2k, k = 0) is not after it.
    left_plus_one_outside: the first tree's node count drops by one, so its
    last split node's right child (left + 1) lies outside the tree.
    """
    body = bytearray(path.read_bytes()[:-4])
    features = FIRST_TREE + 4
    n_nodes = int.from_bytes(body[FIRST_TREE:features], "little")
    if case == "feature":
        body[features] = 9
    elif case == "left_not_later":
        body[features] = 0xFF
        body[features + n_nodes - 1] = 0
    elif case == "left_plus_one_outside":
        body[FIRST_TREE:features] = (n_nodes - 1).to_bytes(4, "little")
    elif case == "trailing":
        body += b"\0"
    reseal(path, body)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
