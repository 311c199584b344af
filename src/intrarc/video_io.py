"""Raw video ingestion: YUV4MPEG2 (Y4M) and headerless planar YUV.

Only progressive 4:2:0 and 4:0:0 (luma-only) layouts are supported, at
8 or 10 bits per sample. 10-bit raw input stores two bytes per sample,
little-endian. Frames are yielded in display order with indices counted
from 0.

The readers yield `FileFrame`s, which hold the open file and where each
plane starts rather than the samples; analysis and the one writer,
`write_y4m`, read each plane by bands (`bands`), so a frame in flight
costs no sample memory. In-memory `PlanarFrame`s go through the same
bands, as slices of their planes.
"""

from __future__ import annotations

import os
import stat
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from intrarc import tables


class VideoFormatError(ValueError):
    """Malformed or unsupported video input."""


Y4M_MAGIC = b"YUV4MPEG2"
# Longest stream or FRAME header line read, its newline included. Real
# headers take well under 200 bytes; the limit keeps a corrupt file with
# no newline from being read whole into one line.
Y4M_LINE_MAX = 4096
_QUOTE_MAX = 32   # characters of a header token quoted in an error
# Most bytes of a plane read at once: a band is whole units of rows
# (block rows for analysis) of at most this size, or a single unit
# where one unit is larger.
BAND_BYTES = 1 << 20
# Chroma siting variants of 4:2:0 are not distinguished downstream.
_CHROMA_TAGS = {
    "420": "420",
    "420jpeg": "420",
    "420paldv": "420",
    "420mpeg2": "420",
    "mono": "400",
}


@dataclass(frozen=True)
class VideoGeometry:
    """Frame geometry and timing shared by every frame of a sequence."""

    width: int
    height: int
    bit_depth: int = 8
    chroma_format: str = "420"
    fps_num: int = 30
    fps_den: int = 1

    def __post_init__(self):
        if self.width < 64 or self.height < 64:
            raise VideoFormatError(
                f"frame size {self.width}x{self.height} below 64x64 minimum"
            )
        if self.pixels > 2**53:   # a sample count a float holds exactly
            raise VideoFormatError(f"frame size {self.width}x{self.height} above 2^53 samples")
        if self.chroma_format not in ("420", "400"):
            raise VideoFormatError(f"unsupported chroma format {self.chroma_format!r}")
        if self.chroma_format == "420" and (self.width % 2 or self.height % 2):
            raise VideoFormatError("4:2:0 requires even width and height")
        if self.bit_depth not in (8, 10):
            raise VideoFormatError(f"bit depth {self.bit_depth} not in {{8, 10}}")
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise VideoFormatError("frame rate must be positive")

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def max_sample(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def dtype(self) -> np.dtype:
        """A sample as a file stores it: one byte, or two little-endian bytes above 8 bits."""
        return np.dtype(np.uint8) if self.bit_depth == 8 else np.dtype("<u2")

    def plane_shapes(self) -> tuple[tuple[int, int], ...]:
        """(rows, columns) of the Y, U and V planes; a 4:0:0 frame's chroma is 0 x 0."""
        chroma = (self.height // 2, self.width // 2) if self.chroma_format == "420" else (0, 0)
        return (self.height, self.width), chroma, chroma

    def plane_samples(self) -> tuple[int, int]:
        """(luma samples, chroma samples per plane) for one frame."""
        (h, w), (ch, cw), _ = self.plane_shapes()
        return h * w, ch * cw

    def frame_bytes(self) -> int:
        """Byte size of one frame's payload in planar layout."""
        luma, chroma = self.plane_samples()
        return (luma + 2 * chroma) * self.dtype.itemsize


def _check_range(samples: np.ndarray, hi: int, index: int) -> None:
    """Reject integer samples outside [0, hi]. A scan that the dtype already
    rules out is skipped: uint8 at 8 bits needs neither, any other unsigned
    type no minimum, and an empty array (4:0:0 chroma) none."""
    bounds = np.iinfo(samples.dtype)
    if samples.size and ((bounds.max > hi and int(samples.max()) > hi)
                         or (bounds.min < 0 and int(samples.min()) < 0)):
        raise VideoFormatError(f"frame {index}: sample outside [0, {hi}]")


@dataclass(frozen=True)
class PlanarFrame:
    """One decoded frame: Y/U/V sample planes plus its ordinal index."""

    geometry: VideoGeometry
    y_plane: np.ndarray
    u_plane: np.ndarray
    v_plane: np.ndarray
    index: int = 0

    def __post_init__(self):
        luma, chroma = self.geometry.plane_samples()
        if self.y_plane.size != luma:
            raise VideoFormatError(
                f"frame {self.index}: Y plane has {self.y_plane.size} samples, expected {luma}"
            )
        for name, plane in (("U", self.u_plane), ("V", self.v_plane)):
            if plane.size != chroma:
                raise VideoFormatError(
                    f"frame {self.index}: {name} plane has {plane.size} samples, expected {chroma}"
                )
        for plane in (self.y_plane, self.u_plane, self.v_plane):
            if plane.size:
                if plane.dtype.kind not in "ui":
                    raise VideoFormatError(
                        f"frame {self.index}: samples of type {plane.dtype}, not integers")
                _check_range(plane, self.geometry.max_sample, self.index)
            plane.setflags(write=False)

    def planes(self) -> tuple[np.ndarray, ...]:
        """The Y, U and V planes as 2-D arrays."""
        return tuple(plane.reshape(shape) for plane, shape in
                     zip((self.y_plane, self.u_plane, self.v_plane), self.geometry.plane_shapes()))


class _SharedFile:
    """The one way a video input is opened: a regular file, read by byte
    range, that a stream reads its headers and its frames' planes from.

    Frames are analysed on worker threads while the stream moves on, and
    after it has ended. Every read names its own offset (`os.pread`,
    `os.preadv`) and moves no shared one, so the readers need no lock.
    The file closes once the stream and every frame that reads from it
    are gone.
    """

    def __init__(self, path: str):
        self.path = path
        if not stat.S_ISREG(os.stat(path).st_mode):   # checked first: a FIFO blocks open
            raise OSError(f"{path}: not a regular file")
        self.fd = os.open(path, os.O_RDONLY)
        self.size = os.fstat(self.fd).st_size
        weakref.finalize(self, os.close, self.fd)

    def read(self, offset: int, size: int) -> bytes:
        """Up to `size` of the file's bytes from `offset` on; fewer at its end."""
        return os.pread(self.fd, size, offset)


@dataclass(frozen=True)
class FilePlane:
    """One sample plane of a frame in a file: where it starts, its 2-D shape,
    its sample type and largest sample. Its rows are read on demand."""

    file: _SharedFile
    offset: int
    shape: tuple[int, int]
    dtype: np.dtype
    max_sample: int
    index: int

    def read_rows(self, row: int, out: np.ndarray) -> np.ndarray:
        """`out`, a C-contiguous (rows, columns) array, filled with the plane's
        rows from `row` on. Every sample of a file frame is read and checked here."""
        offset = self.offset + row * self.shape[1] * self.dtype.itemsize
        got, flat = 0, np.frombuffer(out, np.uint8)
        # A read stops short only at the file's end, or past 2 GiB.
        while got < flat.size and (n := os.preadv(self.file.fd, [flat[got:]], offset + got)):
            got += n
        try:
            if got != out.nbytes:
                raise VideoFormatError(f"frame {self.index}: file shrank after it was opened "
                                       f"({got} of {out.nbytes} bytes at byte {offset})")
            _check_range(out, self.max_sample, self.index)
        except VideoFormatError:   # named on failure only: no context per band
            with tables.naming(self.file.path):
                raise
        return out


@dataclass(frozen=True)
class FileFrame:
    """One frame of a video file: its geometry, its index and where its
    payload starts. The samples stay in the file: `planes()` gives the
    planes, which are read by rows (`FilePlane.read_rows`, or `bands`)."""

    geometry: VideoGeometry
    file: _SharedFile
    offset: int
    index: int = 0

    def planes(self) -> tuple[FilePlane, ...]:
        """The Y, U and V planes, in file order."""
        g, start, out = self.geometry, self.offset, []
        for h, w in g.plane_shapes():
            out.append(FilePlane(self.file, start, (h, w), g.dtype, g.max_sample, self.index))
            start += h * w * g.dtype.itemsize
        return tuple(out)


def bands(plane, unit: int) -> Iterator[np.ndarray]:
    """The rows of a 2-D plane, a PlanarFrame's array or a FilePlane, in
    bands of whole `unit`s of rows; the last band may be shorter.

    A band is at most BAND_BYTES, or one unit where one unit is larger.
    An array's bands are slices of it. A FilePlane's bands are read into
    one buffer that every band reuses, so a band is valid only until the
    next one is taken.
    """
    h, w = plane.shape
    rows = unit * max(1, BAND_BYTES // (unit * max(1, w * plane.dtype.itemsize)))
    buf = None if isinstance(plane, np.ndarray) else np.empty((min(rows, h), w), plane.dtype)
    for r in range(0, h, rows):
        yield plane[r:r + rows] if buf is None else plane.read_rows(r, buf[:min(rows, h - r)])


def _first_token(line: bytes) -> bytes:
    """The first token of a Y4M stream or frame header: parameters follow a space."""
    return line.rstrip(b"\n").partition(b" ")[0]


def _cut(token: str) -> str:
    """A header token for an error message: its first _QUOTE_MAX characters."""
    return token if len(token) <= _QUOTE_MAX else token[:_QUOTE_MAX] + "..."


def _header_line(file: _SharedFile, offset: int, what: str) -> bytes:
    """The header line at `offset`, read to its newline, to the end of the
    file or to Y4M_LINE_MAX bytes, whichever comes first; the last is an error."""
    line, newline, _ = file.read(offset, Y4M_LINE_MAX).partition(b"\n")
    if len(line) == Y4M_LINE_MAX:
        raise VideoFormatError(f"{what} longer than {Y4M_LINE_MAX} bytes")
    return line + newline


def _parse_y4m_header(line: bytes) -> VideoGeometry:
    if _first_token(line) != Y4M_MAGIC:
        raise VideoFormatError("missing YUV4MPEG2 signature")
    width = height = fps_num = fps_den = None
    chroma = "420"
    for token in line.decode("ascii", "replace").split()[1:]:
        key, val = token[0], token[1:]
        try:
            if key == "W":
                width = int(val)
            elif key == "H":
                height = int(val)
            elif key == "F":
                num, den = val.split(":")
                fps_num, fps_den = int(num), int(den)
            elif key == "I":
                if val != "p":
                    raise VideoFormatError(f"interlaced input ({_cut(token)}) not supported")
            elif key == "C":
                if val not in _CHROMA_TAGS:
                    raise VideoFormatError(f"unsupported chroma tag {_cut(token)}")
                chroma = _CHROMA_TAGS[val]
            # A (aspect) and X (extension) tokens carry nothing we use.
        except VideoFormatError:
            raise
        except ValueError as exc:
            raise VideoFormatError(f"malformed header token {_cut(token)!r}") from exc
    if width is None or height is None or fps_num is None:
        raise VideoFormatError("header must carry W, H and F tokens")
    return VideoGeometry(
        width=width, height=height, bit_depth=8, chroma_format=chroma,
        fps_num=fps_num, fps_den=fps_den,
    )


def is_y4m(path: str) -> bool:
    """Whether the regular file at `path` starts with the Y4M signature."""
    return _SharedFile(path).read(0, len(Y4M_MAGIC)) == Y4M_MAGIC


def open_y4m(path: str) -> Iterator[FileFrame]:
    """Yield frames of a Y4M file in display order.

    The stream header fixes the geometry; a header with no FRAME markers
    is a valid zero-frame sequence. Truncated payloads report the index
    of the offending frame. The file must be a regular file, which frames
    read their planes from by byte range; anything else is an OSError.
    """
    with tables.naming(path):
        file = _SharedFile(path)
        header = _header_line(file, 0, "stream header")
        geometry = _parse_y4m_header(header.rstrip(b"\n"))
        nbytes = geometry.frame_bytes()
        index, offset = 0, len(header)
        while True:
            marker = _header_line(file, offset, f"FRAME header before frame {index}")
            if marker == b"":
                return
            if _first_token(marker) != b"FRAME":
                raise VideoFormatError(f"bad FRAME marker before frame {index}")
            start = offset + len(marker)
            if file.size - start < nbytes:
                raise VideoFormatError(f"truncated payload in frame {index} "
                                       f"({file.size - start} of {nbytes} bytes)")
            yield FileFrame(geometry, file, start, index)
            offset = start + nbytes
            index += 1


def open_raw_yuv(path: str, geometry: VideoGeometry) -> Iterator[FileFrame]:
    """Yield frames of a headerless planar YUV file, a regular file, with known
    geometry; a 10-bit sample above 1023 is an error when its plane is read."""
    nbytes = geometry.frame_bytes()
    with tables.naming(path):
        file = _SharedFile(path)
        if file.size % nbytes:
            raise VideoFormatError(f"size {file.size} is not a multiple of the frame "
                                   f"byte size {nbytes}")
        for index in range(file.size // nbytes):
            yield FileFrame(geometry, file, index * nbytes, index)


def write_y4m(path: str, frames: Iterable) -> int:
    """Write 8-bit frames of one geometry as a Y4M file; returns the frame count."""
    count = 0
    fh = None
    try:
        for frame in frames:
            g = frame.geometry
            if fh is None:
                first = g
                if g.bit_depth != 8:
                    raise VideoFormatError("Y4M output supports 8-bit only")
                tag = "C420" if g.chroma_format == "420" else "Cmono"
                fh = open(path, "wb")
                fh.write(
                    f"YUV4MPEG2 W{g.width} H{g.height} F{g.fps_num}:{g.fps_den} Ip {tag}\n"
                    .encode("ascii")
                )
            elif g != first:   # rejected before any byte of the frame is written
                raise VideoFormatError(f"frame {count} has geometry {g}, but frame 0 has {first}")
            fh.write(b"FRAME\n")
            for plane in frame.planes():
                for band in bands(plane, 1):
                    fh.write(np.ascontiguousarray(band, dtype=np.uint8))
            count += 1
    finally:
        if fh is not None:
            fh.close()
    return count
