"""Raw video ingestion: YUV4MPEG2 (Y4M) and headerless planar YUV.

Only progressive 4:2:0 and 4:0:0 (luma-only) layouts are supported, at
8 or 10 bits per sample. 10-bit raw input stores two bytes per sample,
little-endian. Frames are yielded in display order with indices counted
from 0.
"""

from __future__ import annotations

import os
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

    def plane_samples(self) -> tuple[int, int]:
        """(luma samples, chroma samples per plane) for one frame."""
        luma = self.width * self.height
        chroma = (self.width // 2) * (self.height // 2) if self.chroma_format == "420" else 0
        return luma, chroma

    def frame_bytes(self) -> int:
        """Byte size of one frame's payload in planar layout."""
        luma, chroma = self.plane_samples()
        per_sample = 1 if self.bit_depth == 8 else 2
        return (luma + 2 * chroma) * per_sample


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
        hi = self.geometry.max_sample
        for plane in (self.y_plane, self.u_plane, self.v_plane):
            if plane.size:
                if plane.dtype.kind not in "ui":
                    raise VideoFormatError(
                        f"frame {self.index}: samples of type {plane.dtype}, not integers")
                # A scan that the dtype already rules out is skipped: uint8 at
                # 8 bits needs neither, any other unsigned type no minimum.
                bounds = np.iinfo(plane.dtype)
                if ((bounds.max > hi and int(plane.max()) > hi)
                        or (bounds.min < 0 and int(plane.min()) < 0)):
                    raise VideoFormatError(f"frame {self.index}: sample outside [0, {hi}]")
            plane.setflags(write=False)


def _split_planes(payload: bytes, geometry: VideoGeometry, index: int) -> PlanarFrame:
    dtype = np.uint8 if geometry.bit_depth == 8 else np.dtype("<u2")
    samples = np.frombuffer(payload, dtype=dtype)
    luma, chroma = geometry.plane_samples()
    y = samples[:luma]
    u = samples[luma:luma + chroma]
    v = samples[luma + chroma:luma + 2 * chroma]
    return PlanarFrame(geometry=geometry, y_plane=y, u_plane=u, v_plane=v, index=index)


def _first_token(line: bytes) -> bytes:
    """The first token of a Y4M stream or frame header: parameters follow a space."""
    return line.rstrip(b"\n").partition(b" ")[0]


def _cut(token: str) -> str:
    """A header token for an error message: its first _QUOTE_MAX characters."""
    return token if len(token) <= _QUOTE_MAX else token[:_QUOTE_MAX] + "..."


def _header_line(fh, what: str) -> bytes:
    """The next header line, read to its newline, to the end of the file or
    to Y4M_LINE_MAX bytes, whichever comes first; the last is an error."""
    line = fh.readline(Y4M_LINE_MAX)
    if len(line) == Y4M_LINE_MAX and not line.endswith(b"\n"):
        raise VideoFormatError(f"{what} longer than {Y4M_LINE_MAX} bytes")
    return line


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


def open_y4m(path: str) -> Iterator[PlanarFrame]:
    """Yield frames of a Y4M file in display order.

    The stream header fixes the geometry; a header with no FRAME markers
    is a valid zero-frame sequence. Truncated payloads report the index
    of the offending frame.
    """
    with tables.naming(path), open(path, "rb") as fh:
        geometry = _parse_y4m_header(_header_line(fh, "stream header").rstrip(b"\n"))
        nbytes = geometry.frame_bytes()
        size = os.fstat(fh.fileno()).st_size
        index = 0
        while True:
            marker = _header_line(fh, f"FRAME header before frame {index}")
            if marker == b"":
                return
            if _first_token(marker) != b"FRAME":
                raise VideoFormatError(f"bad FRAME marker before frame {index}")
            # Checked before the read, which would allocate the whole frame
            # that the header declares, however large.
            left = size - fh.tell()
            if left < nbytes:
                raise VideoFormatError(f"truncated payload in frame {index} "
                                       f"({left} of {nbytes} bytes)")
            yield _split_planes(fh.read(nbytes), geometry, index)
            index += 1


def open_raw_yuv(path: str, geometry: VideoGeometry) -> Iterator[PlanarFrame]:
    """Yield frames of a headerless planar YUV file with known geometry."""
    nbytes = geometry.frame_bytes()
    with tables.naming(path), open(path, "rb") as fh:
        total = os.fstat(fh.fileno()).st_size
        if total % nbytes:
            raise VideoFormatError(f"size {total} is not a multiple of the frame "
                                   f"byte size {nbytes}")
        for index in range(total // nbytes):
            yield _split_planes(fh.read(nbytes), geometry, index)


def write_raw_yuv(path: str, frames: Iterable[PlanarFrame]) -> int:
    """Write frames as headerless planar YUV; returns the frame count."""
    count = 0
    with open(path, "wb") as fh:
        for frame in frames:
            dtype = np.uint8 if frame.geometry.bit_depth == 8 else np.dtype("<u2")
            for plane in (frame.y_plane, frame.u_plane, frame.v_plane):
                fh.write(np.ascontiguousarray(plane, dtype=dtype).tobytes())
            count += 1
    return count


def write_y4m(path: str, frames: Iterable[PlanarFrame]) -> int:
    """Write 8-bit frames as a Y4M file; returns the frame count."""
    count = 0
    fh = None
    try:
        for frame in frames:
            g = frame.geometry
            if fh is None:
                if g.bit_depth != 8:
                    raise VideoFormatError("Y4M output supports 8-bit only")
                tag = "C420" if g.chroma_format == "420" else "Cmono"
                fh = open(path, "wb")
                fh.write(
                    f"YUV4MPEG2 W{g.width} H{g.height} F{g.fps_num}:{g.fps_den} Ip {tag}\n"
                    .encode("ascii")
                )
            fh.write(b"FRAME\n")
            for plane in (frame.y_plane, frame.u_plane, frame.v_plane):
                fh.write(np.ascontiguousarray(plane, dtype=np.uint8).tobytes())
            count += 1
    finally:
        if fh is not None:
            fh.close()
    return count
