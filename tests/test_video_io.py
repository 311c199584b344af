import os
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from intrarc import features as feat
from intrarc import video_io as vio

from conftest import make_frame, write_raw


def read_whole(plane):
    """A file frame's plane read whole, with one read_rows call."""
    return plane.read_rows(0, np.empty(plane.shape, plane.dtype))


def write_y4m_bytes(path, header, payloads):
    with open(path, "wb") as fh:
        fh.write(header)
        for p in payloads:
            fh.write(b"FRAME\n")
            fh.write(p)


class TestY4m:
    def test_two_frame_64x64_sizes(self, tmp_path, rng):
        path = tmp_path / "two.y4m"
        frames = [make_frame(rng, index=i) for i in range(2)]
        vio.write_y4m(str(path), frames)
        out = list(vio.open_y4m(str(path)))
        assert len(out) == 2
        for f in out:
            y, u, v = f.planes()
            assert read_whole(y).size == 4096
            assert read_whole(u).size == 1024
            assert read_whole(v).size == 1024

    def test_header_only_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.y4m"
        path.write_bytes(b"YUV4MPEG2 W64 H64 F30:1 Ip C420\n")
        assert list(vio.open_y4m(str(path))) == []

    def test_truncated_payload_names_frame(self, tmp_path, rng):
        path = tmp_path / "trunc.y4m"
        frames = [make_frame(rng, index=i) for i in range(2)]
        vio.write_y4m(str(path), frames)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])  # cut into frame 1's payload
        with pytest.raises(vio.VideoFormatError, match="frame 1"):
            list(vio.open_y4m(str(path)))

    def test_missing_signature(self, tmp_path):
        path = tmp_path / "bad.y4m"
        path.write_bytes(b"NOTY4M W64 H64\n")
        with pytest.raises(vio.VideoFormatError, match="signature"):
            list(vio.open_y4m(str(path)))

    def test_unsupported_chroma_tag(self, tmp_path):
        path = tmp_path / "c444.y4m"
        path.write_bytes(b"YUV4MPEG2 W64 H64 F30:1 C444\n")
        with pytest.raises(vio.VideoFormatError, match="chroma"):
            list(vio.open_y4m(str(path)))

    def test_interlaced_rejected(self, tmp_path):
        path = tmp_path / "int.y4m"
        path.write_bytes(b"YUV4MPEG2 W64 H64 F30:1 It C420\n")
        with pytest.raises(vio.VideoFormatError, match="interlaced"):
            list(vio.open_y4m(str(path)))

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("where", ["stream", "frame"])
    def test_header_line_limit(self, tmp_path, where, extra):
        """A header line of up to Y4M_LINE_MAX bytes, its newline included,
        is read with the parameters after its first space; one byte more is
        a data error."""
        def padded(head):
            return head + b" X" + b"a" * (vio.Y4M_LINE_MAX - len(head) - 3 + extra) + b"\n"

        header, marker = b"YUV4MPEG2 W64 H64 F30:1 Ip C420", b"FRAME"
        if where == "stream":
            header, marker = padded(header), marker + b"\n"
        else:
            header, marker = header + b"\n", padded(marker)
        path = tmp_path / "edge.y4m"
        path.write_bytes(header + marker + bytes(6144))
        if extra:
            with pytest.raises(vio.VideoFormatError,
                               match=f"longer than {vio.Y4M_LINE_MAX} bytes"):
                list(vio.open_y4m(str(path)))
        else:
            assert len(list(vio.open_y4m(str(path)))) == 1

    def test_mono_has_empty_chroma(self, tmp_path, rng):
        path = tmp_path / "mono.y4m"
        y = rng.integers(0, 256, 64 * 64, dtype=np.uint8).tobytes()
        write_y4m_bytes(path, b"YUV4MPEG2 W64 H64 F30:1 Cmono\n", [y])
        (frame,) = list(vio.open_y4m(str(path)))
        assert frame.geometry.chroma_format == "400"
        _, u, v = frame.planes()
        assert read_whole(u).size == 0 and read_whole(v).size == 0

    def test_fps_parsed(self, tmp_path, rng):
        path = tmp_path / "ntsc.y4m"
        write_y4m_bytes(path, b"YUV4MPEG2 W64 H64 F30000:1001 Ip C420\n", [])
        # geometry is parsed even for zero-frame files
        frames = vio.open_y4m(str(path))
        assert list(frames) == []


class TestRawYuv:
    def test_three_frames(self, tmp_path, rng):
        g = vio.VideoGeometry(64, 64)
        path = tmp_path / "three.yuv"
        frames = [make_frame(rng, index=i) for i in range(3)]
        write_raw(str(path), frames)
        out = list(vio.open_raw_yuv(str(path), g))
        assert len(out) == 3
        assert [f.index for f in out] == [0, 1, 2]

    def test_extra_byte_is_error(self, tmp_path, rng):
        g = vio.VideoGeometry(64, 64)
        path = tmp_path / "bad.yuv"
        frames = [make_frame(rng)]
        write_raw(str(path), frames)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(vio.VideoFormatError, match=str(g.frame_bytes())):
            list(vio.open_raw_yuv(str(path), g))

    def test_ten_bit_little_endian(self, tmp_path):
        g = vio.VideoGeometry(64, 64, bit_depth=10, chroma_format="400")
        path = tmp_path / "ten.yuv"
        samples = np.zeros(64 * 64, dtype="<u2")
        samples[0] = 0x0000
        samples[1] = 0x03FF
        path.write_bytes(samples.tobytes())
        (frame,) = list(vio.open_raw_yuv(str(path), g))
        y = read_whole(frame.planes()[0]).reshape(-1)
        assert int(y[0]) == 0
        assert int(y[1]) == 1023

    def test_ten_bit_out_of_range_rejected(self, tmp_path):
        g = vio.VideoGeometry(64, 64, bit_depth=10, chroma_format="400")
        path = tmp_path / "hot.yuv"
        samples = np.zeros(64 * 64, dtype="<u2")
        samples[5] = 0x0400  # 1024 > max
        path.write_bytes(samples.tobytes())
        (frame,) = vio.open_raw_yuv(str(path), g)
        with pytest.raises(vio.VideoFormatError, match="sample outside"):
            read_whole(frame.planes()[0])

    def test_ten_bit_mono_chroma_reads_empty(self, tmp_path):
        """An empty plane has no sample to range-check."""
        g = vio.VideoGeometry(64, 64, bit_depth=10, chroma_format="400")
        path = tmp_path / "mono10.yuv"
        path.write_bytes(bytes(g.frame_bytes()))
        (frame,) = vio.open_raw_yuv(str(path), g)
        assert [read_whole(p).shape for p in frame.planes()] == [(64, 64), (0, 0), (0, 0)]

    def test_round_trip_identical(self, tmp_path, rng):
        for bit_depth in (8, 10):
            g = vio.VideoGeometry(64, 64, bit_depth=bit_depth)
            frames = [make_frame(rng, bit_depth=bit_depth, index=i) for i in range(4)]
            path = tmp_path / f"rt{bit_depth}.yuv"
            write_raw(str(path), frames)
            back = list(vio.open_raw_yuv(str(path), g))
            assert [f.index for f in back] == [0, 1, 2, 3]
            for a, b in zip(frames, back):
                for x, y in zip(a.planes(), b.planes()):
                    assert np.array_equal(x, read_whole(y))


class TestWriters:
    def test_mixed_geometry_rejected_before_the_frame(self, tmp_path, rng):
        """A file holds one geometry, so a frame of another is an error that
        names it, raised before any of its bytes are written."""
        path = tmp_path / "mixed"
        frames = [make_frame(rng), make_frame(rng, width=128, index=1)]
        with pytest.raises(vio.VideoFormatError, match="frame 1 has geometry .*width=128"):
            vio.write_y4m(str(path), frames)
        header = b"YUV4MPEG2 W64 H64 F30:1 Ip C420\nFRAME\n"
        assert path.stat().st_size == len(header) + frames[0].geometry.frame_bytes()

    @pytest.mark.parametrize("band_bytes", [vio.BAND_BYTES, 1000])
    def test_file_frames_copy_byte_identical(self, tmp_path, rng, monkeypatch, band_bytes):
        """A file frame's planes are written band by band, as the file holds
        them; a small band size makes each plane several bands."""
        monkeypatch.setattr(vio, "BAND_BYTES", band_bytes)
        frames = [make_frame(rng, width=130, height=66, index=i) for i in range(3)]
        src, copy = tmp_path / "src", tmp_path / "copy"
        vio.write_y4m(str(src), frames)
        assert vio.write_y4m(str(copy), vio.open_y4m(str(src))) == 3
        assert copy.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("frames", [[], iter([])], ids=["list", "iterator"])
    def test_empty_stream_writes_no_file(self, tmp_path, frames):
        path = tmp_path / "empty.y4m"
        assert vio.write_y4m(str(path), frames) == 0
        assert not path.exists()

    def test_ten_bit_first_frame_rejected_before_the_file_is_made(self, tmp_path, rng):
        path = tmp_path / "ten.y4m"
        with pytest.raises(vio.VideoFormatError, match="Y4M output supports 8-bit only"):
            vio.write_y4m(str(path), [make_frame(rng, bit_depth=10)])
        assert not path.exists()

    def test_copying_a_2160p_clip_holds_one_band(self, tmp_path):
        """Copying file frames holds one band of a plane at a time, not a
        whole plane (8.3 MB of 2160p luma) and its bytes."""
        header = b"YUV4MPEG2 W3840 H2160 F30:1 Ip C420\n"
        src, copy = tmp_path / "src.y4m", tmp_path / "copy.y4m"
        write_y4m_bytes(src, header, [bytes(vio.VideoGeometry(3840, 2160).frame_bytes())] * 4)
        tracemalloc.start()
        try:
            assert vio.write_y4m(str(copy), vio.open_y4m(str(src))) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert copy.read_bytes() == src.read_bytes()


class TestFileFrames:
    def test_file_that_shrinks_is_a_data_error_naming_it(self, tmp_path, rng):
        """Planes are read when a frame is analysed; a file cut short after
        the reader checked its length names itself and the frame."""
        path = tmp_path / "shrinks.y4m"
        vio.write_y4m(str(path), [make_frame(rng, index=i) for i in range(2)])
        frames = list(vio.open_y4m(str(path)))
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 100)
        assert read_whole(frames[0].planes()[2]).size == 1024
        named = rf"^{re.escape(str(path))}: frame 1: file shrank"
        with pytest.raises(vio.VideoFormatError, match=named):
            read_whole(frames[1].planes()[2])

    def test_planes_read_whole_match_the_written_frames(self, tmp_path, rng):
        frames = [make_frame(rng, width=66, height=98, index=i) for i in range(2)]
        path = tmp_path / "clip.y4m"
        vio.write_y4m(str(path), frames)
        for a, b in zip(frames, vio.open_y4m(str(path))):
            for x, y in zip(a.planes(), b.planes()):
                assert x.shape == y.shape
                assert np.array_equal(x, read_whole(y))

    def test_y4m_stream_opens_its_file_once(self, tmp_path, rng, monkeypatch):
        """The headers and every plane are read through one descriptor."""
        path = tmp_path / "clip.y4m"
        vio.write_y4m(str(path), [make_frame(rng, index=i) for i in range(2)])
        opened, real_open = [], os.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        assert [read_whole(f.planes()[0]).size for f in vio.open_y4m(str(path))] == [4096, 4096]
        assert opened == [str(path)]

    def test_ten_bit_plane_read_whole_names_the_file_and_frame(self, tmp_path):
        """The range check is part of every read of a file frame's samples."""
        g = vio.VideoGeometry(64, 64, bit_depth=10, chroma_format="400")
        path = tmp_path / "hot.yuv"
        samples = np.zeros((2, 64 * 64), dtype="<u2")
        samples[1, 4095] = 1024
        path.write_bytes(samples.tobytes())
        first, second = vio.open_raw_yuv(str(path), g)
        assert read_whole(first.planes()[0]).max() == 0
        named = rf"^{re.escape(str(path))}: frame 1: sample outside \[0, 1023\]$"
        with pytest.raises(vio.VideoFormatError, match=named):
            read_whole(second.planes()[0])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ten_bit_raw_analysis_reads_each_byte_once(self, tmp_path, rng, monkeypatch,
                                                       threads):
        path = tmp_path / "ten.yuv"
        frames = [make_frame(rng, width=128, height=96, bit_depth=10, index=i)
                  for i in range(3)]
        write_raw(str(path), frames)
        read, real_read_rows = [], vio.FilePlane.read_rows

        def counting_read_rows(self, row, out):
            read.append(out.nbytes)
            return real_read_rows(self, row, out)

        monkeypatch.setattr(vio.FilePlane, "read_rows", counting_read_rows)
        rows = feat.extract_sequence(vio.open_raw_yuv(str(path), frames[0].geometry),
                                     threads=threads)
        assert [r.frame_index for r in rows] == [0, 1, 2]
        assert sum(read) == path.stat().st_size

    def test_threads_sharing_a_file_each_read_its_own_offsets(self, tmp_path, rng):
        """Reads name their offsets, so threads that share one file's frames
        get the file's bytes for every row range, however their reads interleave."""
        g = vio.VideoGeometry(128, 96, bit_depth=10)
        path = tmp_path / "ten.yuv"
        write_raw(str(path), [make_frame(rng, width=128, height=96, bit_depth=10, index=i)
                              for i in range(4)])
        whole = path.read_bytes()
        planes = [p for frame in vio.open_raw_yuv(str(path), g) for p in frame.planes()]

        def reader(seed):
            draw = np.random.default_rng(seed)
            for _ in range(1000):
                plane = planes[draw.integers(len(planes))]
                h, w = plane.shape
                row = int(draw.integers(h))
                out = np.empty((int(draw.integers(1, h - row + 1)), w), plane.dtype)
                start = plane.offset + row * w * plane.dtype.itemsize
                assert plane.read_rows(row, out).tobytes() == whole[start:start + out.nbytes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # threads switch between nearly any two calls
        try:
            with ThreadPoolExecutor(4) as pool:
                list(pool.map(reader, range(4), timeout=30))
        finally:
            sys.setswitchinterval(interval)

    def test_short_reads_are_continued(self, tmp_path, rng, monkeypatch):
        """A read that stops short before the file's end, as one of over 2 GiB
        does, is continued rather than taken for a file that shrank."""
        path = tmp_path / "clip.y4m"
        frames = [make_frame(rng)]
        vio.write_y4m(str(path), frames)
        real_preadv = os.preadv
        monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset:
                            real_preadv(fd, [buffers[0][:100]], offset))
        (frame,) = vio.open_y4m(str(path))
        for x, y in zip(frames[0].planes(), frame.planes()):
            assert np.array_equal(x, read_whole(y))

    @pytest.mark.parametrize("read", [
        vio.is_y4m,
        lambda path: list(vio.open_y4m(path)),
        lambda path: list(vio.open_raw_yuv(path, vio.VideoGeometry(64, 64))),
    ], ids=["is_y4m", "open_y4m", "open_raw_yuv"])
    def test_input_that_is_not_a_regular_file_is_an_os_error_naming_it(self, tmp_path, read):
        with pytest.raises(OSError, match=f"^{re.escape(str(tmp_path))}: not a regular file$"):
            read(str(tmp_path))


class TestGeometry:
    def test_minimum_size(self):
        with pytest.raises(vio.VideoFormatError):
            vio.VideoGeometry(32, 64)

    def test_odd_420_rejected(self):
        with pytest.raises(vio.VideoFormatError):
            vio.VideoGeometry(65, 64)

    def test_sample_count_a_float_holds(self):
        vio.VideoGeometry(2**26, 2**27)
        for width in (2**26 + 2, 10**400):
            with pytest.raises(vio.VideoFormatError, match="above 2\\^53 samples"):
                vio.VideoGeometry(width, 2**27)

    def test_bad_bit_depth(self):
        with pytest.raises(vio.VideoFormatError):
            vio.VideoGeometry(64, 64, bit_depth=12)

    def test_plane_size_mismatch_rejected(self):
        """A plane of the wrong sample count is named, with the count its shape needs."""
        g = vio.VideoGeometry(64, 64)
        for plane, (name, expected) in enumerate([("Y", 4096), ("U", 1024), ("V", 1024)]):
            planes = [np.zeros(n, np.uint8) for n in (64 * 64, 32 * 32, 32 * 32)]
            planes[plane] = np.zeros(10, np.uint8)
            with pytest.raises(vio.VideoFormatError,
                               match=f"^frame 3: {name} plane has 10 samples, "
                                     f"expected {expected}$"):
                vio.PlanarFrame(g, *planes, index=3)

    def test_size_fault_reported_before_sample_type(self):
        """Every plane's sample count is checked before any plane's type."""
        g = vio.VideoGeometry(64, 64)
        with pytest.raises(vio.VideoFormatError, match="V plane has 1000 samples"):
            vio.PlanarFrame(g, np.zeros(64 * 64, np.float64), np.zeros(1024, np.uint8),
                            np.zeros(1000, np.uint8))

    @pytest.mark.parametrize("width, bit_depth, chroma, nbytes", [
        (64, 8, "420", 6144), (64, 10, "420", 12288), (64, 8, "400", 4096),
        (64, 10, "400", 8192), (65, 8, "400", 4160)])
    def test_frame_bytes_sum_the_plane_shapes(self, width, bit_depth, chroma, nbytes):
        g = vio.VideoGeometry(width, 64, bit_depth=bit_depth, chroma_format=chroma)
        assert g.frame_bytes() == nbytes
        assert nbytes == sum(h * w for h, w in g.plane_shapes()) * g.dtype.itemsize

    @pytest.mark.parametrize("bit_depth, dtype, bad", [
        (10, np.uint16, 1024), (8, np.uint16, 256), (8, np.int8, -1), (10, np.int16, -1),
        (10, np.int32, 2**20), (8, np.int64, -(2**40)), (10, np.uint64, 2**63)])
    @pytest.mark.parametrize("plane", [0, 1, 2])
    def test_out_of_range_sample_rejected(self, bit_depth, dtype, bad, plane):
        g = vio.VideoGeometry(64, 64, bit_depth=bit_depth)
        planes = [np.zeros(n, dtype) for n in (64 * 64, 32 * 32, 32 * 32)]
        planes[plane][7] = bad
        with pytest.raises(vio.VideoFormatError,
                           match=rf"sample outside \[0, {g.max_sample}\]"):
            vio.PlanarFrame(g, *planes)

    @pytest.mark.parametrize("dtype, sample", [(np.float64, 100.5), (np.float32, 100.0),
                                               (np.bool_, True)])
    def test_non_integer_samples_rejected(self, dtype, sample):
        """The brightness means add samples as integers, so a frame holds integers."""
        g = vio.VideoGeometry(64, 64, chroma_format="400")
        y = np.full(64 * 64, sample, dtype)
        with pytest.raises(vio.VideoFormatError, match=f"samples of type {np.dtype(dtype)}"):
            vio.PlanarFrame(g, y, np.array([], np.uint8), np.array([], np.uint8))

    @pytest.mark.parametrize("bit_depth, dtype", [
        (8, np.uint8), (8, np.int16), (10, np.uint16), (10, np.int32), (10, np.uint64)])
    def test_in_range_samples_accepted(self, bit_depth, dtype):
        g = vio.VideoGeometry(64, 64, bit_depth=bit_depth)
        planes = [np.zeros(n, dtype) for n in (64 * 64, 32 * 32, 32 * 32)]
        for p in planes:
            p[-1] = g.max_sample
        vio.PlanarFrame(g, *planes)

    def test_frames_are_immutable(self, rng):
        frame = make_frame(rng)
        with pytest.raises(ValueError):
            frame.y_plane[0] = 1
