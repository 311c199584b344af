import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intrarc import features as feat
from intrarc import video_io as vio
from intrarc.video_io import PlanarFrame, VideoGeometry

import reference_features as ref
from conftest import flat_frame, make_frame, write_raw


def naive_dct2(block):
    """O(w^4) orthonormal 2-D DCT-II straight from the definition sum."""
    w = block.shape[0]
    out = np.zeros((w, w))
    xs = np.arange(w)
    for i in range(w):
        ai = math.sqrt(1.0 / w) if i == 0 else math.sqrt(2.0 / w)
        ci = np.cos(np.pi * (2 * xs + 1) * i / (2 * w))
        for j in range(w):
            aj = math.sqrt(1.0 / w) if j == 0 else math.sqrt(2.0 / w)
            cj = np.cos(np.pi * (2 * xs + 1) * j / (2 * w))
            out[i, j] = ai * aj * np.sum(block * np.outer(ci, cj))
    return out


def naive_block_energy(block):
    w = block.shape[0]
    d = naive_dct2(block)
    total = 0.0
    for i in range(w):
        for j in range(w):
            if i == 0 and j == 0:
                continue
            total += math.exp(math.sqrt((i / w) ** 2 + (j / w) ** 2)) * abs(d[i, j])
    return total


class TestBlockEnergy:
    def test_fast_matches_naive_oracle(self, rng):
        for _ in range(10):
            block = rng.integers(0, 256, (32, 32)).astype(np.float64)
            fast = feat.block_texture_energies(block, 32)
            assert fast.shape == (1,)
            naive = naive_block_energy(block)
            assert fast[0] == pytest.approx(naive, rel=1e-6)

    def test_constant_block_zero_energy(self):
        block = np.full((16, 16), 37.0)
        assert feat.block_texture_energies(block, 16)[0] == 0.0

    def test_edge_padding_by_replication(self, rng):
        # a 48x48 plane in 32-blocks: padded region replicates the border
        plane = rng.integers(0, 256, (48, 48)).astype(np.float64)
        padded = np.pad(plane, ((0, 16), (0, 16)), mode="edge")
        direct = feat.block_texture_energies(plane, 32)
        manual = feat.block_texture_energies(padded, 32)
        assert np.array_equal(direct, manual)

    @settings(max_examples=60, deadline=None)
    @given(w=st.sampled_from([8, 16, 32, 64]), data=st.data())
    def test_padding_is_exact(self, w, data):
        """Ragged planes give, block for block, the bits of the plane padded by replication."""
        h = data.draw(st.integers(1, 3 * w + 1), label="rows")
        width = data.draw(st.integers(1, 3 * w + 1), label="columns")
        dtype, top = data.draw(st.sampled_from([(np.uint8, 256), (np.uint16, 1024)]))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        plane = np.random.default_rng(seed).integers(0, top, (h, width), dtype=dtype)
        padded = np.pad(plane, ((0, -h % w), (0, -width % w)), mode="edge")
        assert np.array_equal(feat.block_texture_energies(plane, w),
                              feat.block_texture_energies(padded, w))

    @pytest.mark.parametrize("w", [32, 64])
    def test_memory_is_a_few_block_rows(self, w):
        """float64 temporaries are a few block rows of the plane, never the whole plane."""
        plane = np.zeros((2160, 3840), np.uint8)
        plane[::7, ::3] = 200
        tracemalloc.start()
        try:
            feat.block_texture_energies(plane, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * w * 3840 * 8

    def test_block_order_permutation_invariant(self, rng):
        plane = rng.integers(0, 256, (128, 128)).astype(np.float64)
        energies = feat.block_texture_energies(plane, 32)
        total = math.fsum(energies.tolist())
        for _ in range(5):
            perm = rng.permutation(energies.size)
            assert math.fsum(energies[perm].tolist()) == total


def dctn_block_energies(plane, w):
    """Per-block scipy.fft.dctn reference, edge blocks padded by replication."""
    from scipy.fft import dctn

    h, width = plane.shape
    padded = np.pad(plane.astype(np.float64), ((0, -h % w), (0, -width % w)), mode="edge")
    i = np.arange(w) / w
    weights = np.exp(np.sqrt(i[:, None] ** 2 + i[None, :] ** 2))
    weights[0, 0] = 0.0
    return np.array([(np.abs(dctn(padded[r:r + w, c:c + w], norm="ortho")) * weights).sum()
                     for r in range(0, padded.shape[0], w)
                     for c in range(0, padded.shape[1], w)])


class TestStripKernel:
    """The block-row matmul transform against two independent references."""

    @pytest.mark.parametrize("w", [8, 16, 32, 64])
    @pytest.mark.parametrize("shape", ["strip_plus_one", "one_block"])
    def test_matches_naive_and_dctn(self, rng, w, shape):
        if shape == "one_block":
            plane = rng.integers(0, 256, (w, w), dtype=np.uint8)
        else:
            # nine block rows, and ragged edges in both directions
            rows = 9 * w - 3
            plane = rng.integers(0, 1024, (rows, w + 5), dtype=np.uint16)
        fast = feat.block_texture_energies(plane, w)
        reference = dctn_block_energies(plane, w)
        np.testing.assert_allclose(fast, reference, rtol=1e-12)
        h, width = plane.shape
        padded = np.pad(plane.astype(np.float64), ((0, -h % w), (0, -width % w)), mode="edge")
        naive = [naive_block_energy(padded[r:r + w, c:c + w])
                 for r in range(0, padded.shape[0], w) for c in range(0, padded.shape[1], w)]
        np.testing.assert_allclose(fast, naive, rtol=1e-9)

    @pytest.mark.parametrize("w", [8, 16, 32, 64])
    @pytest.mark.parametrize("level", [0, 1, 37, 128, 255, 1023])
    def test_flat_plane_is_exactly_zero(self, w, level):
        plane = np.full((10 * w + 1, 2 * w - 1), level, np.uint16)
        energies = feat.block_texture_energies(plane, w)
        assert energies.size == 11 * 2
        assert (energies == 0.0).all()


@st.composite
def kernel_plane(draw):
    """A ragged uint8 or 10-bit uint16 plane: noise, a gradient, flat, or flat per block."""
    w = draw(st.sampled_from([16, 32]), label="w")
    h = draw(st.integers(1, 3 * w + 1), label="rows")
    width = draw(st.integers(1, 3 * w + 1), label="columns")
    dtype, top = draw(st.sampled_from([(np.uint8, 256), (np.uint16, 1024)]))
    kind = draw(st.sampled_from(["noise", "gradient", "flat", "flat blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "noise":
        plane = rng.integers(0, top, (h, width))
    elif kind == "gradient":
        dy, dx = rng.integers(-9, 10, 2)
        plane = (np.add.outer(dy * np.arange(h), dx * np.arange(width)) + rng.integers(top)) % top
    elif kind == "flat":
        plane = np.full((h, width), rng.integers(top))
    else:
        levels = rng.integers(0, top, (-(-h // w), -(-width // w)))
        plane = np.kron(levels, np.ones((w, w), int))[:h, :width]
    return w, kind, plane.astype(dtype)


class TestReferenceKernel:
    """The kernel against the one it replaced (tests/reference_features.py).

    Only the summation order differs (a matrix-vector product instead of an
    elementwise weighting and a two-axis sum, and a contiguous C.T instead
    of a transposed view), so every energy matches to within rounding and
    every flat block is still exactly zero.
    """

    @settings(max_examples=300, deadline=None)
    @given(case=kernel_plane())
    def test_matches_the_reference_kernel(self, case):
        w, kind, plane = case
        fast = feat.block_texture_energies(plane, w)
        reference = ref.block_texture_energies(plane, w)
        assert fast.shape == reference.shape
        assert np.array_equal(fast == 0.0, reference == 0.0)
        if kind.startswith("flat"):
            assert (fast == 0.0).all()
        nonzero = reference != 0.0
        assert (np.abs(fast - reference)[nonzero] <= 1e-13 * reference[nonzero]).all()
        scale = 255.0 * (4.0 if plane.dtype == np.uint16 else 1.0)
        energy = feat.plane_energy(plane, w, scale)
        expected = ref.plane_energy(plane, w, scale)
        assert abs(energy - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("w", [16, 32])
    def test_cached_arrays_are_read_only(self, w):
        """Every analysis thread shares them, so a write would corrupt later features."""
        c, ct = feat._dct_matrix(w)
        weights = feat._ac_weights(w)
        assert np.array_equal(ct, c.T) and ct.flags.c_contiguous
        assert weights.shape == (w * w,) and weights[0] == 0.0
        for array in (c, ct, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[1] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0


class TestExtractFeatures:
    def test_constant_frame(self):
        f = feat.extract_features(flat_frame(128))
        assert f.e_y == 0.0 and f.e_u == 0.0 and f.e_v == 0.0
        assert f.l_y == pytest.approx(128 / 255)
        assert f.l_u == pytest.approx(128 / 255)
        assert f.l_v == pytest.approx(128 / 255)

    def test_all_zero_frame(self):
        f = feat.extract_features(flat_frame(0))
        assert f.as_array().tolist() == [0.0] * 6

    def test_luma_only_neutral_chroma(self, rng):
        frame = make_frame(rng, chroma="400")
        f = feat.extract_features(frame)
        assert f.e_u == 0.0 and f.e_v == 0.0
        assert f.l_u == 0.5 and f.l_v == 0.5
        assert f.e_y > 0.0

    def test_random_luma_matches_oracle(self, rng):
        frame = make_frame(rng, chroma="400")
        f = feat.extract_features(frame, feat.AnalyzerConfig())
        plane = frame.y_plane.reshape(64, 64).astype(np.float64)
        total = 0.0
        for r in range(0, 64, 32):
            for c in range(0, 64, 32):
                total += naive_block_energy(plane[r:r + 32, c:c + 32])
        expected = total / (4 * 32 * 32 * 255.0)
        assert f.e_y == pytest.approx(expected, rel=1e-6)

    def test_inverted_luma_same_energy(self, rng):
        frame = make_frame(rng, chroma="400")
        g = frame.geometry
        inv = PlanarFrame(g, (255 - frame.y_plane).astype(np.uint8),
                          frame.u_plane, frame.v_plane, index=1)
        a = feat.extract_features(frame)
        b = feat.extract_features(inv)
        assert b.e_y == pytest.approx(a.e_y, rel=1e-12)

    def test_bit_depth_scaling_invariance(self, rng):
        frame8 = make_frame(rng, chroma="420", bit_depth=8)
        g10 = VideoGeometry(64, 64, bit_depth=10)
        frame10 = PlanarFrame(
            g10,
            (frame8.y_plane.astype(np.uint16) * 4),
            (frame8.u_plane.astype(np.uint16) * 4),
            (frame8.v_plane.astype(np.uint16) * 4),
        )
        a = feat.extract_features(frame8)
        b = feat.extract_features(frame10)
        np.testing.assert_allclose(b.as_array(), a.as_array(), rtol=1e-9, atol=1e-12)

    def test_checkerboard_beats_flat(self):
        g = VideoGeometry(64, 64, chroma_format="400")
        idx = np.indices((64, 64)).sum(axis=0)
        board = np.where(idx % 2 == 0, 255, 0).astype(np.uint8).reshape(-1)
        f = feat.extract_features(PlanarFrame(g, board, np.array([], np.uint8),
                                              np.array([], np.uint8)))
        assert f.e_y > 0.0


class TestPlaneMean:
    @pytest.mark.parametrize("bit_depth", [8, 10])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (67, 33), (1079, 1921)])
    def test_bit_identical_to_numpy_mean(self, rng, bit_depth, shape):
        hi = (1 << bit_depth) - 1
        dtype = np.uint8 if bit_depth == 8 else np.uint16
        for plane in (rng.integers(0, hi + 1, shape, dtype=dtype),
                      rng.integers(hi - 3, hi + 1, shape, dtype=dtype)):
            assert feat._sample_sum(plane, hi) / plane.size == float(plane.mean())

    # A row whose sum passes 2^32, and columns on both sides of the most
    # rows that a uint32 column sum of 10-bit samples holds.
    @pytest.mark.parametrize("shape", [(1, 2**22 + 1), (2**32 // 1023, 1),
                                       (2**32 // 1023 + 1, 1)])
    def test_sums_past_2_32_do_not_overflow(self, shape):
        plane = np.full(shape, 1023, np.uint16)
        plane.flat[0] = 5
        total = 1023 * (plane.size - 1) + 5
        assert feat._sample_sum(plane, 1023) / plane.size == total / plane.size \
            == float(plane.mean())

    def test_features_use_it(self, rng):
        frame = make_frame(rng, width=66, height=98, bit_depth=10)
        f = feat.extract_features(frame)
        for level, plane in ((f.l_y, frame.y_plane), (f.l_u, frame.u_plane),
                             (f.l_v, frame.v_plane)):
            assert level == min(1.0, float(plane.mean()) / 1020.0)


class TestSequence:
    def test_identical_frames_identical_rows(self):
        frames = [flat_frame(90, index=i) for i in range(3)]
        rows = feat.extract_sequence(frames)
        assert len(rows) == 3
        assert [r.frame_index for r in rows] == [0, 1, 2]
        base = rows[0].as_array()
        for r in rows[1:]:
            assert np.array_equal(r.as_array(), base)

    def test_empty_stream_errors(self):
        with pytest.raises(ValueError, match="no frames"):
            feat.extract_sequence(iter([]))

    def test_threaded_matches_serial(self, rng):
        frames = [make_frame(rng, index=i) for i in range(6)]
        serial = feat.extract_sequence(frames)
        threaded = feat.extract_sequence(frames, threads=4)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.as_array(), b.as_array())
            assert a.frame_index == b.frame_index

    def test_memory_does_not_grow_with_the_frame(self, tmp_path):
        """Two workers on a 2160p Y4M clip hold a band each and the kernel's
        block-row temporaries: less than one frame (12.4 MB) in all."""
        g = VideoGeometry(3840, 2160)
        frame = PlanarFrame(g, *(np.arange(h * w, dtype=np.uint8) * 7
                                 for h, w in g.plane_shapes()))
        path = tmp_path / "uhd.y4m"
        vio.write_y4m(str(path), [frame] * 4)
        del frame
        tracemalloc.start()
        try:
            rows = feat.extract_sequence(vio.open_y4m(str(path)), threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 4
        assert peak < g.frame_bytes(), f"{peak / 1e6:.1f} MB"

    def test_threaded_read_ahead_is_bounded(self, rng, monkeypatch):
        """At most `threads` frames are pulled from the stream and not yet
        through extract_features, at 1, 2 and 4 threads, whatever the
        stream length."""
        n = 24
        lock = threading.Lock()
        done = 0
        held = []
        extract = feat.extract_features

        def slow_extract(frame, cfg):
            nonlocal done
            time.sleep(0.005)
            out = extract(frame, cfg)
            with lock:
                done += 1
            return out

        def stream():
            for i in range(n):
                frame = make_frame(rng, index=i)
                with lock:
                    held.append(i + 1 - done)
                yield frame

        monkeypatch.setattr(feat, "extract_features", slow_extract)
        for threads in (1, 2, 4):
            done, held = 0, []
            rows = feat.extract_sequence(stream(), threads=threads)
            assert [r.frame_index for r in rows] == list(range(n))
            assert max(held) <= threads, f"{threads} threads"


def _written_frames(g, count, seed):
    """`count` frames of geometry `g`: blocky noise, so band edges matter."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        planes = []
        for h, w in g.plane_shapes():
            coarse = rng.integers(0, g.max_sample + 1, (h // 8 + 1, w // 8 + 1))
            fine = np.kron(coarse, np.ones((8, 8), int))[:h, :w] + rng.integers(-9, 10, (h, w))
            planes.append(np.clip(fine, 0, g.max_sample).astype(g.dtype).reshape(-1))
        yield PlanarFrame(g, *planes, index=i)


class TestBands:
    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(32, 100).map(lambda n: 2 * n),
           height=st.integers(32, 100).map(lambda n: 2 * n),
           kind=st.sampled_from(["y4m", "raw8", "raw10"]), chroma=st.sampled_from(["420", "400"]),
           band_bytes=st.sampled_from([1, 300, 2500, 7000]), seed=st.integers(0, 2**32 - 1))
    def test_file_bands_match_whole_planes(self, tmp_path_factory, width, height, kind, chroma,
                                           band_bytes, seed):
        """Features of frames read from a file in bands a few block rows
        tall (or one) equal, field for field, those of the same frames held
        in memory and analysed in one band."""
        g = VideoGeometry(width, height, bit_depth=10 if kind == "raw10" else 8,
                          chroma_format=chroma)
        frames = list(_written_frames(g, 2, seed))
        path = str(tmp_path_factory.mktemp("bands") / "clip")
        if kind == "y4m":
            vio.write_y4m(path, frames)
            read = vio.open_y4m(path)
        else:
            write_raw(path, frames)
            read = vio.open_raw_yuv(path, g)
        whole = feat.extract_sequence(frames)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vio, "BAND_BYTES", band_bytes)
            banded = feat.extract_sequence(read, threads=2)
        assert banded == whole


class TestCsv:
    def test_round_trip(self, tmp_path, rng):
        rows = [feat.extract_features(make_frame(rng, index=i)) for i in range(3)]
        path = tmp_path / "f.csv"
        feat.write_features_csv(str(path), rows)
        text = path.read_text()
        assert text.splitlines()[0] == "frame_index,e_y,l_y,e_u,l_u,e_v,l_v"
        back = feat.read_features_csv(str(path))
        assert back.shape == (3, 7) and back.dtype == np.float64
        np.testing.assert_allclose(back, np.asarray(rows, dtype=np.float64), rtol=1e-8)

    def test_reading_holds_the_matrix_and_little_else(self, tmp_path):
        """The table is read block by block into one float64 matrix: 56
        bytes a row held, and at most the blocks and the matrix at once."""
        from intrarc import simulator as sim

        n = 20_000
        path = tmp_path / "f.csv"
        feat.write_features_csv(str(path), sim.random_features(n, np.random.default_rng(5)))
        tracemalloc.start()
        try:
            rows = feat.read_features_csv(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (n, 7) and rows.dtype == np.float64
        assert held <= 64 * n
        assert peak < 256 * n

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            feat.read_features_csv(str(path))

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("frame_index,e_y,l_y,e_u,l_u,e_v,l_v\n0,1,1,1,1,1,1\n1,1,1,1\n")
        with pytest.raises(ValueError, match="line 3 has 4 fields, expected 7"):
            feat.read_features_csv(str(path))

    @pytest.mark.parametrize("row, match", [
        ("1,nan,1,1,1,1,1", "line 3 has e_y='nan'"),
        ("1,1,1,1,1,inf,1", "line 3 has e_v='inf'"),
        ("1,1,-0.5,1,1,1,1", "line 3 has l_y='-0.5'"),
        ("0,1,1,1,1,1,1", "line 3 has frame_index 0, not above the previous 0"),
        ("-1,1,1,1,1,1,1", "line 3 has frame_index='-1', expected"),
    ])
    def test_bad_value_or_index_names_line(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(f"frame_index,e_y,l_y,e_u,l_u,e_v,l_v\n0,1,1,1,1,1,1\n{row}\n")
        with pytest.raises(ValueError, match=match):
            feat.read_features_csv(str(path))


@settings(max_examples=20, deadline=None)
@given(value=st.integers(min_value=0, max_value=255))
def test_flat_frames_have_zero_energy_any_level(value):
    f = feat.extract_features(flat_frame(value))
    assert f.e_y == 0.0 and f.e_u == 0.0 and f.e_v == 0.0
    assert f.l_y == pytest.approx(value / 255)


def test_block_size_validation():
    """The block sizes are constants: no config sets one."""
    with pytest.raises(TypeError):
        feat.AnalyzerConfig(block_size_luma=48)
    assert dataclasses.fields(feat.AnalyzerConfig) == ()
    cfg = feat.AnalyzerConfig()
    assert (cfg.block_size_luma, cfg.block_size_chroma) == (32, 16)
