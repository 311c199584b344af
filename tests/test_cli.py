import contextlib
import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
import threading
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import intrarc
from intrarc import cli, forest, metrics
from intrarc import features as feat
from intrarc import ratecontrol as rc_mod
from intrarc import simulator as sim
from intrarc import video_io as vio

from conftest import FIRST_TREE, make_frame, malform_model


@pytest.fixture
def y4m_file(tmp_path, rng):
    path = tmp_path / "clip.y4m"
    vio.write_y4m(str(path), [make_frame(rng, index=i) for i in range(4)])
    return path


@pytest.fixture
def training_csv(tmp_path):
    X, y = sim.generate_dataset(600, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=3)
    path = tmp_path / "train.csv"
    forest.write_training_csv(str(path), X, y)
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestAnalyze:
    def test_y4m_to_csv_with_manifest(self, tmp_path, y4m_file):
        out = tmp_path / "features.csv"
        assert run("analyze", "--input", y4m_file, "--out", out) == 0
        rows = feat.read_features_csv(str(out))
        assert len(rows) == 4
        manifest = json.loads((tmp_path / "features.csv.manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["first_pass_throughput"]["frames"] == 4
        assert manifest["first_pass_throughput"]["frames_per_second"] is not None

    def test_raw_without_geometry_is_usage_error(self, tmp_path, rng):
        raw = tmp_path / "clip.yuv"
        vio.write_raw_yuv(str(raw), [make_frame(rng)])
        out = tmp_path / "f.csv"
        assert run("analyze", "--input", raw, "--out", out) == 2

    def test_raw_with_geometry(self, tmp_path, rng):
        raw = tmp_path / "clip.yuv"
        vio.write_raw_yuv(str(raw), [make_frame(rng, index=i) for i in range(2)])
        out = tmp_path / "f.csv"
        assert run("analyze", "--input", raw, "--raw-geometry", "64x64:8:420",
                   "--out", out) == 0
        assert len(feat.read_features_csv(str(out))) == 2

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("analyze", "--input", tmp_path / "nope.y4m",
                   "--out", tmp_path / "f.csv") == 4

    def test_deterministic_output_bytes(self, tmp_path, y4m_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("analyze", "--input", y4m_file, "--out", a) == 0
        assert run("analyze", "--input", y4m_file, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_y4m_frame_is_data_error(self, tmp_path):
        """A 45-byte file that declares a 6 GB frame fails on its size, before
        any read; run under an address-space cap so that a read cannot pass
        by luck."""
        clip = tmp_path / "huge.y4m"
        clip.write_bytes(b"YUV4MPEG2 W65536 H65536 F30:1 Ip C420\nFRAME\n")
        proc = analyze_capped(["--input", clip, "--out", tmp_path / "f.csv"])
        assert proc.returncode == 3, proc.stderr
        assert "(0 of 6442450944 bytes)" in proc.stderr

    @pytest.mark.parametrize("tail, message", [
        (b" X", "stream header longer than 4096 bytes"),
        (b"\nFRAME\n" + bytes(6144) + b"FRAME X",
         "FRAME header before frame 1 longer than 4096 bytes"),
    ], ids=["stream header", "FRAME header"])
    def test_newline_free_header_line_is_short_data_error(self, tmp_path, y4m_file, capsys,
                                                           tail, message):
        """A header line with no newline was once read whole: one of 4 MB
        peaked at 8.6-13.5 MB of traced memory."""
        clip = tmp_path / "long.y4m"
        clip.write_bytes(b"YUV4MPEG2 W64 H64 F30:1 Ip C420" + tail + b"a" * (4 << 20))
        assert run("analyze", "--input", y4m_file, "--out", tmp_path / "warm.csv") == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run("analyze", "--input", clip, "--out", tmp_path / "f.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err == f"error: {clip}: {message}\n"
        assert peak < 1 << 20


def analyze_capped(argv):
    """`intrarc analyze` in a fresh interpreter whose address space is capped
    at 3 GiB, so that an input which makes it allocate too much fails alone."""
    cap = 3 << 30
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(intrarc.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "intrarc.cli", "analyze", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


MAX_CLIP_BYTES = 64 * 1024 - 1
SIDES = st.sampled_from([64, 66, 72, 128])   # frame sides that decode
ANY_SIDE = st.integers(-1, 8192)


def _payload(draw, size):
    """`size` bytes: one repeated value (in range at 10 bits for small ones) or noise."""
    seed = draw(st.integers(0, 255))
    if draw(st.booleans()):
        return bytes([seed]) * size
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


def _size(draw, frame):
    """A payload size near `frame` bytes: mostly one frame, else two, one byte
    short or over, or any size."""
    size = draw(st.sampled_from([frame] * 4 + [2 * frame, frame - 1, frame + 1, -1]))
    return size if 0 <= size <= MAX_CLIP_BYTES else draw(st.integers(0, MAX_CLIP_BYTES))


def _flawed(draw, fields: dict, flaws: dict) -> dict:
    """`fields` as they are half the time, else with one replaced by one of its flaws."""
    name = draw(st.sampled_from([None] * len(fields) + list(flaws)))
    return fields if name is None else {**fields, name: draw(flaws[name])}


@st.composite
def y4m_clip(draw):
    """Y4M bytes: header tokens valid or not, FRAME markers, short and long payloads,
    header lines without a newline or past Y4M_LINE_MAX; and whether the
    clip is a Y4M file whose stream header is past that limit, which makes it a
    data error. A clip without the signature is headerless input, so without
    --raw-geometry it is a usage error whatever its header length."""
    fields = _flawed(draw, {
        "magic": "YUV4MPEG2", "W": draw(SIDES), "H": draw(SIDES), "F": "F30:1", "I": "Ip",
        "C": draw(st.sampled_from(["C420", "C420jpeg", "Cmono"])),
    }, {
        "magic": st.sampled_from(["YUV4MPEG", "YUV4MPEG2X", ""]),
        "W": st.one_of(ANY_SIDE, st.sampled_from(["", "0x40", "1e3"])),
        "H": st.one_of(ANY_SIDE, st.sampled_from(["", "64.0"])),
        "F": st.sampled_from(["", "F", "F0:1", "F30", "Fx:1", "F1:0", "F1:2:3"]),
        "I": st.sampled_from(["", "It", "Ib"]),
        "C": st.sampled_from(["", "C", "C422", "C444p10", "Cmono16"]),
    })
    magic, width, height, *rest = fields.values()
    tokens = [magic, f"W{width}", f"H{height}", *rest, "A1:1", "XYSCSS=420", "\xff"]
    long_line = b" X" + b"a" * vio.Y4M_LINE_MAX + b"\n"
    end = draw(st.sampled_from([b"\n"] * 4 + [b"", long_line]))
    data = " ".join(tokens).encode("latin-1") + end
    if isinstance(width, int) and isinstance(height, int):
        frame = width * height * (2 if fields["C"] == "Cmono" else 3) // 2
    else:
        frame = 0
    for _ in range(draw(st.integers(0, 3))):
        data += draw(st.sampled_from([b"FRAME\n"] * 3 + [b"FRAME Ixyz\n", b"FRAM\n", b"FRAMEX\n",
                                                         b"", b"FRAME", b"FRAME" + long_line]))
        data += _payload(draw, _size(draw, frame))
    return data[:MAX_CLIP_BYTES], [], end == long_line and data.startswith(vio.Y4M_MAGIC)


@st.composite
def raw_clip(draw):
    """Headerless YUV bytes and the --raw-geometry flag, well formed or not."""
    fields = _flawed(draw, {
        "width": draw(SIDES), "height": draw(SIDES), "depth": draw(st.sampled_from([8, 10])),
        "chroma": draw(st.sampled_from(["420", "400"])),
    }, {
        "width": ANY_SIDE, "height": ANY_SIDE, "depth": st.sampled_from([0, 9, 12, 16]),
        "chroma": st.sampled_from(["422", "444", "mono", ""]),
    })
    width, height, depth, chroma = fields.values()
    geometry = draw(st.sampled_from([f"{width}x{height}:{depth}:{chroma}"] * 3 + [None]))
    if geometry is None:
        geometry = draw(st.text(alphabet="0123456789x:-_ 420", max_size=16))
    frame = width * height * (3 if chroma == "420" else 2) // 2 * (1 if depth == 8 else 2)
    flags = draw(st.sampled_from([["--raw-geometry", geometry]] * 3 + [[]]))
    return _payload(draw, _size(draw, frame)), flags, False


class TestAnalyzeInputs:
    @settings(max_examples=20, deadline=None)
    @given(clip=st.one_of(y4m_clip(), raw_clip()), threads=st.integers(1, 4))
    def test_any_clip_exits_with_a_documented_code(self, tmp_path_factory, clip, threads):
        data, flags, long_header = clip
        root = tmp_path_factory.mktemp("analyze_inputs")
        (root / "clip").write_bytes(data)
        proc = analyze_capped(["--input", root / "clip", *flags, "--threads", threads,
                               "--out", root / "f.csv"])
        assert proc.returncode in {0, 2, 3, 4}, proc.stderr
        assert "Traceback" not in proc.stderr
        if proc.returncode == 3:
            assert proc.stderr.startswith(f"error: {root / 'clip'}: "), proc.stderr
            assert len(proc.stderr) < len(f"error: {root / 'clip'}: ") + 120, proc.stderr
        assert proc.returncode == 3 or not long_header, proc.stderr
        assert (root / "f.csv").exists() == (proc.returncode == 0)


class TestTrain:
    def test_train_writes_model_and_manifest(self, tmp_path, training_csv):
        out = tmp_path / "model.ircf"
        assert run("train", "--data", training_csv, "--trees", 10, "--max-depth", 6,
                   "--out", out, "--holdout", 0.2) == 0
        model = forest.load(str(out))
        assert len(model.trees) == 10
        manifest = json.loads((tmp_path / "model.ircf.manifest.json").read_text())
        assert manifest["config"]["max_depth"] == 6
        assert manifest["seeds"]["seed"] == 0
        assert manifest["holdout"]["r2"] > 0.0
        importance = manifest["importance"]
        assert list(importance) == ["e_u", "e_v", "e_y", "l_u", "l_v", "l_y", "q"]
        assert sum(importance.values()) == pytest.approx(1.0)

    def test_default_hyperparams_echoed(self, tmp_path, training_csv):
        out = tmp_path / "model.ircf"
        assert run("train", "--data", training_csv, "--trees", 5, "--out", out) == 0
        manifest = json.loads((tmp_path / "model.ircf.manifest.json").read_text())
        cfgd = manifest["config"]
        assert cfgd["max_depth"] == 12
        assert cfgd["min_samples_leaf"] == 1
        assert cfgd["min_samples_split"] == 2
        assert cfgd["max_features"] == 7

    def test_huge_max_depth_costs_no_more_than_the_data_needs(self, tmp_path):
        """No tree on 300 rows is 300 levels deep, so a depth of 10**30 grows
        the same trees; it runs in a child process, whose timeout fails the
        test if the depth's value costs time."""
        X, y = sim.generate_dataset(300, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=3)
        data = tmp_path / "train.csv"
        forest.write_training_csv(str(data), X, y)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(intrarc.__file__)))
        models = []
        for depth in (300, 10**30):
            out = tmp_path / f"d{len(str(depth))}.ircf"
            proc = subprocess.run(
                [sys.executable, "-m", "intrarc.cli", "train", "--data", str(data), "--trees",
                 "2", "--threads", "1", "--max-depth", str(depth), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_frame_index_past_the_float_range_is_data_error(self, tmp_path, training_csv,
                                                             capsys):
        """A 400-digit index once overflowed float64 as the table became an
        array, a traceback with exit 1."""
        lines = training_csv.read_text().splitlines()
        index = "9" * 400
        lines[5] = ",".join([index, *lines[5].split(",")[1:]])
        training_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "model.ircf"
        assert run("train", "--data", training_csv, "--trees", 2, "--out", out) == 3
        assert (f"error: {training_csv}: line 6 has frame_index='{index}', expected a finite "
                "int in [0, 9007199254740992]") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("holdout", [None, 0.2])
    def test_sample_count_is_rows_trained_on(self, tmp_path, training_csv, capsys, holdout):
        out = tmp_path / "model.ircf"
        split = [] if holdout is None else ["--holdout", holdout]
        assert run("train", "--data", training_csv, "--trees", 2, "--max-depth", 3, *split,
                   "--out", out) == 0
        manifest = json.loads((tmp_path / "model.ircf.manifest.json").read_text())
        rows = len(training_csv.read_text().splitlines()) - 1
        want = rows if holdout is None else manifest["holdout"]["n_train"]
        assert want == (600 if holdout is None else 480)
        assert manifest["n_samples"] == want
        assert f"trained 2 trees on {want} samples" in capsys.readouterr().out

    def test_missing_column_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("frame_index,e_y,l_y\n0,0.5,0.5\n")
        assert run("train", "--data", bad, "--out", tmp_path / "m.ircf") == 3

    def test_short_row_is_data_error(self, tmp_path, training_csv, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text(training_csv.read_text() + "7,0.5,0.5\n")
        assert run("train", "--data", bad, "--out", tmp_path / "m.ircf") == 3
        assert "line 602 has 3 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("row, field", [
        ("7,0.5,0.5,0.5,0.5,0.5,0.5,500,1000", "q='500'"),
        ("7,0.5,0.5,0.5,0.5,0.5,0.5,-1,1000", "q='-1'"),
        ("7,0.5,0.5,0.5,0.5,0.5,0.5,32.7,1000", "q='32.7'"),
        ("7,0.5,-3,0.5,0.5,0.5,0.5,32,1000", "l_y='-3'"),
        ("7,nan,0.5,0.5,0.5,0.5,0.5,32,1000", "e_y='nan'"),
        ("7,0.5,0.5,0.5,0.5,0.5,0.5,32,inf", "bits='inf'"),
    ])
    def test_bad_value_names_line(self, tmp_path, training_csv, capsys, row, field):
        bad = tmp_path / "bad.csv"
        bad.write_text(training_csv.read_text() + row + "\n")
        assert run("train", "--data", bad, "--trees", 2, "--out", tmp_path / "m.ircf") == 3
        assert f"line 602 has {field}, expected" in capsys.readouterr().err

    def test_constant_holdout_bits_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "ten.csv"
        forest.write_training_csv(str(path), *sim.generate_dataset(10, sim.SimParams(kappa=1.0),
                                                                   seed=3))
        assert run("train", "--data", path, "--trees", 2, "--holdout", 0.1,
                   "--out", tmp_path / "m.ircf") == 3
        assert capsys.readouterr().err.startswith(
            f"error: {path}: holdout R2 is undefined: the bits of the 1 held-out rows have "
            "zero variance")

    def test_one_row_table_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        forest.write_training_csv(str(path), *sim.generate_dataset(1, sim.SimParams(kappa=1.0),
                                                                   seed=3))
        out = tmp_path / "m.ircf"
        assert run("train", "--data", path, "--trees", 2, "--out", out) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: 1 row to train on; training needs at least 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("holdout, n_test", [(0.96, 10), (0.9, 9)])
    def test_holdout_leaving_too_few_rows_is_usage_error(self, tmp_path, capsys,
                                                         holdout, n_test):
        path = tmp_path / "ten.csv"
        forest.write_training_csv(str(path), *sim.generate_dataset(
            10, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=3))
        out = tmp_path / "m.ircf"
        assert run("train", "--data", path, "--trees", 2, "--holdout", holdout,
                   "--out", out) == 2
        assert (f"--holdout {holdout} holds out {n_test} of the 10 rows of {path}, "
                f"leaving {10 - n_test} to train on; training needs at least 2"
                ) in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_model_bytes(self, tmp_path, training_csv):
        a = tmp_path / "a.ircf"
        b = tmp_path / "b.ircf"
        for out in (a, b):
            assert run("train", "--data", training_csv, "--trees", 8,
                       "--max-depth", 5, "--seed", 0, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPredict:
    def test_predict_csv(self, tmp_path, training_csv, y4m_file):
        model_path = tmp_path / "m.ircf"
        assert run("train", "--data", training_csv, "--trees", 5, "--max-depth", 4,
                   "--out", model_path) == 0
        feats_path = tmp_path / "f.csv"
        assert run("analyze", "--input", y4m_file, "--out", feats_path) == 0
        out = tmp_path / "pred.csv"
        assert run("predict", "--model", model_path, "--features", feats_path,
                   "--qp", 32, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frame_index,q,b_hat"
        assert len(lines) == 5

    @pytest.mark.parametrize("offset, value, message", [
        (4, 5, "format version 5, expected 6"),  # a v5 file
        (8, 0, "model has no trees"),  # tree count 2 -> 0
        (FIRST_TREE + 4, 9, "feature outside [-1, 6]"),  # first node's feature
    ])
    def test_bad_model_file_is_data_error(self, tmp_path, training_csv, capsys,
                                          offset, value, message):
        model_path = tmp_path / "m.ircf"
        assert run("train", "--data", training_csv, "--trees", 2, "--max-depth", 3,
                   "--out", model_path) == 0
        body = bytearray(model_path.read_bytes()[:-4])
        body[offset] = value
        model_path.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
        feats_path, _ = _features_csv(tmp_path, n=3)
        assert run("predict", "--model", model_path, "--features", feats_path,
                   "--qp", 32) == 3
        err = capsys.readouterr().err
        assert str(model_path) in err and message in err

    @pytest.mark.parametrize("case, message", [
        ("left_not_later", "children are not later slots"),
        ("left_plus_one_outside", "and their children need"),
        ("trailing", "trailing bytes"),
    ])
    def test_malformed_tree_is_data_error(self, tmp_path, training_csv, capsys,
                                          case, message):
        model_path = tmp_path / "m.ircf"
        assert run("train", "--data", training_csv, "--trees", 2, "--max-depth", 3,
                   "--out", model_path) == 0
        malform_model(model_path, case)
        feats_path, _ = _features_csv(tmp_path, n=3)
        assert run("predict", "--model", model_path, "--features", feats_path,
                   "--qp", 32) == 3
        err = capsys.readouterr().err
        assert str(model_path) in err and message in err


    @pytest.mark.parametrize("leaf", [float("nan"), float("inf"), 0.5, 2.0**54])
    @pytest.mark.parametrize("command", ["predict", "rc"])
    def test_leaf_training_cannot_write_is_data_error(self, tmp_path, training_csv, capsys,
                                                      command, leaf):
        model_path = tmp_path / "m.ircf"
        assert run("train", "--data", training_csv, "--trees", 2, "--max-depth", 3,
                   "--out", model_path) == 0
        model = forest.load(str(model_path))
        model.trees[1].value[model.trees[1].feature < 0] = leaf
        forest.save(model, str(model_path))
        feats_path, _ = _features_csv(tmp_path, n=3)
        flags = {"predict": ["--qp", 32],
                 "rc": ["--bitrate", 1e6, "--fps", 30, "--resolution", "128x128",
                        "--trace", tmp_path / "trace.csv"]}[command]
        assert run(command, "--model", model_path, "--features", feats_path, *flags) == 3
        err = capsys.readouterr().err
        assert str(model_path) in err and "leaf value that is not a bit count in [1, 2^53]" in err
        assert not (tmp_path / "trace.csv").exists()


def _features_csv(tmp_path, n=40, seed=42):
    feats = sim.random_features(n, np.random.default_rng(seed))
    path = tmp_path / "features.csv"
    feat.write_features_csv(str(path), feats)
    return path, feats


class TestRc:
    def _target(self, feats, q, pixels):
        clean = sim.SimParams(kappa=1.0)
        return float(np.mean([sim.expected_bits(f, q, pixels, clean) for f in feats]) * 30)

    def test_sim_encoder_with_noise_first_pass(self, tmp_path):
        feats_path, feats = _features_csv(tmp_path)
        target = self._target(feats, 20, 1920 * 1080)
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.json"
        code = run("rc", "--features", feats_path, "--first-pass", "noise", "--seed", 0,
                   "--bitrate", target, "--fps", "30", "--resolution", "1920x1080",
                   "--encoder", "sim", "--trace", trace, "--report", report)
        assert code == 0
        summary = json.loads(report.read_text())
        assert abs(summary["bitrate_deviation"]) < 0.25
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["config"]["q_start"] == 24
        assert manifest["seeds"]["first_pass_seed"] == 0

    def test_model_run_has_smaller_qp_spread_than_noise(self, tmp_path, training_csv):
        # directional check at a shared target rate with a pinned seed
        pixels = 3840 * 2160
        feats_path, feats = _features_csv(tmp_path, n=300)
        target = self._target(feats, 20, pixels)
        model_path = tmp_path / "m.ircf"
        assert run("train", "--data", training_csv, "--trees", 20, "--max-depth", 8,
                   "--out", model_path) == 0
        args = ["rc", "--features", feats_path, "--bitrate", target, "--fps", "30",
                "--resolution", "3840x2160", "--encoder", "sim"]
        trace_m = tmp_path / "trace_model.csv"
        assert run(*args, "--model", model_path, "--trace", trace_m) == 0
        trace_n = tmp_path / "trace_noise.csv"
        assert run(*args, "--first-pass", "noise", "--seed", 1, "--trace", trace_n) == 0
        q_model = [d.q_prime_p for d in rc_mod.read_trace_csv(str(trace_m))]
        q_noise = [d.q_prime_p for d in rc_mod.read_trace_csv(str(trace_n))]
        assert np.std(q_model) < np.std(q_noise)
        summary_n = json.loads((tmp_path / "trace_noise.csv.manifest.json").read_text())
        assert abs(summary_n["summary"]["bitrate_deviation"]) <= 0.05

    def test_log_encoder(self, tmp_path):
        feats_path, feats = _features_csv(tmp_path, n=10)
        pixels = 1920 * 1080
        params = sim.SimParams(kappa=1.0)
        log = tmp_path / "log.csv"
        with open(log, "w") as fh:
            fh.write("frame_index,q,bits\n")
            for f in feats:
                for q in range(64):
                    fh.write(f"{f.frame_index},{q},{sim.sim_bits(f, q, pixels, params)}\n")
        target = self._target(feats, 30, pixels)
        trace = tmp_path / "trace.csv"
        code = run("rc", "--features", feats_path, "--first-pass", "noise", "--seed", 2,
                   "--bitrate", target, "--resolution", "1920x1080",
                   "--encoder", f"log:{log}", "--trace", trace)
        assert code == 0

    def test_log_encoder_frame_mismatch(self, tmp_path):
        feats_path, feats = _features_csv(tmp_path, n=10)
        log = tmp_path / "log.csv"
        with open(log, "w") as fh:
            fh.write("frame_index,q,bits\n")
            for i in range(5):  # only half the frames
                fh.write(f"{i},32,1000\n")
        code = run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--resolution", "1920x1080",
                   "--encoder", f"log:{log}", "--trace", tmp_path / "t.csv")
        assert code == 3

    def test_log_encoder_takes_indices_from_features(self, tmp_path):
        feats = sim.random_features(6, np.random.default_rng(4), start_index=5)
        feats_path = tmp_path / "features.csv"
        feat.write_features_csv(str(feats_path), feats)
        log = tmp_path / "log.csv"
        log.write_text("frame_index,q,bits\n" + "".join(
            f"{f.frame_index},{q},{1000 * (64 - q)}\n" for f in feats for q in range(64)))
        trace = tmp_path / "t.csv"
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--resolution", "1920x1080",
                   "--encoder", f"log:{log}", "--trace", trace) == 0
        assert [d.frame_index for d in rc_mod.read_trace_csv(str(trace))] == list(range(5, 11))

    def test_log_encoder_short_row_names_line(self, tmp_path, capsys):
        feats_path, _ = _features_csv(tmp_path, n=5)
        log = tmp_path / "log.csv"
        log.write_text("frame_index,q,bits\n0,32,1000\n7,3\n")
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--resolution", "1920x1080",
                   "--encoder", f"log:{log}", "--trace", tmp_path / "t.csv") == 3
        assert "line 3 has 2 fields, expected 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        ("0,5,nan", "line 7 has bits='nan', expected"),
        ("0,5,-5", "line 7 has bits='-5', expected"),
        ("0,4,2000", "line 7 repeats frame 0 at q=4"),
    ])
    def test_bad_log_row_names_line(self, tmp_path, capsys, bad, message):
        feats_path, feats = _features_csv(tmp_path, n=5)
        rows = [f"{f.frame_index},{q},{1000 * (64 - q)}" for f in feats for q in range(64)]
        rows.insert(5, bad)  # line 7, after the header and frame 0 at q 0..4
        log = tmp_path / "log.csv"
        log.write_text("\n".join(["frame_index,q,bits", *rows]) + "\n")
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--resolution", "1920x1080",
                   "--encoder", f"log:{log}", "--trace", tmp_path / "t.csv") == 3
        assert message in capsys.readouterr().err

    def test_non_finite_sim_noise_is_usage_error(self, tmp_path, capsys):
        feats_path, _ = _features_csv(tmp_path, n=5)
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--resolution", "1920x1080", "--sim-noise", "nan",
                   "--trace", tmp_path / "t.csv") == 2
        assert "--sim-noise nan --sim-seed 0: noise_sigma=nan must be finite" \
            in capsys.readouterr().err

    def test_duplicate_frame_index_is_data_error(self, tmp_path, capsys):
        feats_path, _ = _features_csv(tmp_path, n=5)
        lines = feats_path.read_text().splitlines()
        feats_path.write_text("\n".join(lines + [lines[-1]]) + "\n")
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--resolution", "1920x1080",
                   "--trace", tmp_path / "t.csv") == 3
        assert "line 7 has frame_index 4, not above the previous 4" in capsys.readouterr().err

    def test_negative_frame_index_is_data_error(self, tmp_path, capsys):
        """The simulator keys its noise on the frame index, which must not be
        negative; the features file is rejected as it is read."""
        path = tmp_path / "features.csv"
        feat.write_features_csv(str(path), sim.random_features(
            5, np.random.default_rng(42), start_index=-3))
        assert run("rc", "--features", path, "--first-pass", "noise", "--sim-noise", 0.1,
                   "--bitrate", 1e6, "--resolution", "1920x1080",
                   "--trace", tmp_path / "t.csv") == 3
        assert (f"{path}: line 2 has frame_index='-3', expected a finite int "
                "in [0, 9007199254740992]") in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_unknown_encoder_backend(self, tmp_path):
        feats_path, _ = _features_csv(tmp_path, n=5)
        code = run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--resolution", "1920x1080",
                   "--encoder", "hw0", "--trace", tmp_path / "t.csv")
        assert code == 2

    def test_model_missing_is_usage_error(self, tmp_path):
        feats_path, _ = _features_csv(tmp_path, n=5)
        code = run("rc", "--features", feats_path, "--bitrate", 1e6,
                   "--resolution", "1920x1080", "--trace", tmp_path / "t.csv")
        assert code == 2

    def test_odd_luma_only_size_runs_analyze_to_rc(self, tmp_path, rng):
        """--resolution is a frame size: an odd one that a 4:0:0 clip has is accepted."""
        raw = tmp_path / "clip.yuv"
        vio.write_raw_yuv(str(raw), [make_frame(rng, width=65, chroma="400", index=i)
                                     for i in range(3)])
        feats_path = tmp_path / "features.csv"
        assert run("analyze", "--input", raw, "--raw-geometry", "65x64:8:400",
                   "--out", feats_path) == 0
        trace = tmp_path / "trace.csv"
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e5, "--resolution", "65x64", "--trace", trace) == 0
        assert len(rc_mod.read_trace_csv(str(trace))) == 3
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["config"]["resolution"] == "65x64"

    def test_noise_first_pass_keeps_feature_indices(self, tmp_path):
        feats = sim.random_features(20, np.random.default_rng(3), start_index=5)
        feats_path = tmp_path / "features.csv"
        feat.write_features_csv(str(feats_path), feats)
        trace = tmp_path / "trace.csv"
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", self._target(feats, 30, 1920 * 1080),
                   "--resolution", "1920x1080", "--trace", trace) == 0
        assert [d.frame_index for d in rc_mod.read_trace_csv(str(trace))] == list(range(5, 25))

    def test_nan_bitrate_is_usage_error(self, tmp_path, capsys):
        feats_path, _ = _features_csv(tmp_path, n=5)
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", "nan", "--resolution", "1920x1080",
                   "--trace", tmp_path / "t.csv") == 2
        assert "--bitrate nan --fps '30': frame budget" in capsys.readouterr().err

    def test_bad_resolution_is_usage_error(self, tmp_path):
        feats_path, _ = _features_csv(tmp_path, n=5)
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--resolution", "12x",
                   "--trace", tmp_path / "t.csv") == 2

    def test_bad_fps_is_usage_error(self, tmp_path):
        feats_path, _ = _features_csv(tmp_path, n=5)
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--fps", "abc", "--resolution", "1920x1080",
                   "--trace", tmp_path / "t.csv") == 2

    def test_rc_deterministic_outputs(self, tmp_path):
        feats_path, feats = _features_csv(tmp_path, n=30)
        target = self._target(feats, 25, 1920 * 1080)
        outs = []
        for name in ("a", "b"):
            trace = tmp_path / f"{name}.csv"
            report = tmp_path / f"{name}.json"
            assert run("rc", "--features", feats_path, "--first-pass", "noise",
                       "--seed", 7, "--bitrate", target, "--resolution", "1920x1080",
                       "--trace", trace, "--report", report) == 0
            outs.append((trace.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]


# Captured from the code before the second-pass constants were folded in.
PINNED_RC = {
    "model": {
        "q_prime": [
            21, 20, 20, 28, 28, 30, 30, 22, 24, 31, 25, 31, 31, 23, 24, 28, 21, 30, 28, 26, 15,
            20, 20, 13, 19, 24, 23, 31, 24, 21, 22, 28, 31, 31, 32, 19, 30, 24, 30, 20
        ],
        "actual_bits": [
            166787, 69068, 100836, 231511, 240938, 204183, 196173, 194271, 254374, 201103, 230092,
            185292, 178618, 183394, 220723, 221531, 193592, 155023, 292892, 183960, 126566,
            167634, 87572, 136872, 141311, 471287, 180729, 227680, 367953, 68488, 231867, 216594,
            211278, 182927, 162678, 88505, 273950, 207402, 185957, 133980
        ],
        "deficit": [
            "-33412.9666", "-164544.933", "-263908.9", "-232597.867", "-191859.833", "-187876.8",
            "-191903.766", "-197832.733", "-143658.7", "-142755.666", "-112863.633", "-127771.6",
            "-149353.566", "-166159.533", "-145636.499", "-124305.466", "-130913.433",
            "-176090.399", "-83398.366", "-99638.3327", "-173272.299", "-205838.266",
            "-318466.233", "-381794.199", "-440683.166", "-169596.132", "-189067.099",
            "-161587.066", "6165.96763", "-125545.999", "-93878.9656", "-77484.9323",
            "-66406.8989", "-83679.8655", "-121201.832", "-232896.799", "-159146.765",
            "-151944.732", "-166187.699", "-232407.665"
        ],
        "report": {
            "bitrate_deviation": "-0.0290219411",
            "fps": "30000/1001",
            "mean_qp": "24.95",
            "target_bitrate": "5999999",
            "total_bits": "7775591",
        },
    },
    "noise": {
        "q_prime": [
            41, 0, 39, 25, 31, 33, 0, 63, 63, 63, 63, 63, 63, 63, 32, 63, 63, 63, 63, 63, 63, 63,
            63, 63, 63, 63, 63, 63, 63, 63, 63, 63, 63, 63, 63, 63, 32, 63, 63, 32
        ],
        "actual_bits": [
            13427, 559204, 16704, 375381, 168814, 159100, 7147417, 1559, 2853, 5160, 2922, 5233,
            4122, 1720, 94481, 4265, 1372, 4050, 4122, 2239, 389, 1068, 682, 499, 1151, 4359,
            2012, 5358, 3018, 504, 2019, 3894, 5250, 3735, 4972, 546, 224640, 2154, 4377, 25316
        ],
        "deficit": [
            "-186772.967", "172231.067", "-11264.8999", "163916.133", "132530.167", "91430.2002",
            "7038647.23", "6840006.27", "6642659.3", "6447619.33", "6250341.37", "6055374.4",
            "5859296.43", "5660816.47", "5555097.5", "5359162.53", "5160334.57", "4964184.6",
            "4768106.63", "4570145.67", "4370334.7", "4171202.73", "3971684.77", "3771983.8",
            "3572934.83", "3377093.87", "3178905.9", "2984063.93", "2786881.97", "2587186",
            "2389005.03", "2192699.07", "1997749.1", "1801284.13", "1606056.17", "1406402.2",
            "1430842.23", "1232796.27", "1036973.3", "862089.335"
        ],
        "report": {
            "bitrate_deviation": "0.107653531",
            "fps": "30000/1001",
            "mean_qp": "53.875",
            "target_bitrate": "5999999",
            "total_bits": "8870088",
        },
    },
}


def pinned_rc_run(tmp_path, first_pass):
    """40 frames through `rc` with a 3-tree model or a noise first pass:
    the trace's q_prime, actual bits and deficit (to 9 significant digits)
    and the report (floats to 9 significant digits)."""
    X, y = sim.generate_dataset(400, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=5)
    model = tmp_path / "m.ircf"
    forest.save(forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=3, max_depth=8)),
                str(model))
    feats, _ = _features_csv(tmp_path, n=40, seed=11)
    trace, report = tmp_path / "t.csv", tmp_path / "r.json"
    if first_pass == "model":
        source = ["--model", model]
    else:
        source = ["--first-pass", "noise", "--seed", 3]
    assert run("rc", "--features", feats, *source, "--bitrate", 5999999, "--fps", "30000/1001",
               "--resolution", "3840x2160", "--sim-noise", 0.1, "--sim-seed", 2,
               "--trace", trace, "--report", report) == 0
    decisions = rc_mod.read_trace_csv(str(trace))
    summary = json.loads(report.read_text())
    return ([d.q_prime_p for d in decisions], [int(d.actual_bits) for d in decisions],
            [f"{d.deficit:.9g}" for d in decisions],
            {k: f"{v:.9g}" if isinstance(v, float) else v for k, v in summary.items()})


class TestRcPinned:
    """rc output of a fixed model and seeds, pinned across code versions."""

    @pytest.mark.parametrize("first_pass", sorted(PINNED_RC))
    def test_trace_and_report_match(self, tmp_path, first_pass):
        q_prime, actual_bits, deficit, report = pinned_rc_run(tmp_path, first_pass)
        pinned = PINNED_RC[first_pass]
        assert q_prime == pinned["q_prime"]
        assert actual_bits == pinned["actual_bits"]
        assert deficit == pinned["deficit"]
        assert report == pinned["report"]


def _flag_number():
    return st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "5e-324", "1e308", "1.7e308",
                         "64", "1" * 400, "-" + "1" * 400]),
        st.integers(-10, 10**6).map(str),
        st.floats().map(repr),
    )


# Numbers, N/D ratios, WxH pairs and arbitrary text.
FLAG_VALUES = st.one_of(
    _flag_number(),
    st.tuples(_flag_number(), _flag_number()).map("/".join),
    st.tuples(_flag_number(), _flag_number()).map("x".join),
    st.text(max_size=12),
)


@pytest.fixture(scope="module")
def five_frames(tmp_path_factory):
    root = tmp_path_factory.mktemp("rc_flags")
    feat.write_features_csv(str(root / "features.csv"),
                            sim.random_features(5, np.random.default_rng(1)))
    return root


class TestRcFlags:
    @settings(max_examples=50, deadline=None)
    @given(flag=st.sampled_from(["--bitrate", "--fps", "--resolution", "--seed", "--sim-noise",
                                 "--sim-seed"]),
           value=FLAG_VALUES)
    def test_any_numeric_flag_value_runs_or_is_usage_error(self, five_frames, flag, value):
        argv = ["rc", "--features", str(five_frames / "features.csv"), "--first-pass", "noise",
                "--bitrate", "1e5", "--resolution", "64x64",
                "--trace", str(five_frames / "t.csv"), f"{flag}={value}"]
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects a value its type cannot parse
            code = exc.code
        assert code in (0, 2)


def _write_curves(tmp_path, scale):
    params = sim.SimParams(kappa=1.0)
    from intrarc.features import FrameFeatures
    f = FrameFeatures(0.5, 0.5, 0.3, 0.5, 0.3, 0.5, 0)
    pairs = [(sim.sim_bits(f, q, 1920 * 1080, params) * 30.0, sim.sim_psnr(q, params))
             for q in (37, 32, 27, 22)]
    anchor = tmp_path / "anchor.csv"
    test = tmp_path / "test.csv"
    metrics.write_rd_csv(str(anchor), metrics.RdCurve.from_pairs(pairs))
    metrics.write_rd_csv(str(test), metrics.RdCurve.from_pairs(
        [(r * scale, p) for r, p in pairs]))
    return anchor, test


class TestBdrate:
    def test_identity_zero(self, tmp_path, capsys):
        anchor, _ = _write_curves(tmp_path, 1.0)
        assert run("bdrate", "--anchor", anchor, "--test", anchor) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bd_rate_percent"] == 0.0

    def test_ten_percent_scale(self, tmp_path):
        anchor, test = _write_curves(tmp_path, 1.10)
        out = tmp_path / "bd.json"
        assert run("bdrate", "--anchor", anchor, "--test", test, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["bd_rate_percent"] == pytest.approx(10.0, abs=1e-6)

    def test_disjoint_ranges_exit_3(self, tmp_path, capsys):
        lo = tmp_path / "lo.csv"
        hi = tmp_path / "hi.csv"
        metrics.write_rd_csv(str(lo), metrics.RdCurve.from_pairs(
            [(1e5, 20), (2e5, 22), (3e5, 24), (4e5, 26)]))
        metrics.write_rd_csv(str(hi), metrics.RdCurve.from_pairs(
            [(1e6, 40), (2e6, 42), (3e6, 44), (4e6, 46)]))
        assert run("bdrate", "--anchor", lo, "--test", hi) == 3
        assert "no PSNR overlap" in capsys.readouterr().err

    def test_short_row_is_data_error(self, tmp_path, capsys):
        anchor, _ = _write_curves(tmp_path, 1.0)
        short = tmp_path / "short.csv"
        short.write_text(anchor.read_text() + "4000\n")
        assert run("bdrate", "--anchor", anchor, "--test", short) == 3
        assert "line 6 has 1 fields, expected 2" in capsys.readouterr().err

    @pytest.mark.parametrize("psnrs, message", [
        pytest.param("0 5e-324 1e-323 30",
                     "test.csv: log-rate slopes must be finite, but log10(rate) "
                     "rises by 0.301 between PSNR 0 and 4.94066e-324", id="too close"),
        pytest.param("-1e308 0 1 1e308",
                     "test curve: PSNR -1e+308 to 1e+308 is too wide a span", id="too wide"),
    ])
    def test_extreme_psnr_spacing_is_data_error(self, tmp_path, capsys, psnrs, message):
        anchor = tmp_path / "anchor.csv"
        anchor.write_text("bitrate,psnr_yuv\n1100,0\n2100,10\n4100,20\n8100,40\n")
        test = tmp_path / "test.csv"
        test.write_text("bitrate,psnr_yuv\n" + "".join(
            f"{1000 * 2**i},{p}\n" for i, p in enumerate(psnrs.split())))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("bdrate", "--anchor", anchor, "--test", test) == 3
        assert message in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """One valid input file of each kind that train, predict and bdrate read."""
    root = tmp_path_factory.mktemp("flags")
    X, y = sim.generate_dataset(300, sim.SimParams(kappa=1.0, noise_sigma=0.1), seed=3)
    forest.write_training_csv(str(root / "train.csv"), X, y)
    forest.save(forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=2, max_depth=3)),
                str(root / "m.ircf"))
    feat.write_features_csv(str(root / "features.csv"),
                            sim.random_features(5, np.random.default_rng(1)))
    _write_curves(root, 1.1)
    return root


INPUT_FILES = ["anchor.csv", "features.csv", "m.ircf", "test.csv", "train.csv"]


def _other_input(name):
    """Another kind of input, a missing file or a directory in place of `name`."""
    return st.sampled_from([f for f in INPUT_FILES if f != name] + ["missing.csv", "."])


def _capped_int(top):
    """An integer no larger than `top`, or text that is no integer."""
    return st.one_of(st.integers(max_value=top).map(str), st.floats().map(repr),
                     st.text(alphabet="x.e+-_ ", max_size=6))


BAD_OUT = st.sampled_from([".", "missing/out"])
PATH_FLAGS = {"--data", "--model", "--features", "--anchor", "--test", "--out"}


@st.composite
def flag_argv(draw):
    """A train, predict or bdrate command line, valid half the time, else with
    one flag omitted or given a bad value. Paths are relative to the inputs.

    --trees and --max-depth take no integer above 4 and 10**5, so that no
    valid draw trains for long, and --threads stays within 1-4.
    """
    command = draw(st.sampled_from(["train", "predict", "bdrate"]))
    if command == "train":
        fields = _flawed(draw, {
            "--data": "train.csv", "--trees": draw(st.integers(1, 4)),
            "--max-depth": draw(st.integers(1, 10**5)), "--seed": draw(st.integers(0, 2**64)),
            "--holdout": draw(st.none() | st.floats(0, 1, exclude_min=True, exclude_max=True)),
            "--threads": draw(st.integers(1, 4)), "--out": "out",
        }, {
            "--data": _other_input("train.csv"), "--trees": _capped_int(4),
            "--max-depth": _capped_int(10**5), "--seed": st.none() | FLAG_VALUES,
            "--holdout": FLAG_VALUES, "--out": st.none() | BAD_OUT,
        })
    elif command == "predict":
        fields = _flawed(draw, {
            "--model": "m.ircf", "--features": "features.csv", "--qp": draw(st.integers(0, 63)),
            "--out": draw(st.sampled_from(["out", None])),
        }, {
            "--model": _other_input("m.ircf"), "--features": _other_input("features.csv"),
            "--qp": st.none() | FLAG_VALUES, "--out": BAD_OUT,
        })
    else:
        fields = _flawed(draw, {
            "--anchor": "anchor.csv", "--test": "test.csv",
            "--out": draw(st.sampled_from(["out", None])),
        }, {
            "--anchor": _other_input("anchor.csv"), "--test": _other_input("test.csv"),
            "--out": BAD_OUT,
        })
    return command, fields


class TestTrainPredictBdrateFlags:
    @settings(max_examples=150, deadline=None)
    @given(case=flag_argv())
    def test_any_flag_values_exit_with_a_documented_code(self, flag_inputs, case):
        command, fields = case
        argv = [command] + [f"{flag}={flag_inputs / value if flag in PATH_FLAGS else value}"
                            for flag, value in fields.items() if value is not None]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse rejects a missing or unparsable flag
                code = exc.code
        assert code in {0, 2, 3, 4}, err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("argv, code", [
        pytest.param("train --data={root}/train.csv --trees=2 --max-depth=100000 --threads=1 "
                     "--out={root}/out", 0, id="train deep"),
        pytest.param("train --data={root}/train.csv --trees=2 --holdout=1e-9 --threads=1 "
                     "--out={root}/out", 3, id="train one held-out row"),
        pytest.param("train --data={root}/train.csv --trees=2 --threads=1 --out={root}", 4,
                     id="train out is a directory"),
        pytest.param("predict --model={root}/m.ircf --features={root}/features.csv "
                     f"--qp={10**30}", 2, id="predict huge qp"),
        pytest.param("bdrate --anchor={root}/anchor.csv --test={root}/test.csv "
                     "--out={root}/missing/out", 4, id="bdrate out in a missing directory"),
    ])
    def test_edge_values(self, flag_inputs, capsys, argv, code):
        assert run(*argv.format(root=flag_inputs).split()) == code
        assert "Traceback" not in capsys.readouterr().err


FEATURES_HEADER = "frame_index,e_y,l_y,e_u,l_u,e_v,l_v"

# Every CSV input of the CLI: its header and a command reading it from {csv}.
CSV_INPUTS = {
    "predict features": (FEATURES_HEADER,
                         "predict --model {root}/m.ircf --features {csv} --qp 32 --out {out}"),
    "rc features": (FEATURES_HEADER, "rc --features {csv} --model {root}/m.ircf --bitrate 1e5 "
                                     "--resolution 64x64 --trace {out}"),
    "training": (FEATURES_HEADER + ",q,bits",
                 "train --data {csv} --trees 2 --max-depth 3 --threads 1 --out {out}"),
    "rd curve": ("bitrate,psnr_yuv", "bdrate --anchor {root}/anchor.csv --test {csv} --out {out}"),
    "encoder log": ("frame_index,q,bits",
                    "rc --features {root}/features.csv --first-pass noise --bitrate 1e5 "
                    "--resolution 64x64 --encoder log:{csv} --trace {out}"),
}

CELLS = st.one_of(
    st.integers(-2, 70).map(str),
    st.floats().map(repr),  # nan, inf, huge and subnormal values too
    st.sampled_from(["", "x", "3x", " 7", "1_0", "\x00", '"', "1" * (csv.field_size_limit() + 1)]),
)


def valid_cell(name):
    if name in ("frame_index", "q"):
        return st.integers(0, 63).map(str)
    return st.floats(0, 1).map(repr) if name.startswith("l_") else st.floats(1, 1e7).map(repr)


@st.composite
def table_bytes(draw, header):
    """A CSV table near `header`, with NUL or non-UTF-8 bytes spliced in."""
    width = header.count(",") + 1
    valid = st.tuples(*(valid_cell(name) for name in header.split(","))).map(list)
    rows = draw(st.lists(st.one_of(valid, st.lists(CELLS, min_size=width, max_size=width),
                                   st.lists(CELLS, max_size=width + 1)), max_size=5))
    head = draw(st.sampled_from([header, header, header, header + ",x", ""]))
    data = ("\n".join([head, *(",".join(r) for r in rows)]) + "\n").encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(max_size=3)) + data[at:]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A model, a features CSV and an RD curve for the commands of CSV_INPUTS."""
    root = tmp_path_factory.mktemp("inputs")
    X, y = sim.generate_dataset(200, sim.SimParams(kappa=1.0), seed=1, pixels=64 * 64)
    model = forest.train_arrays(X, y, forest.ForestHyperparams(n_estimators=2, max_depth=3))
    forest.save(model, str(root / "m.ircf"))
    feat.write_features_csv(str(root / "features.csv"),
                            sim.random_features(3, np.random.default_rng(0)))
    metrics.write_rd_csv(str(root / "anchor.csv"), metrics.RdCurve.from_pairs(
        [(1e5, 30.0), (2e5, 33.0), (4e5, 36.0), (8e5, 39.0)]))
    return root


def run_on_csv(root, name, data: bytes) -> int:
    command = CSV_INPUTS[name][1]
    (root / "input.csv").write_bytes(data)
    return run(*command.format(root=root, csv=root / "input.csv", out=root / "out").split())


class TestCsvInputs:
    @pytest.mark.parametrize("name", CSV_INPUTS)
    def test_oversized_field_is_data_error(self, cli_inputs, capsys, name):
        header = CSV_INPUTS[name][0]
        oversized = "1" * (csv.field_size_limit() + 1)
        assert run_on_csv(cli_inputs, name, f"{header}\n{oversized}\n".encode()) == 3
        assert "line 2: field larger than field limit" in capsys.readouterr().err

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(sorted(CSV_INPUTS)), data=st.data())
    def test_any_input_exits_with_a_documented_code(self, cli_inputs, name, data):
        table = data.draw(table_bytes(CSV_INPUTS[name][0]))
        assert run_on_csv(cli_inputs, name, table) in {0, 2, 3, 4}


class TestDataErrorsNameTheFile:
    """A data error raised below the reader of an input still starts with its path."""

    @pytest.mark.parametrize("data, flags, message", [
        pytest.param(b"YUV4MPEG2 W66 H65 F30:1 Ip C420\n", [],
                     "4:2:0 requires even width and height", id="y4m odd height"),
        pytest.param(b"YUV4MPEG2 W32 H32 F30:1 Ip C420\n", [],
                     "frame size 32x32 below 64x64 minimum", id="y4m small frame"),
        pytest.param(b"YUV4MPEG2 W64 H64 F0:1 Ip C420\n", [],
                     "frame rate must be positive", id="y4m zero frame rate"),
        pytest.param(b"YUV4MPEG2 W64 H64 F30:1 Ip C420\n", [],
                     "no frames in input stream", id="y4m header only"),
        pytest.param(b"YUV4MPEG2X W64 H64 F30:1 Ip C420\nFRAME\n" + bytes(6144), [],
                     "missing YUV4MPEG2 signature", id="y4m signature YUV4MPEG2X"),
        pytest.param(b"YUV4MPEG2 W64 H64 F30:1 Ip C420\nFRAMEXYZ\n" + bytes(6144), [],
                     "bad FRAME marker before frame 0", id="y4m marker FRAMEXYZ"),
        pytest.param(b"YUV4MPEG2 W64 H" + b"x" * 3000 + b" F30:1\n", [],
                     "malformed header token 'H" + "x" * 31 + "...'", id="y4m long bad token"),
        pytest.param(b"YUV4MPEG2 W64 H64 F30:1 C" + b"4" * 3000 + b"\n", [],
                     "unsupported chroma tag C" + "4" * 31 + "...", id="y4m long chroma tag"),
        pytest.param(b"YUV4MPEG2 W64 H64 F30:1 I" + b"t" * 3000 + b"\n", [],
                     "interlaced input (I" + "t" * 31 + "...) not supported",
                     id="y4m long interlace tag"),
        pytest.param(b"", ["--raw-geometry", "64x64:8:420"],
                     "no frames in input stream", id="empty raw"),
        pytest.param(np.full(6144, 1024, "<u2").tobytes(), ["--raw-geometry", "64x64:10:420"],
                     "frame 0: sample outside [0, 1023]", id="raw 10-bit sample 1024"),
    ])
    def test_analyze(self, tmp_path, capsys, data, flags, message):
        clip = tmp_path / "clip"
        clip.write_bytes(data)
        assert run("analyze", "--input", clip, *flags, "--out", tmp_path / "f.csv") == 3
        assert capsys.readouterr().err == f"error: {clip}: {message}\n"

    @pytest.mark.parametrize("rows, message", [
        pytest.param("1000,30\n2000,33\n4000,36\n",
                     "an RD curve needs >= 4 points, got 3", id="three points"),
        pytest.param("1000,30\n2000,36\n4000,33\n8000,39\n",
                     "psnr must be strictly increasing with bitrate", id="psnr falls"),
        pytest.param("1000,30\n2000,33\n4000,33\n8000,39\n",
                     "psnr must be strictly increasing with bitrate", id="psnr equal"),
    ])
    def test_bdrate(self, tmp_path, capsys, rows, message):
        anchor, _ = _write_curves(tmp_path, 1.0)
        bad = tmp_path / "bad.csv"
        bad.write_text("bitrate,psnr_yuv\n" + rows)
        assert run("bdrate", "--anchor", anchor, "--test", bad) == 3
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_rc_log_without_the_chosen_q(self, tmp_path, capsys):
        feats_path, feats = _features_csv(tmp_path, n=5)
        log = tmp_path / "log.csv"
        log.write_text("frame_index,q,bits\n" + "".join(f"{f.frame_index},0,1000\n"
                                                         for f in feats))
        assert run("rc", "--features", feats_path, "--first-pass", "noise",
                   "--bitrate", 1e6, "--resolution", "1920x1080",
                   "--encoder", f"log:{log}", "--trace", tmp_path / "t.csv") == 3
        assert capsys.readouterr().err == (
            f"error: encoder failed at frame 0: {log}: no log entry for frame 0 at q=33\n")


def _fresh_interpreter(probe: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run `probe` on `args` in a new interpreter that imports this intrarc, with `env` added."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(intrarc.__file__)),
               **env)
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


# Runs a small chain in a fresh interpreter and prints, per subcommand,
# its exit code and whether any scipy module was loaded after it. With
# "blocked", scipy cannot be imported at all.
SCIPY_PROBE = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from intrarc import cli
def scipy_loaded():
    return any(m.split(".")[0] == "scipy" and v is not None for m, v in sys.modules.items())
out = {"import": [0, scipy_loaded()]}
for name, argv in json.loads(sys.argv[2]):
    out[name] = [cli.main(argv), scipy_loaded()]
print(json.dumps(out))
"""


class TestScipyImport:
    """numpy is the only runtime dependency: no subcommand imports scipy."""

    def _probe(self, tmp_path, y4m_file, training_csv, mode):
        model, feats = tmp_path / "m.ircf", tmp_path / "f.csv"
        anchor, test = _write_curves(tmp_path, 1.1)
        chain = [
            ("analyze", ["analyze", "--input", y4m_file, "--threads", 2, "--out", feats]),
            ("train", ["train", "--data", training_csv, "--trees", 3, "--max-depth", 4,
                       "--threads", 1, "--out", model]),
            ("predict", ["predict", "--model", model, "--features", feats, "--qp", 30,
                         "--out", tmp_path / "p.csv"]),
            ("rc", ["rc", "--features", feats, "--model", model, "--bitrate", 1e5,
                    "--resolution", "64x64", "--trace", tmp_path / "t.csv"]),
            ("bdrate", ["bdrate", "--anchor", anchor, "--test", test,
                        "--out", tmp_path / "bd.json"]),
        ]
        calls = [(name, [str(a) for a in argv]) for name, argv in chain]
        proc = _fresh_interpreter(SCIPY_PROBE, mode, json.dumps(calls))
        return json.loads(proc.stdout.splitlines()[-1])

    def test_no_subcommand_imports_scipy(self, tmp_path, y4m_file, training_csv):
        out = self._probe(tmp_path, y4m_file, training_csv, "open")
        assert out == {"import": [0, False], "analyze": [0, False], "train": [0, False],
                       "predict": [0, False], "rc": [0, False], "bdrate": [0, False]}

    def test_chain_runs_without_scipy(self, tmp_path, y4m_file, training_csv):
        out = self._probe(tmp_path, y4m_file, training_csv, "blocked")
        assert [code for code, _ in out.values()] == [0] * 6

    def test_scipy_is_a_test_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)["project"]

        def names(deps):
            return [re.match(r"[\w.-]+", d).group() for d in deps]
        assert names(project["dependencies"]) == ["numpy"]
        assert "scipy" in names(project["optional-dependencies"]["test"])


# Prints the intrarc modules, and numpy if loaded, after `import intrarc.cli`
# and after each call of a chain, in a fresh interpreter.
IMPORT_PROBE = """
import json, sys
from intrarc import cli
def loaded():
    return sorted(m for m in sys.modules if m.startswith("intrarc.") or m == "numpy")
out = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out[name] = [code, loaded()]
print(json.dumps(out))
"""


class TestLazyImports:
    """A subcommand imports only the modules it runs, and numpy only when it computes."""

    CLI = ["intrarc.cli", "intrarc.tables"]

    def test_import_and_analyze_load_only_what_they_run(self, tmp_path, y4m_file):
        calls = [("analyze", ["analyze", "--input", str(y4m_file), "--threads", "2",
                              "--out", str(tmp_path / "f.csv")])]
        proc = _fresh_interpreter(IMPORT_PROBE, json.dumps(calls))
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["import"] == self.CLI
        assert out["analyze"] == [0, ["intrarc.cli", "intrarc.features", "intrarc.tables",
                                      "intrarc.video_io", "numpy"]]

    def test_version_help_and_usage_errors_load_no_numpy(self):
        calls = [("version", ["--version"]), ("help", ["--help"]),
                 ("usage", ["analyze", "--threads", "2"])]
        proc = _fresh_interpreter(IMPORT_PROBE, json.dumps(calls))
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out == {"import": self.CLI, "version": [0, self.CLI], "help": [0, self.CLI],
                       "usage": [2, self.CLI]}
        assert proc.stdout.splitlines()[0] == f"intrarc {intrarc.__version__}" == "intrarc 0.1.0"
        assert "the following arguments are required: --input, --out" in proc.stderr


# Runs a call through cli.main in a fresh interpreter and prints its exit
# code, the threads the process holds after it and its BLAS thread settings.
BLAS_PROBE = """
import json, os, sys
from intrarc import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, len(os.listdir("/proc/self/task")),
                  [os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")]]))
"""


class TestBlasThreads:
    """An intrarc process runs BLAS on one thread; a caller that loaded numpy keeps its own."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                        reason="needs /proc/self/task and 2 CPUs for a BLAS pool to start")
    def test_a_fresh_process_holds_one_thread(self, cli_inputs, tmp_path):
        argv = ["predict", "--model", str(cli_inputs / "m.ircf"),
                "--features", str(cli_inputs / "features.csv"), "--qp", "30",
                "--out", str(tmp_path / "p.csv")]
        proc = _fresh_interpreter(BLAS_PROBE, json.dumps(argv), OPENBLAS_NUM_THREADS="4",
                                  OMP_NUM_THREADS="4", MKL_NUM_THREADS="4")
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, 1, ["1", "1", "1"]]

    def test_a_caller_with_numpy_keeps_its_environment(self, cli_inputs, tmp_path):
        before = dict(os.environ)
        assert run("predict", "--model", cli_inputs / "m.ircf", "--features",
                   cli_inputs / "features.csv", "--qp", 30, "--out", tmp_path / "p.csv") == 0
        assert dict(os.environ) == before


# An rc run on a small model; a case appends the flags it changes, and the
# last value of a repeated flag wins.
RC = ["rc", "--features", "{feats}", "--model", "{model}", "--bitrate", 1e5,
      "--resolution", "64x64", "--trace", "{out}"]
BUDGET = "frame budget target_bitrate * fps_den / fps_num must be in [1, 2^53] bits"


class TestUsage:
    def test_threads_default_to_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        parser = cli.build_parser()
        assert parser.parse_args(["analyze", "--input", "a", "--out", "b"]).threads == 1
        assert parser.parse_args(["train", "--data", "a", "--out", "b"]).threads == 1
        # more cores than --threads takes: the maximum
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(200)), raising=False)
        assert cli.build_parser().parse_args(["train", "--data", "a", "--out", "b"]).threads == 64
        # without an affinity call, every CPU the machine reports
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli.build_parser().parse_args(["analyze", "--input", "a", "--out", "b"]).threads == 3

    @pytest.mark.parametrize("threads", [0, -1])
    @pytest.mark.parametrize("subcommand", ["analyze", "train"])
    def test_threads_below_one_is_usage_error(self, tmp_path, y4m_file, training_csv,
                                              capsys, subcommand, threads):
        out = tmp_path / "out"
        source = ["--input", y4m_file] if subcommand == "analyze" else ["--data", training_csv]
        assert run(subcommand, *source, "--threads", threads, "--out", out) == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", [cli.MAX_THREADS + 1, 10**6])
    @pytest.mark.parametrize("subcommand", ["analyze", "train"])
    def test_threads_above_the_maximum_is_usage_error(self, tmp_path, y4m_file, training_csv,
                                                      capsys, monkeypatch, subcommand,
                                                      threads):
        """Rejected before any work, so no thread starts."""
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        out = tmp_path / "out"
        source = ["--input", y4m_file] if subcommand == "analyze" else ["--data", training_csv]
        assert run(subcommand, *source, "--threads", threads, "--out", out) == 2
        assert f"--threads must be at most 64, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--input", "{raw}", "--raw-geometry", "128x64:8", "--out", "{out}"],
         "--raw-geometry '128x64:8' is not WIDTHxHEIGHT:BITDEPTH:CHROMA"),
        (["analyze", "--input", "{raw}", "--raw-geometry", "128x64:abc:420", "--out", "{out}"],
         "--raw-geometry '128x64:abc:420' is not WIDTHxHEIGHT:BITDEPTH:CHROMA"),
        (["analyze", "--input", "{raw}", "--raw-geometry", "128x64:12:420", "--out", "{out}"],
         "--raw-geometry '128x64:12:420': bit depth 12 not in {8, 10}"),
        (["analyze", "--input", "{y4m}", "--raw-geometry", "1920x1080:10:400", "--out", "{out}"],
         "--raw-geometry is for headerless input, but --input"),
        (["train", "--data", "{train}", "--trees", 0, "--out", "{out}"],
         "--trees must be at least 1, got 0"),
        (["train", "--data", "{train}", "--max-depth", 0, "--out", "{out}"],
         "--max-depth must be at least 1, got 0"),
        (["train", "--data", "{train}", "--seed", -1, "--out", "{out}"],
         "--seed must be at least 0, got -1"),
        (["train", "--data", "{train}", "--holdout", 0, "--out", "{out}"],
         "--holdout must be a fraction in (0, 1), got 0.0"),
        (["predict", "--model", "{model}", "--features", "{feats}", "--qp", 99, "--out", "{out}"],
         "--qp must be in [0, 63], got 99"),
        ([*RC, "--seed", -1], "--seed must be at least 0, got -1"),
        ([*RC, "--first-pass", "noise"],
         "--model is not read with --first-pass noise; give one or the other"),
        ([*RC, "--sim-seed", -1], "--sim-noise 0.0 --sim-seed -1: seed=-1 must be >= 0"),
        ([*RC, "--sim-seed", -1, "--sim-noise", 0.1],
         "--sim-noise 0.1 --sim-seed -1: seed=-1 must be >= 0"),
        ([*RC, "--sim-noise", -1], "--sim-noise -1.0 --sim-seed 0: noise_sigma must be >= 0"),
        ([*RC, "--bitrate", 0], f"--bitrate 0.0 --fps '30': {BUDGET}, got 0.0"),
        ([*RC, "--first-pass", "noise", "--bitrate", 5e-324],
         f"--bitrate 5e-324 --fps '30': {BUDGET}, got 0.0"),
        ([*RC, "--bitrate", 1.7e308, "--fps", "1/1000"],
         f"--bitrate 1.7e+308 --fps '1/1000': {BUDGET}, got inf"),
        ([*RC, "--bitrate", 1e308, "--fps", 1, "--resolution", "128x128"],
         f"--bitrate 1e+308 --fps '1': {BUDGET}, got 1e+308"),
        ([*RC, "--first-pass", "noise", "--bitrate", 1e-320],
         f"--bitrate 1e-320 --fps '30': {BUDGET}, got 3.3e-322"),
        ([*RC, "--fps", "1" * 400], f"{BUDGET}, got inf"),
        ([*RC, "--fps", "30/" + "1" * 400], f"{BUDGET}, got inf"),
        ([*RC, "--fps", 0], "--bitrate 100000.0 --fps '0': frame rate must be positive"),
        ([*RC, "--fps", "30/0"], "--bitrate 100000.0 --fps '30/0': frame rate must be positive"),
        ([*RC, "--resolution", "32x32"],
         "--resolution '32x32': frame size 32x32 below 64x64 minimum"),
        ([*RC, "--resolution", "1" * 400 + "x64"], "above 2^53 samples"),
    ], ids=["raw-geometry-fields", "raw-geometry-number", "raw-geometry-bit-depth",
            "raw-geometry-with-y4m", "trees", "max-depth", "seed", "holdout", "qp",
            "rc-seed", "rc-model-with-noise", "rc-sim-seed",
            "rc-sim-seed-noisy", "rc-sim-noise", "rc-bitrate-zero", "rc-budget-zero",
            "rc-budget-infinite", "rc-budget-above-2^53", "rc-budget-below-one-bit",
            "rc-fps-huge-numerator", "rc-fps-huge-denominator",
            "rc-fps-zero", "rc-fps-zero-denominator", "rc-resolution-small",
            "rc-resolution-huge"])
    def test_bad_flag_value_is_usage_error(self, tmp_path, y4m_file, training_csv, rng,
                                           capsys, argv, message):
        raw = tmp_path / "clip.yuv"
        vio.write_raw_yuv(str(raw), [make_frame(rng, width=128)])
        model = tmp_path / "m.ircf"
        forest.save(forest.train_arrays(*forest.read_training_csv(str(training_csv)),
                                        forest.ForestHyperparams(n_estimators=2, max_depth=3)),
                    str(model))
        feats, _ = _features_csv(tmp_path, n=3)
        out = tmp_path / "out"
        paths = dict(y4m=y4m_file, raw=raw, train=training_csv, model=model, feats=feats, out=out)
        assert run(*[str(a).format(**paths) for a in argv]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--max-features", 3), ("--min-samples-leaf", 2), ("--min-samples-split", 3),
    ])
    def test_fixed_split_rules_are_not_flags(self, tmp_path, training_csv, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            run("train", "--data", training_csv, flag, value, "--out", tmp_path / "m.ircf")
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_block_size_is_not_a_flag(self, tmp_path, y4m_file, capsys):
        out = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as err:
            run("analyze", "--input", y4m_file, "--block-size", 32, "--out", out)
        assert err.value.code == 2
        assert "unrecognized arguments: --block-size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--c-low", 2), ("--deficit-gain", 0.3), ("--first-pass-qp", 30),
        ("--sim-kappa", 2), ("--sim-gamma", 1), ("--sim-delta", 5),
    ])
    def test_fixed_rc_values_are_not_flags(self, tmp_path, capsys, flag, value):
        feats, _ = _features_csv(tmp_path, n=3)
        with pytest.raises(SystemExit) as err:
            run("rc", "--features", feats, "--first-pass", "noise", "--bitrate", 1e5,
                "--resolution", "64x64", flag, value, "--trace", tmp_path / "t.csv")
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0
